package shortest

import "uagpnm/internal/graph"

// GraphBall reads a node's bounded ball straight off the graph's
// adjacency, with a Sweep: "who is near this site" against whatever
// state the graph is in, at O(ball·degree) and with no dependence on any
// SLen substrate. The ball plane's rows are read this way.
type GraphBall struct{ sw Sweep }

// NewGraphBall returns a reusable ball reader (not safe for concurrent
// use).
func NewGraphBall() *GraphBall { return new(GraphBall) }

// Ball returns the node ids within maxHops of src in BFS order (not
// sorted), following out-edges, or in-edges when reverse is set. The
// result aliases internal scratch and is valid until the next call.
func (b *GraphBall) Ball(g *graph.Graph, src uint32, maxHops int, reverse bool) []uint32 {
	cols, _ := b.Row(g, src, maxHops, reverse)
	return cols
}

// Row returns the (id, distance) pairs within maxHops of src in BFS
// order — distances never decrease along the row — an exact capped SLen
// row read straight off the graph. A 0-hop row is src alone; a dead src
// or a negative radius gives nil. The results alias internal scratch and
// are valid until the next call.
func (b *GraphBall) Row(g *graph.Graph, src uint32, maxHops int, reverse bool) ([]uint32, []Dist) {
	b.sw.From(g, src, maxHops, reverse)
	if len(b.sw.Reached) == 0 {
		return nil, nil
	}
	return b.sw.Reached, b.sw.Level
}

package shortest

import "uagpnm/internal/graph"

// GraphBall runs a bounded BFS directly over the graph's adjacency and
// returns the ids within maxHops of src (src included), following
// out-edges, or in-edges when reverse is set. It answers "who is near
// this update site" against whatever state the graph is currently in —
// the cheap primitive behind conservative affected sets, costing
// O(ball·degree) with no dependence on any SLen substrate.
type GraphBall struct {
	sc *bfsScratch
}

// NewGraphBall returns a reusable traversal helper (not safe for
// concurrent use).
func NewGraphBall() *GraphBall { return &GraphBall{sc: newBFSScratch(0)} }

// Ball returns the node ids within maxHops of src in visit order (not
// sorted — affected-set builders normalise later anyway). The result
// aliases internal scratch and is valid until the next call.
func (b *GraphBall) Ball(g *graph.Graph, src uint32, maxHops int, reverse bool) []uint32 {
	if maxHops < 0 {
		return nil
	}
	cols, _ := b.sc.runOrdered(g, src, maxHops, reverse, false)
	return cols
}

// Row returns the (id, distance) pairs within maxHops of src in BFS
// visit order — distances never decrease along the row — an exact
// capped SLen row read straight off the graph. The results alias
// internal scratch and are valid until the next call.
func (b *GraphBall) Row(g *graph.Graph, src uint32, maxHops int, reverse bool) ([]uint32, []Dist) {
	if maxHops < 0 {
		return nil, nil
	}
	return b.sc.runOrdered(g, src, maxHops, reverse, false)
}

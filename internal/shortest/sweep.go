package shortest

import (
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
)

// Sweep is the one bounded BFS over a graph's adjacency: SLen rows
// (Engine.Build and its deletions), ball rows (GraphBall), the batch
// change logs and the per-update affected sets of the partition engine
// all run it. Every question bounded simulation asks is "within k
// hops?", so a sweep stops at a hop cap, and 0 hops means its depth-0
// sources alone.
//
// After a run, Reached holds every node the sweep reached, each once, in
// BFS order, and Level[i] is Reached[i]'s level; both alias the sweep's
// state and are valid until its next run. A Sweep serves any graph, is
// reused across runs, and is not safe for concurrent use.
type Sweep struct {
	Reached []uint32
	Level   []Dist

	level []Dist    // by id: Inf unless reached; reset through Reached
	src   [1]uint32 // From's one source, so From allocates nothing
}

// CapHops is the hop cap of horizon: the horizon itself, or the largest
// finite distance when it is 0 (exact).
func CapHops(horizon int) int {
	if horizon == 0 {
		return int(Inf) - 1
	}
	return horizon
}

// Run sweeps g along out-edges, or in-edges when reverse, from the
// nodes at0 at depth 0 and at1 at depth 1, up to depth hops: every node
// within hops of a source is reached at its level, the smallest start(s)
// + d(s,x) over the sources s. A source dead in g is reached at its
// start depth and has no edges to expand; a negative hops reaches
// nothing. Sources are ids of g.
func (s *Sweep) Run(g *graph.Graph, at0, at1 []uint32, hops int, reverse bool) {
	for _, x := range s.Reached {
		s.level[x] = Inf
	}
	s.Reached, s.Level = s.Reached[:0], s.Level[:0]
	if n, had := g.NumIDs(), len(s.level); had < n {
		s.level = append(s.level, make([]Dist, n-had)...)
		for i := had; i < n; i++ {
			s.level[i] = Inf
		}
	}
	if hops < 0 {
		return
	}
	for _, x := range at0 {
		s.reach(x, 0)
	}
	for d, lo := 1, 0; d <= hops; d++ {
		// The depth-1 sources join after the round's frontier is fixed:
		// they are expanded with the level-1 nodes, in the next round.
		hi := len(s.Reached)
		if d == 1 {
			for _, x := range at1 {
				s.reach(x, 1)
			}
		}
		for _, x := range s.Reached[lo:hi] {
			next := g.Out(x)
			if reverse {
				next = g.In(x)
			}
			for _, y := range next {
				s.reach(y, Dist(d))
			}
		}
		if len(s.Reached) == hi {
			break
		}
		lo = hi
	}
}

// reach puts x on the sweep at level d unless it is on it already.
func (s *Sweep) reach(x uint32, d Dist) {
	if s.level[x] == Inf {
		s.level[x] = d
		s.Reached = append(s.Reached, x)
		s.Level = append(s.Level, d)
	}
}

// From is Run from src alone at depth 0: src's ball of radius hops, in
// BFS order, an exact capped SLen row. A dead src reaches nothing.
func (s *Sweep) From(g *graph.Graph, src uint32, hops int, reverse bool) {
	if !g.Alive(src) {
		hops = -1
	}
	s.src[0] = src
	s.Run(g, s.src[:], nil, hops, reverse)
}

// Sort orders Reached ascending, with Level realigned: a matrix row.
func (s *Sweep) Sort() {
	nodeset.SortIDs(s.Reached)
	for i, x := range s.Reached {
		s.Level[i] = s.level[x]
	}
}

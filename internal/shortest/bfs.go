package shortest

import (
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
)

// bfsScratch holds the reusable state of one bounded BFS traversal.
// Distances for all node ids live in dist; touched remembers which
// entries must be reset, so repeated traversals cost O(visited), not
// O(|N|).
type bfsScratch struct {
	dist    []Dist
	touched []uint32
	queue   []uint32
	distRow []Dist // backs the dists slice returned by run
}

func newBFSScratch(n int) *bfsScratch {
	s := &bfsScratch{dist: make([]Dist, n)}
	for i := range s.dist {
		s.dist[i] = Inf
	}
	return s
}

func (s *bfsScratch) grow(n int) {
	for len(s.dist) < n {
		s.dist = append(s.dist, Inf)
	}
}

func (s *bfsScratch) reset() {
	for _, id := range s.touched {
		s.dist[id] = Inf
	}
	s.touched = s.touched[:0]
	s.queue = s.queue[:0]
}

// run performs a BFS from src over g, following out-edges (reverse ==
// false) or in-edges (reverse == true), up to maxHops hops (0 =
// unbounded). It returns the visited nodes' (ascending column, distance)
// pairs, src itself included at distance 0. The returned slices alias
// scratch state and are valid until the next run.
func (s *bfsScratch) run(g *graph.Graph, src uint32, maxHops int, reverse bool) (cols []uint32, dists []Dist) {
	return s.runOrdered(g, src, maxHops, reverse, true)
}

// runOrdered is run with the ascending-column sort made optional: callers
// that only need the visited set (affected-ball collection) or want the
// visit order itself (layered ball rows) skip it.
func (s *bfsScratch) runOrdered(g *graph.Graph, src uint32, maxHops int, reverse bool, sorted bool) (cols []uint32, dists []Dist) {
	s.reset()
	s.grow(g.NumIDs())
	if !g.Alive(src) {
		return nil, nil
	}
	s.dist[src] = 0
	s.touched = append(s.touched, src)
	s.queue = append(s.queue, src)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		du := s.dist[u]
		if maxHops > 0 && int(du) >= maxHops {
			continue
		}
		var next []uint32
		if reverse {
			next = g.In(u)
		} else {
			next = g.Out(u)
		}
		for _, v := range next {
			if s.dist[v] != Inf {
				continue
			}
			s.dist[v] = du + 1
			s.touched = append(s.touched, v)
			s.queue = append(s.queue, v)
		}
	}
	// Produce an ascending-column row. touched is in visit order; sort it
	// unless the caller only needs the set.
	if sorted {
		nodeset.SortIDs(s.touched)
	}
	cols = s.touched
	if cap(s.distRow) < len(cols) {
		s.distRow = make([]Dist, len(cols))
	}
	dists = s.distRow[:len(cols)]
	for i, c := range cols {
		dists[i] = s.dist[c]
	}
	return cols, dists
}

package testkit

import (
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
)

// HopMatrix is the distance reference: all-pairs hop counts by
// Floyd–Warshall over a plain matrix, importing nothing below graph, so
// a bug in shortest, shard or partition cannot hide in it. Dead ids
// reach nothing, not even themselves.
type HopMatrix [][]int

// Unreachable is the hop count of a pair with no path.
const Unreachable = 1 << 30

// NewHopMatrix computes g's hop counts.
func NewHopMatrix(g *graph.Graph) HopMatrix {
	n := g.NumIDs()
	d := make(HopMatrix, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			d[i][j] = Unreachable
		}
		if g.Alive(uint32(i)) {
			d[i][i] = 0
		}
	}
	g.Edges(func(e graph.Edge) { d[e.From][e.To] = 1 })
	for k := range d {
		for i := range d {
			if d[i][k] == Unreachable {
				continue // nothing to relax through k
			}
			for j := range d {
				if via := d[i][k] + d[k][j]; via < d[i][j] {
					d[i][j] = via
				}
			}
		}
	}
	return d
}

// Dist is the hop count from x to y when it is within horizon
// (0 = unbounded), Unreachable otherwise and for ids beyond the matrix.
func (d HopMatrix) Dist(x, y uint32, horizon int) int {
	if int(x) >= len(d) || int(y) >= len(d) || (horizon != 0 && d[x][y] > horizon) {
		return Unreachable
	}
	return d[x][y]
}

// Ball is {v : d(x,v) ≤ k} (reverse: d(v,x) ≤ k) with its distances.
func (d HopMatrix) Ball(x uint32, k, horizon int, reverse bool) map[uint32]int {
	out := map[uint32]int{}
	for v := range d {
		a, b := x, uint32(v)
		if reverse {
			a, b = b, a
		}
		if h := d.Dist(a, b, horizon); h <= k {
			out[uint32(v)] = h
		}
	}
	return out
}

// Simulation is the maximum bounded simulation of p in g, read off its
// definition (Ma et al.; Fan et al.) by greatest-fixpoint deletion:
// every alive pattern node starts with the live data nodes carrying its
// label, and a pair (u,x) is deleted while some out-edge (u,u′) with
// bound b has no y left for u′ with d(x,y) ≤ b. Distances are
// HopMatrix's, so x is within 0 of itself. "*" is any finite path when
// horizon is 0 (exact) and a path within horizon otherwise, which is how
// a capped engine reads it. The result is indexed by pattern node id,
// each image ascending, nil for dead ids; no all-nonempty projection.
func Simulation(g *graph.Graph, p *pattern.Graph, horizon int) [][]uint32 {
	d := NewHopMatrix(g)
	in := make([][]bool, p.NumIDs())
	p.Nodes(func(u pattern.NodeID) {
		in[u] = make([]bool, g.NumIDs())
		g.Nodes(func(x uint32) { in[u][x] = g.HasLabel(x, p.Label(u)) })
	})
	within := func(x, y uint32, b pattern.Bound) bool {
		if !b.IsStar() {
			return d.Dist(x, y, 0) <= int(b)
		}
		return d.Dist(x, y, horizon) != Unreachable
	}
	supported := func(u pattern.NodeID, x uint32) bool {
		ok := true
		p.Out(u, func(v pattern.NodeID, b pattern.Bound) {
			found := false
			for y, live := range in[v] {
				if live && within(x, uint32(y), b) {
					found = true
					break
				}
			}
			ok = ok && found
		})
		return ok
	}
	for changed := true; changed; {
		changed = false
		p.Nodes(func(u pattern.NodeID) {
			for x, live := range in[u] {
				if live && !supported(u, uint32(x)) {
					in[u][x] = false
					changed = true
				}
			}
		})
	}
	out := make([][]uint32, p.NumIDs())
	p.Nodes(func(u pattern.NodeID) {
		out[u] = []uint32{}
		for x, live := range in[u] {
			if live {
				out[u] = append(out[u], uint32(x))
			}
		}
	})
	return out
}

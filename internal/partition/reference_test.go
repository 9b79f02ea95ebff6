package partition

import "uagpnm/internal/graph"

// hopMatrix is the distance reference of this package's suites: all-pairs
// hop counts by Floyd–Warshall over a plain matrix, importing nothing
// below graph — so a bug in shortest, shard or this package cannot hide
// in it. Dead ids reach nothing, not even themselves.
type hopMatrix [][]int

const unreachable = 1 << 30

func newHopMatrix(g *graph.Graph) hopMatrix {
	n := g.NumIDs()
	d := make(hopMatrix, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			d[i][j] = unreachable
		}
		if g.Alive(uint32(i)) {
			d[i][i] = 0
		}
	}
	g.Edges(func(e graph.Edge) { d[e.From][e.To] = 1 })
	for k := range d {
		for i := range d {
			if d[i][k] == unreachable {
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

// dist is the hop count from x to y when it is within horizon
// (0 = unbounded), unreachable otherwise and for ids beyond the matrix.
func (d hopMatrix) dist(x, y uint32, horizon int) int {
	if int(x) >= len(d) || int(y) >= len(d) || (horizon != 0 && d[x][y] > horizon) {
		return unreachable
	}
	return d[x][y]
}

// ball is {v : d(x,v) ≤ k} (reverse: d(v,x) ≤ k) with its distances.
func (d hopMatrix) ball(x uint32, k, horizon int, reverse bool) map[uint32]int {
	out := map[uint32]int{}
	for v := range d {
		a, b := x, uint32(v)
		if reverse {
			a, b = b, a
		}
		if h := d.dist(a, b, horizon); h <= k {
			out[uint32(v)] = h
		}
	}
	return out
}

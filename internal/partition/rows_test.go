package partition

import (
	"math/rand"
	"sync"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// ballMap collects one ball as an (id → distance) map, failing on a
// node visited twice or a distance that decreases along the visit.
func ballMap(t *testing.T, e *Engine, x uint32, k int, reverse bool) map[uint32]shortest.Dist {
	t.Helper()
	ball := e.ForwardBall
	if reverse {
		ball = e.ReverseBall
	}
	out := map[uint32]shortest.Dist{}
	last := shortest.Dist(0)
	ball(x, k, func(v uint32, d shortest.Dist) bool {
		if _, dup := out[v]; dup {
			t.Fatalf("ball(%d, %d, rev=%v) visits %d twice", x, k, reverse, v)
		}
		if d < last {
			t.Fatalf("ball(%d, %d, rev=%v): distance %d after %d", x, k, reverse, d, last)
		}
		out[v], last = d, d
		return true
	})
	return out
}

// rowMap is ballMap for a row that was built but not published.
func rowMap(t *testing.T, r shard.Row) map[uint32]shortest.Dist {
	t.Helper()
	out := map[uint32]shortest.Dist{}
	r.Visit(int(shortest.Inf), func(v uint32, d shortest.Dist) bool {
		if _, dup := out[v]; dup {
			t.Fatalf("row holds %d twice", v)
		}
		out[v] = d
		return true
	})
	if len(out) != r.Len() {
		t.Fatalf("row visit reached %d of %d entries", len(out), r.Len())
	}
	return out
}

// globalBall is the reference: the same ball off the global engine.
func globalBall(ge *shortest.Engine, x uint32, k int, reverse bool) map[uint32]shortest.Dist {
	out := map[uint32]shortest.Dist{}
	visit := func(v uint32, d shortest.Dist) bool { out[v] = d; return true }
	if reverse {
		ge.ReverseBall(x, k, visit)
	} else {
		ge.ForwardBall(x, k, visit)
	}
	return out
}

func sameBall(a, b map[uint32]shortest.Dist) bool {
	if len(a) != len(b) {
		return false
	}
	for id, d := range a {
		if bd, ok := b[id]; !ok || bd != d {
			return false
		}
	}
	return true
}

// TestBallRowLayers pins what the layered row layout promises, on
// in-process, stitched and exact engines alike: a ball visits each node
// once in layers of nondecreasing distance (ballMap), ball(k) is the
// full row filtered to d ≤ k for every k up to the horizon, and both
// equal the global engine's (id, distance) set.
func TestBallRowLayers(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		horizon int
		opts    []Option
	}{
		{"inprocess", 3, nil},
		{"stitched", 3, []Option{WithStitchedQueries()}},
		{"exact", 0, nil},
		{"exact-stitched", 0, []Option{WithStitchedQueries()}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(515))
			g := testkit.Shape{Nodes: 40, Edges: 120, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
			e := NewEngine(g, cfg.horizon, cfg.opts...)
			e.Build()
			ge := shortest.NewEngine(g, cfg.horizon)
			ge.Build()
			g.Nodes(func(x uint32) {
				for _, reverse := range []bool{false, true} {
					full := ballMap(t, e, x, e.capHops(), reverse)
					maxK := cfg.horizon
					for _, d := range full {
						if cfg.horizon == 0 && int(d) >= maxK {
							maxK = int(d) + 1 // one past the farthest layer
						}
					}
					for k := 0; k <= maxK; k++ {
						want := map[uint32]shortest.Dist{}
						for id, d := range full {
							if int(d) <= k {
								want[id] = d
							}
						}
						if got := ballMap(t, e, x, k, reverse); !sameBall(got, want) {
							t.Fatalf("node %d rev=%v: ball(%d) = %v, filtered full row %v", x, reverse, k, got, want)
						}
						if ref := globalBall(ge, x, k, reverse); !sameBall(want, ref) {
							t.Fatalf("node %d rev=%v: ball(%d) = %v, global engine %v", x, reverse, k, want, ref)
						}
					}
				}
			})
		})
	}
}

// TestConcurrentFirstReads takes the first read of the same row and of
// distinct rows from 8 goroutines at once, applies a batch that inserts
// a node (an id beyond the tables the readers just filled) and reads
// again: every ball must be the post-batch one. Run under -race.
func TestConcurrentFirstReads(t *testing.T) {
	rng := rand.New(rand.NewSource(616))
	g := testkit.Shape{Nodes: 50, Edges: 160, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
	e := NewEngine(g, 3)
	e.Build()

	readAll := func(round string) {
		ge := shortest.NewEngine(g, 3)
		ge.Build()
		var live []uint32
		g.Nodes(func(id uint32) { live = append(live, id) })
		want := func(x uint32, reverse bool) map[uint32]shortest.Dist { return globalBall(ge, x, 3, reverse) }
		shared := live[len(live)/2]
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				check := func(x uint32, reverse bool) {
					got := map[uint32]shortest.Dist{}
					visit := func(v uint32, d shortest.Dist) bool { got[v] = d; return true }
					if reverse {
						e.ReverseBall(x, 3, visit)
					} else {
						e.ForwardBall(x, 3, visit)
					}
					if !sameBall(got, want(x, reverse)) {
						t.Errorf("%s: worker %d: ball(%d, rev=%v) = %v, want %v", round, w, x, reverse, got, want(x, reverse))
					}
				}
				check(shared, false) // everyone misses on the same slot
				check(shared, true)
				for i := w; i < len(live); i += 8 { // then on slots of their own
					check(live[i], i%2 == 0)
				}
				for _, x := range live { // and reads what the others published
					check(x, false)
				}
			}(w)
		}
		wg.Wait()
	}

	readAll("before the batch")
	fresh := uint32(g.NumIDs())
	label := g.Labels().Name(g.NodeLabels(0)[0])
	batch := []updates.Update{
		{Kind: updates.DataNodeInsert, Node: fresh, Labels: []string{label}},
		{Kind: updates.DataEdgeInsert, From: fresh, To: 0},
		{Kind: updates.DataEdgeInsert, From: 1, To: fresh},
		{Kind: updates.DataEdgeDelete, From: firstEdge(g).From, To: firstEdge(g).To},
	}
	if _, _, err := e.ApplyDataBatch(batch, g); err != nil {
		t.Fatal(err)
	}
	if !g.Alive(fresh) {
		t.Fatal("the batch did not insert its node")
	}
	readAll("after the batch")
}

func firstEdge(g *graph.Graph) graph.Edge {
	var first graph.Edge
	found := false
	g.Edges(func(e graph.Edge) {
		if !found {
			first, found = e, true
		}
	})
	return first
}

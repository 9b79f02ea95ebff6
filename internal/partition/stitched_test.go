package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// TestStitchedRowsEqualBFSRows pins the equivalence the row cache relies
// on: a ball row assembled through the §V structures (intra + overlay)
// must match the row a bounded BFS reads off the graph, entry for entry.
func TestStitchedRowsEqualBFSRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 5; trial++ {
		g := testkit.Shape{Nodes: 35, Edges: 110, Labels: 4, Homophily: 0.75}.Graph(rng.Int63())
		bfsEng := NewEngine(g, 3)
		bfsEng.Build()
		stitchEng := NewEngine(g, 3, WithStitchedQueries())
		stitchEng.Build()
		g.Nodes(func(x uint32) {
			for _, reverse := range []bool{false, true} {
				a := rowMap(t, bfsEng.sub.buildRow(x, bfsEng.capHops(), reverse).Row)
				b := rowMap(t, stitchEng.sub.buildRow(x, stitchEng.capHops(), reverse).Row)
				if len(a) != len(b) {
					t.Fatalf("trial %d node %d rev=%v: row lengths %d vs %d",
						trial, x, reverse, len(a), len(b))
				}
				for id, d := range a {
					if bd, ok := b[id]; !ok || bd != d {
						t.Fatalf("trial %d node %d rev=%v: id %d: BFS %d, stitched %d (present %v)",
							trial, x, reverse, id, d, bd, ok)
					}
				}
			}
		})
	}
}

// TestStitchedEngineEndToEnd runs the incremental differential test with
// stitched queries forced on, so the §V path is exercised under updates.
func TestStitchedEngineEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := testkit.Shape{Nodes: 25, Edges: 70, Labels: 3, Homophily: 0.85}.Graph(rng.Int63())
	pe := NewEngine(g, 3, WithStitchedQueries())
	pe.Build()
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	for step := 0; step < 30; step++ {
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]
		insertEdge(t, pe, g, u, v) // a no-op when the edge exists
		if out := g.Out(u); len(out) > 0 && step%3 == 0 {
			deleteEdge(t, pe, g, u, out[rng.Intn(len(out))])
		}
	}
	assertOracleAgrees(t, pe, g, 3, -5)
}

// TestRowCacheInvalidation ensures a stale cached row never survives a
// mutation, on either shape.
func TestRowCacheInvalidation(t *testing.T) {
	for _, cfg := range shapes() {
		g, ids := fig4Graph()
		e := NewEngine(g, 0, cfg.opts...)
		e.Build()
		// Warm the cache.
		seen := 0
		e.ForwardBall(ids["SE1"], 4, func(uint32, shortest.Dist) bool { seen++; return true })
		if seen == 0 {
			t.Fatalf("%s: warmup ball empty", cfg.name)
		}
		// Mutate: drop the shortcut through PM1.
		deleteEdge(t, e, g, ids["PM1"], ids["SE4"])
		// d(SE1,SE4) must now be 3 both via Dist and via the (fresh) ball.
		if got := e.Dist(ids["SE1"], ids["SE4"]); got != 3 {
			t.Fatalf("%s: Dist after delete = %v, want 3", cfg.name, got)
		}
		found := shortest.Inf
		e.ForwardBall(ids["SE1"], 4, func(v uint32, d shortest.Dist) bool {
			if v == ids["SE4"] {
				found = d
			}
			return true
		})
		if found != 3 {
			t.Fatalf("%s: cached ball served stale distance %v, want 3", cfg.name, found)
		}
	}
}

// TestBatchApplyMatchesSingleOps: one batch and the same updates as
// one-update batches must leave identical oracle state — and, on the §V
// shape, the same overlay a build from scratch has.
func TestBatchApplyMatchesSingleOps(t *testing.T) {
	for _, cfg := range shapes() {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 6; trial++ {
			g := testkit.Shape{Nodes: 30, Edges: 90, Labels: 3, Homophily: 0.8}.Graph(rng.Int63())
			e := NewEngine(g, 3, cfg.opts...)
			e.Build()
			g2 := g.Clone()
			e2 := e.CloneFor(g2).(*Engine)

			// One batch: some inserts, some deletes, a node insert + delete.
			var live []uint32
			g.Nodes(func(id uint32) { live = append(live, id) })
			newID := uint32(g.NumIDs())
			victim := live[rng.Intn(len(live))]
			batch := makeBatch(rng, g, live, newID, victim)

			// Path A: the whole batch at once.
			if _, err := e.ApplyData(batch, g); err != nil {
				t.Fatal(err)
			}
			// Path B: one-update batches on the clone.
			applySingles(t, batch, g2, e2)

			if e.sv() != nil {
				assertSectionVCurrent(t, e, g, cfg.name+" batch")
				assertSectionVCurrent(t, e2, g2, cfg.name+" singles")
			}
			assertEnginesAgree(t, e, e2, g, fmt.Sprintf("%s trial %d: singles vs batch", cfg.name, trial))
		}
	}
}

// TestRemoteForkServesByBFS: the clone of a remote engine is a ball
// plane — the workers hold the §V state and cannot be cloned — and must
// still answer exactly what the parent's fleet answers: rows and Dist,
// before and after a batch on each side drives the two apart.
func TestRemoteForkServesByBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	g := testkit.Shape{Nodes: 40, Edges: 130, Labels: 4, Homophily: 0.75}.Graph(rng.Int63())
	e := NewEngine(g, 3, WithShards(httptestFleet(t, 2)...), WithMetrics(obs.NewRegistry()))
	e.Build()
	g2 := g.Clone()
	c := e.CloneFor(g2).(*Engine)
	if c.sv() != nil || c.Partitioning() != nil || c.Remote() || c.metrics != e.metrics {
		t.Fatal("the fork of a remote engine holds §V state, or not its parent's registry")
	}
	g.Nodes(func(x uint32) {
		for _, reverse := range []bool{false, true} {
			if a, b := rowMap(t, e.sub.buildRow(x, e.capHops(), reverse).Row), rowMap(t, c.sub.buildRow(x, c.capHops(), reverse).Row); !sameBall(a, b) {
				t.Fatalf("row(%d, rev=%v): fleet %v, fork %v", x, reverse, a, b)
			}
		}
	})
	assertEnginesAgree(t, e, c, g, "fork vs fleet")

	p := pattern.New(g.Labels())
	for i, side := range []struct {
		e *Engine
		g *graph.Graph
	}{{e, g}, {c, g2}} {
		b := updates.Generate(updates.Balanced(int64(900+i), 0, 8), side.g, p)
		if _, err := side.e.ApplyData(b.D, side.g); err != nil {
			t.Fatal(err)
		}
	}
	assertIntraExact(t, e, g, "fleet after its batch")
	assertIntraExact(t, c, g2, "fork after its batch")
}

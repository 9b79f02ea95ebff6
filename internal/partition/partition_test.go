package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/datasets"
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// fig4Graph reconstructs the paper's Fig. 4 example: three label
// partitions PTE = {TE1,TE2,TE3}, PSE = {SE1..SE4}, PPM = {PM1}, with
// chains inside the partitions and cross edges SE2→TE1, SE1→PM1, PM1→SE4
// (the edge set implied by Examples 12–15 and Tables VIII–IX).
func fig4Graph() (*graph.Graph, map[string]uint32) {
	g := graph.New(nil)
	ids := map[string]uint32{}
	add := func(name, label string) {
		ids[name] = g.AddNode(label)
	}
	add("TE1", "TE")
	add("TE2", "TE")
	add("TE3", "TE")
	add("SE1", "SE")
	add("SE2", "SE")
	add("SE3", "SE")
	add("SE4", "SE")
	add("PM1", "PM")
	for _, e := range [][2]string{
		{"TE1", "TE2"}, {"TE2", "TE3"},
		{"SE1", "SE2"}, {"SE2", "SE3"}, {"SE3", "SE4"},
		{"SE2", "TE1"}, {"SE1", "PM1"}, {"PM1", "SE4"},
	} {
		if !g.AddEdge(ids[e[0]], ids[e[1]]) {
			panic("fig4: bad edge")
		}
	}
	return g, ids
}

func TestPaperExample12And13BridgeNodes(t *testing.T) {
	g, ids := fig4Graph()
	e := NewEngine(g, 0, WithStitchedQueries())
	e.Build()
	se, _ := g.Labels().Lookup("SE")
	ib := e.Partitioning().InnerBridgeNodes(se)
	wantIB := nodeset.New(ids["SE1"], ids["SE2"])
	if !nodeset.New(ib...).Equal(wantIB) {
		t.Errorf("IB(PSE) = %v, want %v", ib, wantIB)
	}
	ob := e.Partitioning().OuterBridgeNodes(se)
	wantOB := nodeset.New(ids["PM1"], ids["TE1"])
	if !nodeset.New(ob...).Equal(wantOB) {
		t.Errorf("OB(PSE) = %v, want %v", ob, wantOB)
	}
	te, _ := g.Labels().Lookup("TE")
	if got := e.Partitioning().OuterBridgeNodes(te); len(got) != 0 {
		t.Errorf("OB(PTE) = %v, want empty", got)
	}
}

// TestPaperTableVIII checks the shortest path matrix among the SE nodes
// (paper Table VIII). d(SE1,SE4) = 2 is the interesting entry: the path
// leaves PSE through PM1 and returns — the case the bridge overlay must
// stitch.
func TestPaperTableVIII(t *testing.T) {
	g, ids := fig4Graph()
	e := NewEngine(g, 0, WithStitchedQueries())
	e.Build()
	want := map[[2]string]int{
		{"SE1", "SE2"}: 1, {"SE1", "SE3"}: 2, {"SE1", "SE4"}: 2,
		{"SE2", "SE3"}: 1, {"SE2", "SE4"}: 2,
		{"SE3", "SE4"}: 1,
	}
	names := []string{"SE1", "SE2", "SE3", "SE4"}
	for _, a := range names {
		for _, b := range names {
			wantD := shortest.Inf
			if a == b {
				wantD = 0
			} else if d, ok := want[[2]string{a, b}]; ok {
				wantD = shortest.Dist(d)
			}
			if got := e.Dist(ids[a], ids[b]); got != wantD {
				t.Errorf("Table VIII d(%s,%s) = %v, want %v", a, b, got, wantD)
			}
		}
	}
}

// TestPaperTableIX checks the cross-partition matrix PSE → PTE
// (paper Table IX, Example 15).
func TestPaperTableIX(t *testing.T) {
	g, ids := fig4Graph()
	e := NewEngine(g, 0, WithStitchedQueries())
	e.Build()
	want := map[[2]string]int{
		{"SE1", "TE1"}: 2, {"SE1", "TE2"}: 3, {"SE1", "TE3"}: 4,
		{"SE2", "TE1"}: 1, {"SE2", "TE2"}: 2, {"SE2", "TE3"}: 3,
	}
	for _, a := range []string{"SE1", "SE2", "SE3", "SE4"} {
		for _, b := range []string{"TE1", "TE2", "TE3"} {
			wantD := shortest.Inf
			if d, ok := want[[2]string{a, b}]; ok {
				wantD = shortest.Dist(d)
			}
			if got := e.Dist(ids[a], ids[b]); got != wantD {
				t.Errorf("Table IX d(%s,%s) = %v, want %v", a, b, got, wantD)
			}
		}
	}
}

// assertOracleAgrees compares the partition engine against the global
// engine on every pair and on ball queries.
func assertOracleAgrees(t *testing.T, pe *Engine, g *graph.Graph, horizon int, step int) {
	t.Helper()
	ge := shortest.NewEngine(g, horizon)
	ge.Build()
	n := g.NumIDs()
	for u := uint32(0); int(u) < n; u++ {
		for v := uint32(0); int(v) < n; v++ {
			if got, want := pe.Dist(u, v), ge.Dist(u, v); got != want {
				t.Fatalf("step %d: d(%d,%d) = %v, want %v", step, u, v, got, want)
			}
		}
	}
	k := horizon
	if k == 0 {
		k = 4
	}
	for u := uint32(0); int(u) < n; u++ {
		var pb, gb []uint32
		pe.ForwardBall(u, k, func(v uint32, d shortest.Dist) bool {
			pb = append(pb, v)
			if want := ge.Dist(u, v); want != d {
				t.Fatalf("step %d: fwd ball d(%d,%d) = %v, want %v", step, u, v, d, want)
			}
			return true
		})
		ge.ForwardBall(u, k, func(v uint32, d shortest.Dist) bool { gb = append(gb, v); return true })
		if !nodeset.New(pb...).Equal(nodeset.New(gb...)) {
			t.Fatalf("step %d: fwd ball(%d) %v != %v", step, u, pb, gb)
		}
		pb, gb = nil, nil
		pe.ReverseBall(u, k, func(v uint32, d shortest.Dist) bool { pb = append(pb, v); return true })
		ge.ReverseBall(u, k, func(v uint32, d shortest.Dist) bool { gb = append(gb, v); return true })
		if !nodeset.New(pb...).Equal(nodeset.New(gb...)) {
			t.Fatalf("step %d: rev ball(%d) %v != %v", step, u, pb, gb)
		}
	}
}

func TestStitchedDistanceMatchesGlobal(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		horizon int
		h       float64
	}{
		{"exact-homophilous", 0, 0.9},
		{"capped3-homophilous", 3, 0.9},
		{"capped3-mixed", 3, 0.5},
		{"capped2-hostile", 2, 0.1},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 3; trial++ {
				g := testkit.Shape{Nodes: 40, Edges: 120, Labels: 4, Homophily: cfg.h}.Graph(rng.Int63())
				pe := NewEngine(g, cfg.horizon, WithStitchedQueries())
				pe.Build()
				assertOracleAgrees(t, pe, g, cfg.horizon, -trial)
			}
		})
	}
}

// TestIncrementalMatchesGlobal drives a random update stream through the
// engine, on both shapes, and checks it against a freshly built global
// engine at every checkpoint — the package's central differential test.
func TestIncrementalMatchesGlobal(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		horizon int
	}{
		{"exact", 0},
		{"capped3", 3},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, shape := range shapes() {
				rng := rand.New(rand.NewSource(21))
				g := testkit.Shape{Nodes: 30, Edges: 80, Labels: 3, Homophily: 0.8}.Graph(rng.Int63())
				pe := NewEngine(g, cfg.horizon, shape.opts...)
				pe.Build()
				var live []uint32
				reap := func() {
					live = live[:0]
					g.Nodes(func(id uint32) { live = append(live, id) })
				}
				reap()
				labels := []string{datasets.LabelName(0), datasets.LabelName(1), datasets.LabelName(2), "Z"} // Z exercises new-partition creation
				for step := 0; step < 80; step++ {
					switch op := rng.Intn(10); {
					case op < 4:
						u := live[rng.Intn(len(live))]
						v := live[rng.Intn(len(live))]
						insertEdge(t, pe, g, u, v)
					case op < 7:
						u := live[rng.Intn(len(live))]
						out := g.Out(u)
						if len(out) > 0 {
							deleteEdge(t, pe, g, u, out[rng.Intn(len(out))])
						}
					case op < 8:
						id := insertNode(t, pe, g, labels[rng.Intn(len(labels))])
						reap()
						for k := 0; k < 2; k++ {
							insertEdge(t, pe, g, id, live[rng.Intn(len(live))])
							insertEdge(t, pe, g, live[rng.Intn(len(live))], id)
						}
					case op < 9 && len(live) > 5:
						deleteNode(t, pe, g, live[rng.Intn(len(live))])
						reap()
					}
					if step%10 == 9 {
						assertOracleAgrees(t, pe, g, cfg.horizon, step)
					}
				}
				assertOracleAgrees(t, pe, g, cfg.horizon, -1)
			}
		})
	}
}

// TestAffectedSupersets checks that the partition engine's conservative
// affected sets (AffectedSets) cover the global engine's exact ones
// (ApplyDataAffected) — the property the amendment seeding relies on.
func TestAffectedSupersets(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		g := testkit.Shape{Nodes: 25, Edges: 60, Labels: 3, Homophily: 0.7}.Graph(rng.Int63())
		pe := NewEngine(g, 3)
		pe.Build()
		ge := shortest.NewEngine(g, 3)
		ge.Build()
		// Each update in isolation: applied to a clone of the graph and of
		// both engines, the exact set read off the global engine's
		// application, the conservative one off the two graph states.
		check := func(u updates.Update) {
			gg, pg := g.Clone(), g.Clone()
			per, _ := ge.Clone(gg).ApplyDataAffected([]updates.Update{u}, gg)
			exact := per[0]
			applyOne(t, pe.CloneFor(pg).(*Engine), pg, u)
			super := AffectedSets([]updates.Update{u}, g, pg, pe.Horizon())[0]
			if !super.Covers(exact) {
				t.Fatalf("%v: %v does not cover %v", u, super, exact)
			}
		}
		var live []uint32
		g.Nodes(func(id uint32) { live = append(live, id) })
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]
		if u != v {
			check(updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v})
		}
		if out := g.Out(u); len(out) > 0 {
			check(updates.Update{Kind: updates.DataEdgeDelete, From: u, To: out[rng.Intn(len(out))]})
		}
		check(updates.Update{Kind: updates.DataNodeDelete, Node: u})
	}
}

func TestDeleteBridgeNode(t *testing.T) {
	g, ids := fig4Graph()
	e := NewEngine(g, 0, WithStitchedQueries())
	e.Build()
	// Deleting PM1 removes the leave-and-return shortcut: d(SE1,SE4)
	// falls back to the intra chain of length 3.
	deleteNode(t, e, g, ids["PM1"])
	if got := e.Dist(ids["SE1"], ids["SE4"]); got != 3 {
		t.Fatalf("d(SE1,SE4) after deleting PM1 = %v, want 3", got)
	}
	if e.Dist(ids["SE1"], ids["PM1"]) != shortest.Inf {
		t.Fatal("distances to the deleted node must be Inf")
	}
	assertOracleAgrees(t, e, g, 0, -9)
}

func TestCloneForIndependence(t *testing.T) {
	for _, cfg := range shapes() {
		g, ids := fig4Graph()
		e := NewEngine(g, 0, cfg.opts...)
		e.Build()
		g2 := g.Clone()
		e2 := e.CloneFor(g2).(*Engine)
		deleteEdge(t, e2, g2, ids["PM1"], ids["SE4"])
		if got := e2.Dist(ids["SE1"], ids["SE4"]); got != 3 {
			t.Fatalf("%s: clone d(SE1,SE4) = %v, want 3", cfg.name, got)
		}
		if got := e.Dist(ids["SE1"], ids["SE4"]); got != 2 {
			t.Fatalf("%s: original d(SE1,SE4) = %v, want 2 (clone mutation leaked)", cfg.name, got)
		}
	}
}

// TestCloneForCarriesRows: a fork starts with every row its parent held
// — its first read of each builds nothing — and stays independent of the
// parent afterwards: after a batch on either side, each engine's rows
// match its own graph's reference. Edge-only batches keep the id space,
// so no table grows and a fork that shared its parent's slots instead of
// copying them would serve the other side's rows.
func TestCloneForCarriesRows(t *testing.T) {
	for _, setup := range rowShapes {
		t.Run(setup.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3100))
			g := testkit.Shape{Nodes: 40, Edges: 120, Labels: 4, Homophily: 0.75}.Graph(rng.Int63())
			reg := obs.NewRegistry()
			e := NewEngine(g, 3, append(setup.opts(t), WithMetrics(reg))...)
			e.Build()
			t.Cleanup(func() { _ = e.Close() })
			assertMatchesReference(t, e, g, 3, "parent")
			held := rowsBuilt(reg)

			g2 := g.Clone()
			c := e.CloneFor(g2).(*Engine)
			assertMatchesReference(t, c, g2, 3, "fork before its batch")
			if got := rowsBuilt(reg); got != held {
				t.Fatalf("the fork built %d rows its parent held", got-held)
			}

			// Each side toggles its own edges: the other side must keep
			// serving its own graph.
			for i, side := range []struct {
				e *Engine
				g *graph.Graph
			}{{c, g2}, {e, g}} {
				if _, err := side.e.ApplyData(toggleBatches(rng, side.g, 1)[0], side.g); err != nil {
					t.Fatal(err)
				}
				assertMatchesReference(t, c, g2, 3, fmt.Sprintf("fork after batch %d", i))
				assertMatchesReference(t, e, g, 3, fmt.Sprintf("parent after batch %d", i))
			}
		})
	}
}

func TestEnsureHorizonPartition(t *testing.T) {
	for _, cfg := range shapes() {
		g, ids := fig4Graph()
		e := NewEngine(g, 2, cfg.opts...)
		e.Build()
		if e.Dist(ids["SE1"], ids["TE3"]) != shortest.Inf {
			t.Fatalf("%s: d(SE1,TE3)=4 must be beyond horizon 2", cfg.name)
		}
		e.EnsureHorizon(4)
		if got := e.Dist(ids["SE1"], ids["TE3"]); got != 4 {
			t.Fatalf("%s: after widen, d(SE1,TE3) = %v, want 4", cfg.name, got)
		}
	}
}

func BenchmarkPartitionInsertDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := testkit.Shape{Nodes: 1000, Edges: 5000, Labels: 10, Homophily: 0.9}.Graph(rng.Int63())
	e := NewEngine(g, 3, WithStitchedQueries())
	e.Build()
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]
		if insertEdge(b, e, g, u, v) != nil {
			deleteEdge(b, e, g, u, v)
		}
	}
}

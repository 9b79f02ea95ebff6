package shortest

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/testkit"
)

// paperGraph builds the data graph of the paper's Fig. 1(a)/Fig. 2(a),
// reconstructed from its SLen matrix (Table III): edges are exactly the
// pairs at distance 1. Node order matches the table:
// PM1 PM2 SE1 SE2 S1 TE1 TE2 DB1 → ids 0..7.
func paperGraph() (*graph.Graph, map[string]uint32) {
	g := graph.New(nil)
	names := []string{"PM1", "PM2", "SE1", "SE2", "S1", "TE1", "TE2", "DB1"}
	labels := []string{"PM", "PM", "SE", "SE", "S", "TE", "TE", "DB"}
	ids := make(map[string]uint32, len(names))
	for i, n := range names {
		ids[n] = g.AddNode(labels[i])
	}
	edges := [][2]string{
		{"PM1", "SE2"}, {"PM1", "DB1"},
		{"PM2", "SE1"},
		{"SE1", "PM2"}, {"SE1", "SE2"}, {"SE1", "S1"},
		{"SE2", "TE1"}, {"SE2", "DB1"},
		{"S1", "DB1"},
		{"TE1", "SE2"},
		{"TE2", "S1"},
		{"DB1", "SE1"},
	}
	for _, e := range edges {
		if !g.AddEdge(ids[e[0]], ids[e[1]]) {
			panic("paperGraph: bad edge " + e[0] + "->" + e[1])
		}
	}
	return g, ids
}

const inf = -1 // ∞ in the golden tables below

// tableIII is SLen of the paper's Table III, row/col order
// PM1 PM2 SE1 SE2 S1 TE1 TE2 DB1.
var tableIII = [8][8]int{
	{0, 3, 2, 1, 3, 2, inf, 1},
	{inf, 0, 1, 2, 2, 3, inf, 3},
	{inf, 1, 0, 1, 1, 2, inf, 2},
	{inf, 3, 2, 0, 3, 1, inf, 1},
	{inf, 3, 2, 3, 0, 4, inf, 1},
	{inf, 4, 3, 1, 4, 0, inf, 2},
	{inf, 4, 3, 4, 1, 5, 0, 2},
	{inf, 2, 1, 2, 2, 3, inf, 0},
}

// tableV is SLen after UD1 = insert e(SE1, TE2) (paper Table V).
var tableV = [8][8]int{
	{0, 3, 2, 1, 3, 2, 3, 1},
	{inf, 0, 1, 2, 2, 3, 2, 3},
	{inf, 1, 0, 1, 1, 2, 1, 2},
	{inf, 3, 2, 0, 3, 1, 3, 1},
	{inf, 3, 2, 3, 0, 4, 3, 1},
	{inf, 4, 3, 1, 4, 0, 4, 2},
	{inf, 4, 3, 4, 1, 5, 0, 2},
	{inf, 2, 1, 2, 2, 3, 2, 0},
}

// tableVI is SLen after UD2 = insert e(DB1, S1) on the original graph
// (paper Table VI).
var tableVI = [8][8]int{
	{0, 3, 2, 1, 2, 2, inf, 1},
	{inf, 0, 1, 2, 2, 3, inf, 3},
	{inf, 1, 0, 1, 1, 2, inf, 2},
	{inf, 3, 2, 0, 2, 1, inf, 1},
	{inf, 3, 2, 3, 0, 4, inf, 1},
	{inf, 4, 3, 1, 3, 0, inf, 2},
	{inf, 4, 3, 4, 1, 5, 0, 2},
	{inf, 2, 1, 2, 1, 3, inf, 0},
}

func checkAgainstTable(t *testing.T, e *Engine, want [8][8]int, what string) {
	t.Helper()
	for r := uint32(0); r < 8; r++ {
		for c := uint32(0); c < 8; c++ {
			wantD := Inf
			if want[r][c] != inf {
				wantD = Dist(want[r][c])
			}
			if got := e.Dist(r, c); got != wantD {
				t.Errorf("%s: d(%d,%d) = %v, want %v", what, r, c, got, wantD)
			}
		}
	}
}

func TestPaperTableIII(t *testing.T) {
	g, _ := paperGraph()
	e := NewEngine(g, 0)
	e.Build()
	checkAgainstTable(t, e, tableIII, "Table III")
}

func TestPaperTableVAndAffected(t *testing.T) {
	g, ids := paperGraph()
	e := NewEngine(g, 0)
	e.Build()
	g.AddEdge(ids["SE1"], ids["TE2"])
	aff := e.InsertEdge(ids["SE1"], ids["TE2"])
	checkAgainstTable(t, e, tableV, "Table V")
	// Paper Table VII: Aff_N(UD1) = all eight nodes.
	if want := nodeset.New(0, 1, 2, 3, 4, 5, 6, 7); !aff.Equal(want) {
		t.Errorf("Aff_N(UD1) = %v, want %v", aff, want)
	}
}

func TestPaperTableVIAndAffected(t *testing.T) {
	g, ids := paperGraph()
	e := NewEngine(g, 0)
	e.Build()
	g.AddEdge(ids["DB1"], ids["S1"])
	aff := e.InsertEdge(ids["DB1"], ids["S1"])
	checkAgainstTable(t, e, tableVI, "Table VI")
	// Paper Table VII: Aff_N(UD2) = {PM1, SE2, S1, TE1, DB1}.
	want := nodeset.New(ids["PM1"], ids["SE2"], ids["S1"], ids["TE1"], ids["DB1"])
	if !aff.Equal(want) {
		t.Errorf("Aff_N(UD2) = %v, want %v", aff, want)
	}
}

func TestDeleteUndoesInsert(t *testing.T) {
	g, ids := paperGraph()
	e := NewEngine(g, 0)
	e.Build()
	g.AddEdge(ids["SE1"], ids["TE2"])
	inserted := e.InsertEdge(ids["SE1"], ids["TE2"])
	g.RemoveEdge(ids["SE1"], ids["TE2"])
	aff := e.DeleteEdge(ids["SE1"], ids["TE2"])
	checkAgainstTable(t, e, tableIII, "after delete of inserted edge")
	if !inserted.Equal(aff) {
		t.Errorf("Aff_N of the delete = %v, of the insert it undoes = %v", aff, inserted)
	}
}

func TestWithinHopsAndBalls(t *testing.T) {
	g, ids := paperGraph()
	e := NewEngine(g, 0)
	e.Build()
	if !e.WithinHops(ids["PM1"], ids["TE1"], 2) {
		t.Error("PM1 should reach TE1 within 2")
	}
	if e.WithinHops(ids["PM1"], ids["TE1"], 1) {
		t.Error("PM1 should not reach TE1 within 1")
	}
	if e.Reachable(ids["PM1"], ids["TE2"]) {
		t.Error("TE2 unreachable from PM1 in the original graph")
	}
	var ball []uint32
	e.ForwardBall(ids["PM1"], 1, func(v uint32, d Dist) bool {
		ball = append(ball, v)
		return true
	})
	want := nodeset.New(ids["PM1"], ids["SE2"], ids["DB1"])
	if !nodeset.New(ball...).Equal(want) {
		t.Errorf("ForwardBall(PM1,1) = %v, want %v", ball, want)
	}
	var rball []uint32
	e.ReverseBall(ids["SE2"], 1, func(v uint32, d Dist) bool {
		rball = append(rball, v)
		return true
	})
	wantR := nodeset.New(ids["SE2"], ids["PM1"], ids["SE1"], ids["TE1"])
	if !nodeset.New(rball...).Equal(wantR) {
		t.Errorf("ReverseBall(SE2,1) = %v, want %v", rball, wantR)
	}
}

func TestCappedEngineAgreesWithinHorizon(t *testing.T) {
	g, _ := paperGraph()
	exact := NewEngine(g, 0)
	exact.Build()
	for _, h := range []int{1, 2, 3, 4} {
		capped := NewEngine(g, h)
		capped.Build()
		for u := uint32(0); u < 8; u++ {
			for v := uint32(0); v < 8; v++ {
				want := exact.Dist(u, v)
				if want != Inf && int(want) > h {
					want = Inf
				}
				if got := capped.Dist(u, v); got != want {
					t.Fatalf("h=%d d(%d,%d) = %v, want %v", h, u, v, got, want)
				}
			}
		}
	}
}

func TestWithinHopsPanicsBeyondHorizon(t *testing.T) {
	g, _ := paperGraph()
	e := NewEngine(g, 2)
	e.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for bound beyond horizon")
		}
	}()
	e.WithinHops(0, 1, 3)
}

func TestEnsureHorizon(t *testing.T) {
	g, _ := paperGraph()
	e := NewEngine(g, 2)
	e.Build()
	e.EnsureHorizon(4)
	if e.Horizon() != 4 {
		t.Fatalf("horizon = %d, want 4", e.Horizon())
	}
	if !e.WithinHops(0, 5, 2) { // PM1→TE1 = 2, still exact
		t.Fatal("distances lost on horizon widen")
	}
	if e.Dist(4, 5) != 4 { // S1→TE1 = 4, newly visible
		t.Fatalf("d(S1,TE1) = %v, want 4", e.Dist(4, 5))
	}
	e.EnsureHorizon(3) // narrowing is a no-op
	if e.Horizon() != 4 {
		t.Fatal("EnsureHorizon must never narrow")
	}
}

// assertEnginesEqual compares every pair's distance between the
// incrementally maintained engine and a freshly built one, in both
// directions (validating the mirror matrix too).
func assertEnginesEqual(t *testing.T, inc *Engine, g *graph.Graph, horizon int, step int) {
	t.Helper()
	fresh := NewEngine(g, horizon)
	fresh.Build()
	n := g.NumIDs()
	for u := uint32(0); int(u) < n; u++ {
		for v := uint32(0); int(v) < n; v++ {
			if got, want := inc.Dist(u, v), fresh.Dist(u, v); got != want {
				t.Fatalf("step %d: d(%d,%d) = %v, want %v", step, u, v, got, want)
			}
			if got, want := inc.rev.Get(u, v), fresh.rev.Get(u, v); got != want {
				t.Fatalf("step %d: rev(%d,%d) = %v, want %v", step, u, v, got, want)
			}
		}
	}
}

// TestIncrementalMatchesScratch is the package's central differential
// test: a random stream of edge/node insertions and deletions maintained
// incrementally must equal a from-scratch rebuild at every checkpoint,
// at the exact horizon (Dense) and two capped ones (Hybrid). Each case is
// named after the backend its horizon picks; a capped case must spill
// rows into the ELL overflow, so both halves of Hybrid are maintained.
func TestIncrementalMatchesScratch(t *testing.T) {
	configs := []struct {
		name    string
		horizon int
	}{
		{"exact-dense", 0},
		{"capped3-hybrid", 3},
		{"capped2-hybrid", 2},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			g := testkit.Shape{Nodes: 30, Edges: 70, Labels: 4}.Graph(99)
			e := NewEngine(g, cfg.horizon)
			e.Build()
			if h, ok := e.fwd.(*Hybrid); ok && h.OverflowEntries() == 0 {
				t.Fatalf("horizon %d: no row spills past the ELL width %d", cfg.horizon, ellWidth)
			}
			var live []uint32
			reap := func() {
				live = live[:0]
				g.Nodes(func(id uint32) { live = append(live, id) })
			}
			reap()
			for step := 0; step < 120; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // insert edge
					u := live[rng.Intn(len(live))]
					v := live[rng.Intn(len(live))]
					if g.AddEdge(u, v) {
						e.InsertEdge(u, v)
					}
				case op < 7: // delete edge
					u := live[rng.Intn(len(live))]
					out := g.Out(u)
					if len(out) > 0 {
						v := out[rng.Intn(len(out))]
						g.RemoveEdge(u, v)
						e.DeleteEdge(u, v)
					}
				case op < 8: // insert node (+ a couple of edges)
					id := g.AddNode("A")
					e.InsertNode(id)
					reap()
					for k := 0; k < 2; k++ {
						v := live[rng.Intn(len(live))]
						if g.AddEdge(id, v) {
							e.InsertEdge(id, v)
						}
						w := live[rng.Intn(len(live))]
						if g.AddEdge(w, id) {
							e.InsertEdge(w, id)
						}
					}
				case op < 9 && len(live) > 5: // delete node
					id := live[rng.Intn(len(live))]
					removed, _ := g.RemoveNode(id)
					e.DeleteNode(id, removed)
					reap()
				default: // no-op step to vary the schedule
				}
				if step%15 == 14 {
					assertEnginesEqual(t, e, g, cfg.horizon, step)
				}
			}
			assertEnginesEqual(t, e, g, cfg.horizon, -1)
		})
	}
}

// TestBackendFollowsHorizon pins that the horizon alone picks an
// engine's matrices, whatever the graph's size: Dense in exact mode and
// Hybrid at every cap, at 40 ids and at 3 000. The choice lasts the
// engine's life: a clone keeps it, and so does a capped engine widened
// by EnsureHorizon.
func TestBackendFollowsHorizon(t *testing.T) {
	backend := func(e *Engine) string { return fmt.Sprintf("%T %T", e.fwd, e.rev) }
	for _, n := range []int{40, 3000} {
		g := testkit.Shape{Nodes: n, Edges: n, Labels: 2}.Graph(int64(n))
		for horizon := 0; horizon <= 3; horizon++ {
			want := "*shortest.Hybrid *shortest.Hybrid"
			if horizon == 0 {
				want = "*shortest.Dense *shortest.Dense"
			}
			e := NewEngine(g, horizon)
			e.Build()
			if got := backend(e); got != want {
				t.Fatalf("%d ids, horizon %d: backend %s, want %s", n, horizon, got, want)
			}
			if got := backend(e.Clone(g.Clone())); got != want {
				t.Fatalf("%d ids, horizon %d: a clone's backend is %s, want %s", n, horizon, got, want)
			}
			e.EnsureHorizon(horizon + 1)
			if got := backend(e); got != want {
				t.Fatalf("%d ids, horizon %d: widened to %d, backend %s, want %s", n, horizon, e.Horizon(), got, want)
			}
		}
	}
}

func TestInsertNodeThenEdges(t *testing.T) {
	g, ids := paperGraph()
	e := NewEngine(g, 0)
	e.Build()
	id := g.AddNode("QA")
	e.InsertNode(id)
	if e.Dist(id, id) != 0 {
		t.Fatal("fresh node must be at distance 0 from itself")
	}
	g.AddEdge(ids["PM1"], id)
	e.InsertEdge(ids["PM1"], id)
	g.AddEdge(id, ids["TE2"])
	e.InsertEdge(id, ids["TE2"])
	if e.Dist(ids["PM1"], id) != 1 || e.Dist(ids["PM1"], ids["TE2"]) != 2 {
		t.Fatalf("paths through new node wrong: %v, %v",
			e.Dist(ids["PM1"], id), e.Dist(ids["PM1"], ids["TE2"]))
	}
	assertEnginesEqual(t, e, g, 0, -2)
}

func TestCloneIndependence(t *testing.T) {
	g, ids := paperGraph()
	e := NewEngine(g, 0)
	e.Build()
	g2 := g.Clone()
	e2 := e.Clone(g2)
	g2.AddEdge(ids["SE1"], ids["TE2"])
	e2.InsertEdge(ids["SE1"], ids["TE2"])
	checkAgainstTable(t, e, tableIII, "original after clone mutation")
	checkAgainstTable(t, e2, tableV, "clone after mutation")
}

func BenchmarkInsertEdgeCapped(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := testkit.Shape{Nodes: 2000, Edges: 8000, Labels: 4}.Graph(2)
	e := NewEngine(g, 3)
	e.Build()
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]
		if g.AddEdge(u, v) {
			e.InsertEdge(u, v)
			g.RemoveEdge(u, v)
			e.DeleteEdge(u, v)
		}
	}
}

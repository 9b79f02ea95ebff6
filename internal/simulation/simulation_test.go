package simulation

import (
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/paperex"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// TestPaperTableI reproduces the node matching results of Example 1
// (paper Table I, with Example 5's correction that both PMs match: PM2
// satisfies PM→SE(3) via SE1 at distance 1 and PM→S(4) via S1 at 2).
func TestPaperTableI(t *testing.T) {
	g, ids := paperex.DataGraph()
	p, pids := paperex.PatternFig1(g.Labels())
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := Run(p, g, e)
	if !m.Total() {
		t.Fatal("the paper's example must be a total match")
	}
	want := map[string]nodeset.Set{
		"PM": nodeset.New(ids["PM1"], ids["PM2"]),
		"SE": nodeset.New(ids["SE1"], ids["SE2"]),
		"S":  nodeset.New(ids["S1"]),
		"TE": nodeset.New(ids["TE1"], ids["TE2"]),
	}
	for name, wantSet := range want {
		if got := m.Nodes(pids[name]); !got.Equal(wantSet) {
			t.Errorf("N(%s) = %v, want %v", name, got, wantSet)
		}
	}
}

// TestPaperExample2EndState replays all four updates of Fig. 2 and
// checks the match against a scratch recomputation — the updates-aware
// result the paper's UA-GPNM must deliver.
func TestPaperExample2EndState(t *testing.T) {
	g, ids := paperex.DataGraph()
	p, pids := paperex.PatternFig2(g.Labels())
	e := shortest.NewEngine(g, 0)
	e.Build()
	iquery := Run(p, g, e)

	// UD1, UD2 applied to the data graph.
	var seeds nodeset.Builder
	g.AddEdge(ids["SE1"], ids["TE2"])
	seeds.AddAll(e.InsertEdge(ids["SE1"], ids["TE2"]))
	g.AddEdge(ids["DB1"], ids["S1"])
	seeds.AddAll(e.InsertEdge(ids["DB1"], ids["S1"]))

	// UP1, UP2 applied to a clone of the pattern.
	newP := p.Clone()
	newP.AddEdge(pids["PM"], pids["TE"], paperex.UP1Bound)
	newP.AddEdge(pids["S"], pids["TE"], paperex.UP2Bound)

	amended := Amend(iquery, newP, g, e, seeds.Set())
	scratch := Run(newP, g, e)
	if !amended.Equal(scratch) {
		t.Fatal("amended result differs from scratch recomputation")
	}
	// The paper's cross-elimination analysis: UP1 changes nothing because
	// UD1 connects every PM to a TE within 2 — the PM set survives intact.
	if got, want := amended.Nodes(pids["PM"]), nodeset.New(ids["PM1"], ids["PM2"]); !got.Equal(want) {
		t.Errorf("N(PM) after updates = %v, want %v", got, want)
	}
	// UP2 (S→TE within 4) holds: S1 reaches TE2 at distance... via new
	// edges. S keeps matching.
	if got := amended.Nodes(pids["S"]); got.Empty() {
		t.Error("N(S) should stay nonempty after the updates")
	}
}

func TestEmptyMatchProjection(t *testing.T) {
	g := graph.New(nil)
	g.AddNode("A")
	p := pattern.New(g.Labels())
	pa := p.AddNode("A")
	pb := p.AddNode("B") // no B nodes exist in GD
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := Run(p, g, e)
	if m.Total() {
		t.Fatal("match must not be total when a pattern node has no candidates")
	}
	if m.Nodes(pa) != nil || m.Nodes(pb) != nil {
		t.Fatal("projection must be empty when the match is not total")
	}
	if m.SimulationSet(pa).Empty() {
		t.Fatal("the raw simulation set of A should still hold the A node")
	}
}

func TestConstraintCascade(t *testing.T) {
	// Chain pattern A→B(1)→C(1); data: a1→b1→c1 and a2→b2 (no c).
	g := graph.New(nil)
	a1, b1, c1 := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	a2, b2 := g.AddNode("A"), g.AddNode("B")
	g.AddEdge(a1, b1)
	g.AddEdge(b1, c1)
	g.AddEdge(a2, b2)
	p := pattern.New(g.Labels())
	pa, pb, pc := p.AddNode("A"), p.AddNode("B"), p.AddNode("C")
	p.AddEdge(pa, pb, 1)
	p.AddEdge(pb, pc, 1)
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := Run(p, g, e)
	// b2 has no C within 1 → removed; a2 loses its only B → removed.
	if got, want := m.Nodes(pa), nodeset.New(a1); !got.Equal(want) {
		t.Fatalf("N(A) = %v, want %v", got, want)
	}
	if got, want := m.Nodes(pb), nodeset.New(b1); !got.Equal(want) {
		t.Fatalf("N(B) = %v, want %v", got, want)
	}
	_ = pc
}

func TestStarBoundUsesReachability(t *testing.T) {
	g := graph.New(nil)
	a, b := g.AddNode("A"), g.AddNode("B")
	mid := g.AddNode("X")
	far := g.AddNode("B")
	g.AddEdge(a, mid)
	g.AddEdge(mid, b)
	_ = far // unreachable B
	p := pattern.New(g.Labels())
	pa, pb := p.AddNode("A"), p.AddNode("B")
	p.AddEdge(pa, pb, pattern.Star)
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := Run(p, g, e)
	if got, want := m.Nodes(pa), nodeset.New(a); !got.Equal(want) {
		t.Fatalf("N(A) = %v, want %v", got, want)
	}
	if got, want := m.Nodes(pb), nodeset.New(b, far); !got.Equal(want) {
		// far matches B trivially: B has no out-constraints.
		t.Fatalf("N(B) = %v, want %v", got, want)
	}
}

// randomShape draws the differential suites' instance size from seed:
// 25–44 nodes, 60–119 edges and 4 labels, 3–6 pattern nodes and 4–7
// pattern edges.
func randomShape(seed int64) testkit.Shape {
	rng := rand.New(rand.NewSource(seed))
	return testkit.Shape{Nodes: 25 + rng.Intn(20), Edges: 60 + rng.Intn(60), Labels: 4,
		PatNodes: 3 + rng.Intn(4), PatEdges: 4 + rng.Intn(4)}
}

// TestAmendMatchesScratch is the repository's central differential test:
// for random graphs, patterns and update batches, the incremental
// amendment must equal a scratch recomputation on the updated state.
func TestAmendMatchesScratch(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		horizon int
	}{
		{"exact", 0},
		{"capped3", 3},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				g, p := randomShape(int64(1000 + trial)).Instance(int64(1000 + trial))
				amendAndCheck(t, g, p, cfg.horizon, trial)
			}
		})
	}
}

// TestAmendDataOnly exercises the pattern-unchanged path.
func TestAmendDataOnly(t *testing.T) {
	g, ids := paperex.DataGraph()
	p, _ := paperex.PatternFig1(g.Labels())
	e := shortest.NewEngine(g, 0)
	e.Build()
	iquery := Run(p, g, e)
	g.AddEdge(ids["SE1"], ids["TE2"])
	seeds := e.InsertEdge(ids["SE1"], ids["TE2"])
	amended := Amend(iquery, p, g, e, seeds)
	scratch := Run(p, g, e)
	if !amended.Equal(scratch) {
		t.Fatal("data-only amend != scratch")
	}
}

// TestAmendPatternOnly exercises pure pattern updates (empty seeds).
func TestAmendPatternOnly(t *testing.T) {
	g, _ := paperex.DataGraph()
	p, pids := paperex.PatternFig1(g.Labels())
	e := shortest.NewEngine(g, 0)
	e.Build()
	iquery := Run(p, g, e)
	// Tighten: SE must reach TE within 1 (restriction).
	newP := p.Clone()
	newP.RemoveEdge(pids["SE"], pids["TE"])
	newP.AddEdge(pids["SE"], pids["TE"], 1)
	amended := Amend(iquery, newP, g, e, nil)
	if !amended.Equal(Run(newP, g, e)) {
		t.Fatal("restriction amend != scratch")
	}
	// Relax: drop PM→S entirely.
	p2 := newP.Clone()
	p2.RemoveEdge(pids["PM"], pids["S"])
	amended2 := Amend(amended, p2, g, e, nil)
	if !amended2.Equal(Run(p2, g, e)) {
		t.Fatal("relaxation amend != scratch")
	}
}

func TestDiffPatterns(t *testing.T) {
	p := pattern.New(nil)
	a, b, c := p.AddNode("A"), p.AddNode("B"), p.AddNode("C")
	p.AddEdge(a, b, 2)
	p.AddEdge(b, c, 1)
	q := p.Clone()
	q.RemoveEdge(a, b)  // relax a
	q.AddEdge(a, c, 1)  // restrict a
	q.RemoveEdge(b, c)  // relax b...
	q.AddEdge(b, c, 3)  // ...bound increased 1→3: relax b
	d := q.AddNode("D") // added node
	q.AddEdge(c, d, 1)  // restrict c
	delta := DiffPatterns(p, q)
	if len(delta.AddedNodes) != 1 || delta.AddedNodes[0] != d {
		t.Fatalf("AddedNodes = %v", delta.AddedNodes)
	}
	relax := nodeset.New(uint32(a), uint32(b))
	var gotRelax nodeset.Builder
	for _, u := range delta.Relaxed {
		gotRelax.Add(uint32(u))
	}
	if !gotRelax.Set().Equal(relax) {
		t.Fatalf("Relaxed = %v, want %v", delta.Relaxed, relax)
	}
	var gotRestrict nodeset.Builder
	for _, u := range delta.Restricted {
		gotRestrict.Add(uint32(u))
	}
	if !gotRestrict.Set().Equal(nodeset.New(uint32(a), uint32(c))) {
		t.Fatalf("Restricted = %v", delta.Restricted)
	}
}

func TestBoundLooser(t *testing.T) {
	cases := []struct {
		a, b pattern.Bound
		want bool
	}{
		{3, 2, true}, {2, 3, false}, {2, 2, false},
		{pattern.Star, 5, true}, {5, pattern.Star, false},
		{pattern.Star, pattern.Star, false},
	}
	for _, c := range cases {
		if got := boundLooser(c.a, c.b); got != c.want {
			t.Errorf("boundLooser(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMatchCloneIndependence(t *testing.T) {
	g, _ := paperex.DataGraph()
	p, pids := paperex.PatternFig1(g.Labels())
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := Run(p, g, e)
	c := m.Clone(p)
	c.sets[pids["PM"]].Clear()
	if m.SimulationSet(pids["PM"]).Empty() {
		t.Fatal("clone mutation leaked")
	}
}

func logDiff(t *testing.T, got, want *Match, p *pattern.Graph) {
	t.Helper()
	p.Nodes(func(u pattern.NodeID) {
		a, b := got.SimulationSet(u), want.SimulationSet(u)
		if !a.Equal(b) {
			t.Logf("pattern node %d (%s): got %v, want %v", u, p.Name(u), a, b)
		}
	})
}

// benchShape is the scratch and small-batch benchmarks' instance.
var benchShape = testkit.Shape{Nodes: 2000, Edges: 8000, Labels: 5, PatNodes: 6, PatEdges: 6}

func BenchmarkRunScratch(b *testing.B) {
	g, p := benchShape.Instance(9)
	e := shortest.NewEngine(g, 3)
	e.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(p, g, e)
	}
}

func BenchmarkAmendSmallBatch(b *testing.B) {
	g, p := benchShape.Instance(10)
	e := shortest.NewEngine(g, 3)
	e.Build()
	iquery := Run(p, g, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g2 := g.Clone()
		e2 := e.Clone(g2)
		batch := updates.Generate(updates.Balanced(int64(i), 2, 10), g2, p)
		b.StartTimer()
		_, seeds, _ := e2.ApplyDataBatch(batch.D, g2)
		newP := p.Clone()
		updates.ApplyPatternBatch(batch.P, newP)
		Amend(iquery, newP, g2, e2, seeds)
	}
}

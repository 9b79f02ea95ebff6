package uagpnm

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestQuickstart mirrors the doc-comment example end to end.
func TestQuickstart(t *testing.T) {
	g := NewGraph()
	alice := g.AddNode("PM")
	bob := g.AddNode("SE")
	g.AddEdge(alice, bob)

	p := NewPattern(g)
	pm := p.AddNode("PM")
	se := p.AddNode("SE")
	p.AddEdge(pm, se, 3)

	s := NewSession(g, p, Options{Method: UAGPNM})
	if got := s.Result(pm); got.Len() != 1 || !got.Contains(alice) {
		t.Fatalf("Result(pm) = %v, want {alice}", got)
	}
	batch := Batch{D: []Update{InsertEdge(bob, alice)}}
	s.SQuery(batch)
	if got := s.Result(se); !got.Contains(bob) {
		t.Fatalf("Result(se) = %v, want bob present", got)
	}
	if s.Stats().Duration <= 0 {
		t.Fatal("stats not recorded")
	}
}

// TestPaperScenario drives the paper's Fig. 1/2 scenario through the
// public API with every method.
func TestPaperScenario(t *testing.T) {
	build := func() (*Graph, map[string]NodeID) {
		g := NewGraph()
		ids := map[string]NodeID{}
		for _, n := range []struct{ name, label string }{
			{"PM1", "PM"}, {"PM2", "PM"}, {"SE1", "SE"}, {"SE2", "SE"},
			{"S1", "S"}, {"TE1", "TE"}, {"TE2", "TE"}, {"DB1", "DB"},
		} {
			ids[n.name] = g.AddNode(n.label)
		}
		for _, e := range [][2]string{
			{"PM1", "SE2"}, {"PM1", "DB1"}, {"PM2", "SE1"}, {"SE1", "PM2"},
			{"SE1", "SE2"}, {"SE1", "S1"}, {"SE2", "TE1"}, {"SE2", "DB1"},
			{"S1", "DB1"}, {"TE1", "SE2"}, {"TE2", "S1"}, {"DB1", "SE1"},
		} {
			g.AddEdge(ids[e[0]], ids[e[1]])
		}
		return g, ids
	}
	for _, m := range []Method{Scratch, INCGPNM, EHGPNM, UAGPNMNoPar, UAGPNM} {
		g, ids := build()
		p := NewPattern(g)
		pm := p.AddNode("PM")
		se := p.AddNode("SE")
		te := p.AddNode("TE")
		sn := p.AddNode("S")
		p.AddEdge(pm, se, 3)
		p.AddEdge(pm, sn, 4)
		p.AddEdge(se, te, 3)

		s := NewSession(g, p, Options{Method: m})
		if got := s.Result(pm); got.Len() != 2 {
			t.Fatalf("%v: N(PM) = %v, want both PMs", m, got)
		}
		// The four updates of Example 2.
		batch := Batch{
			P: []Update{
				InsertPatternEdge(pm, te, 2),
				InsertPatternEdge(sn, te, 4),
			},
			D: []Update{
				InsertEdge(ids["SE1"], ids["TE2"]),
				InsertEdge(ids["DB1"], ids["S1"]),
			},
		}
		tree := s.Elimination(batch)
		s.SQuery(batch)
		if got := s.Result(pm); got.Len() != 2 {
			t.Fatalf("%v: after updates N(PM) = %v, want both PMs (cross elimination)", m, got)
		}
		if tree.Size() != 4 || len(tree.Roots) != 1 || tree.EliminatedCount() != 3 {
			t.Fatalf("%v: Elimination = size %d, %d roots, %d eliminated, want the Fig. 3 tree (4, 1, 3)",
				m, tree.Size(), len(tree.Roots), tree.EliminatedCount())
		}
	}
}

func TestParsePatternAPI(t *testing.T) {
	g := NewGraph()
	g.AddNode("A")
	p, err := ParsePattern(strings.NewReader("node a A\nnode b A\nedge a b *\n"), g)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 2 || !p.HasStar() {
		t.Fatal("pattern parse wrong")
	}
}

func TestLoadGraphAPI(t *testing.T) {
	g, err := LoadGraph(strings.NewReader("# c\n0\t1\n1\t2\n"), "person")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestGenerateHelpers(t *testing.T) {
	g := GenerateSocialGraph(SocialGraphConfig{Nodes: 200, Edges: 800, Labels: 5, Homophily: 0.9, Seed: 3})
	if g.NumNodes() != 200 {
		t.Fatal("social graph generation failed")
	}
	p := GeneratePattern(PatternConfig{Nodes: 6, Edges: 6, Seed: 4}, g)
	if p.NumNodes() != 6 {
		t.Fatal("pattern generation failed")
	}
	b := GenerateBatch(5, 3, 10, g, p)
	if b.Size() == 0 {
		t.Fatal("batch generation failed")
	}
	s := NewSession(g, p, Options{Method: UAGPNM, Horizon: 3})
	before := s.Matches()
	after := s.SQuery(b)
	_ = before
	// Differential against scratch on a fork of the ORIGINAL state.
	g2 := GenerateSocialGraph(SocialGraphConfig{Nodes: 200, Edges: 800, Labels: 5, Homophily: 0.9, Seed: 3})
	p2 := GeneratePattern(PatternConfig{Nodes: 6, Edges: 6, Seed: 4}, g2)
	ref := NewSession(g2, p2, Options{Method: Scratch, Horizon: 3})
	want := ref.SQuery(b)
	if !after.Equal(want) {
		t.Fatal("public API path diverged from scratch")
	}
}

// TestResultImmutability is the aliasing regression: results handed out
// by a session are defensive copies, so scribbling over them (or holding
// them across batches) can never corrupt the session's own match state.
func TestResultImmutability(t *testing.T) {
	g := NewGraph()
	alice := g.AddNode("PM")
	bob := g.AddNode("SE")
	carol := g.AddNode("PM")
	g.AddEdge(alice, bob)

	p := NewPattern(g)
	pm := p.AddNode("PM")
	se := p.AddNode("SE")
	p.AddEdge(pm, se, 2)

	s := NewSession(g, p, Options{Method: UAGPNM})

	// Mutate the returned result set in place …
	res := s.Result(pm)
	for i := range res {
		res[i] = 4242
	}
	// … and the returned match snapshot.
	m1 := s.Matches()
	sim := m1.SimulationSet(pm)
	for i := range sim {
		sim[i] = 4242
	}
	// Re-query: the session must be unharmed.
	if got := s.Result(pm); got.Len() != 1 || !got.Contains(alice) {
		t.Fatalf("Result after external mutation = %v, want {alice}", got)
	}

	// A match returned by SQuery stays frozen across later batches.
	first := s.SQuery(Batch{D: []Update{InsertEdge(carol, bob)}})
	if got := first.SimulationSet(pm).Clone(); !got.Equal(s.Result(pm)) {
		t.Fatalf("SQuery snapshot %v differs from live result %v", got, s.Result(pm))
	}
	s.SQuery(Batch{D: []Update{DeleteEdge(carol, bob)}})
	if got := first.SimulationSet(pm); !got.Contains(carol) {
		t.Fatalf("held SQuery result mutated by a later batch: %v", got)
	}
	if got := s.Result(pm); got.Contains(carol) {
		t.Fatalf("live result kept deleted match: %v", got)
	}
}

// TestHubPublicAPI drives the standing-query hub through the public
// surface: register two patterns, apply one shared batch, read deltas.
func TestHubPublicAPI(t *testing.T) {
	g := NewGraph()
	alice := g.AddNode("PM")
	bob := g.AddNode("SE")
	dana := g.AddNode("TE")
	g.AddEdge(alice, bob)

	mk := func() *Pattern {
		p := NewPattern(g)
		pm := p.AddNode("PM")
		se := p.AddNode("SE")
		p.AddEdge(pm, se, 2)
		return p
	}
	pTE := NewPattern(g)
	se2 := pTE.AddNode("SE")
	te := pTE.AddNode("TE")
	pTE.AddEdge(se2, te, 1)

	ctx := context.Background()
	h, err := NewHub(g, HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var svc Service = h // the hub IS the in-process Service implementation
	id1, err := svc.Register(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	id2, err := svc.Register(ctx, pTE)
	if err != nil {
		t.Fatal(err)
	}

	if got, err := svc.Result(ctx, id1, 0); err != nil || got.Len() != 1 || !got.Contains(alice) {
		t.Fatalf("hub IQuery pattern 1 = %v (err %v)", got, err)
	}
	if got, err := svc.Result(ctx, id2, 0); err != nil || got.Len() != 0 {
		t.Fatalf("hub IQuery pattern 2 = %v (err %v), want ∅ (not total)", got, err)
	}

	deltas, _, err := svc.ApplyBatch(ctx, HubBatch{D: []Update{InsertEdge(bob, dana)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("deltas = %v, want one per pattern", deltas)
	}
	// Pattern 2 became total: SE1 and TE1 appear.
	if got, err := svc.Result(ctx, id2, 1); err != nil || got.Len() != 1 || !got.Contains(dana) {
		t.Fatalf("hub pattern 2 after batch = %v (err %v), want {dana}", got, err)
	}
	if h.Seq() != 1 || h.LastBatch().SLenSyncs != 1 {
		t.Fatalf("seq=%d stats=%+v", h.Seq(), h.LastBatch())
	}
	if err := svc.Unregister(ctx, id1); err != nil {
		t.Fatal("unregister failed:", err)
	}
	if err := svc.Unregister(ctx, id1); !errors.Is(err, ErrUnknownPattern) {
		t.Fatalf("second unregister = %v, want ErrUnknownPattern", err)
	}
}

func TestForkIndependencePublic(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("A")
	b := g.AddNode("A")
	g.AddEdge(a, b)
	p := NewPattern(g)
	pa := p.AddNode("A")
	s := NewSession(g, p, Options{})
	f := s.Fork()
	f.SQuery(Batch{D: []Update{DeleteNode(b)}})
	if got := s.Result(pa); got.Len() != 2 {
		t.Fatal("fork mutation leaked")
	}
	if got := f.Result(pa); got.Len() != 1 {
		t.Fatal("fork did not apply")
	}
}

// TestDefaultMethodIsUAGPNM: Options{} runs the paper's algorithm, not
// the Scratch baseline it is measured against — and the two agree.
func TestDefaultMethodIsUAGPNM(t *testing.T) {
	var zero Method
	if zero != UAGPNM || zero.String() != "UA-GPNM" {
		t.Fatalf("zero Method = %v, want UA-GPNM", zero)
	}
	g := GenerateSocialGraph(SocialGraphConfig{Nodes: 200, Edges: 800, Labels: 5, Homophily: 0.9, Seed: 5})
	p := GeneratePattern(PatternConfig{Nodes: 4, Edges: 4, BoundMin: 1, BoundMax: 3, Seed: 5}, g)
	s := NewSession(g.Clone(), p.Clone(), Options{})
	if s.inner.Method != UAGPNM {
		t.Fatalf("NewSession(g, p, Options{}) runs %v, want UA-GPNM", s.inner.Method)
	}
	ref := NewSession(g.Clone(), p.Clone(), Options{Method: Scratch})
	if !s.Matches().Equal(ref.Matches()) {
		t.Fatal("initial query: default session diverges from Scratch")
	}
	batch := GenerateBatch(11, 2, 30, g, p)
	if got, want := s.SQuery(batch), ref.SQuery(batch); !got.Equal(want) {
		t.Fatal("after a batch: default session diverges from Scratch")
	}
	if got := s.Stats().Passes; got != 1 {
		t.Fatalf("default session ran %d amendment passes, want UA-GPNM's one", got)
	}
}

package core

import (
	"testing"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/paperex"
	"uagpnm/internal/pattern"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// TestPaperTableIThroughSession reproduces Table I via the Session API.
func TestPaperTableIThroughSession(t *testing.T) {
	g, ids := paperex.DataGraph()
	p, pids := paperex.PatternFig1(g.Labels())
	for _, m := range Methods {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m})
		want := map[string]nodeset.Set{
			"PM": nodeset.New(ids["PM1"], ids["PM2"]),
			"SE": nodeset.New(ids["SE1"], ids["SE2"]),
			"S":  nodeset.New(ids["S1"]),
			"TE": nodeset.New(ids["TE1"], ids["TE2"]),
		}
		for name, wantSet := range want {
			if got := s.Result(pids[name]); !got.Equal(wantSet) {
				t.Errorf("%v: N(%s) = %v, want %v", m, name, got, wantSet)
			}
		}
	}
}

// TestPaperExample2AllMethods runs the full Fig. 2 scenario through every
// method; all five must agree, and the batch's Elimination is the Fig. 3
// tree.
func TestPaperExample2AllMethods(t *testing.T) {
	g, ids := paperex.DataGraph()
	p, pids := paperex.PatternFig2(g.Labels())
	batch := updates.Batch{
		P: []updates.Update{
			{Kind: updates.PatternEdgeInsert, From: pids["PM"], To: pids["TE"], Bound: paperex.UP1Bound},
			{Kind: updates.PatternEdgeInsert, From: pids["S"], To: pids["TE"], Bound: paperex.UP2Bound},
		},
		D: []updates.Update{
			{Kind: updates.DataEdgeInsert, From: ids["SE1"], To: ids["TE2"]},
			{Kind: updates.DataEdgeInsert, From: ids["DB1"], To: ids["S1"]},
		},
	}
	ref := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch})
	refMatch := ref.SQuery(batch)
	for _, m := range Methods[1:] {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m})
		tree := s.Elimination(batch)
		got := s.SQuery(batch)
		if !got.Equal(refMatch) {
			t.Errorf("%v: result differs from scratch", m)
		}
		if tree.Size() != 4 || len(tree.Roots) != 1 || tree.EliminatedCount() != 3 {
			t.Errorf("%v: tree has size %d, %d roots, %d eliminated, want 4, 1, 3 (Fig. 3)\n%v",
				m, tree.Size(), len(tree.Roots), tree.EliminatedCount(), tree)
		}
		if m == UAGPNM || m == UAGPNMNoPar {
			if s.Stats.Passes != 1 {
				t.Errorf("%v: passes = %d, want 1", m, s.Stats.Passes)
			}
		}
		// The cross-elimination scenario keeps both PMs matched.
		pmSet := s.Result(pids["PM"])
		if want := nodeset.New(ids["PM1"], ids["PM2"]); !pmSet.Equal(want) {
			t.Errorf("%v: N(PM) = %v, want %v", m, pmSet, want)
		}
	}
}

// TestPassAccounting checks the cost model that separates the methods:
// INC pays one pass per update; EH pays per data root + per pattern
// update; UA pays exactly one.
func TestPassAccounting(t *testing.T) {
	g, p := testkit.Shape{Nodes: 40, Edges: 120, Labels: 3, PatNodes: 5, PatEdges: 6}.Instance(42)
	batch := updates.Generate(updates.Balanced(7, 4, 12), g, p)

	inc := NewSession(g.Clone(), p.Clone(), Config{Method: INCGPNM, Horizon: 3})
	inc.SQuery(batch)
	if want := len(batch.D) + len(batch.P); inc.Stats.Passes != want {
		t.Errorf("INC passes = %d, want %d", inc.Stats.Passes, want)
	}

	eh := NewSession(g.Clone(), p.Clone(), Config{Method: EHGPNM, Horizon: 3})
	eh.SQuery(batch)
	if eh.Stats.TreeSize != len(batch.D) {
		t.Errorf("EH tree size = %d, want %d", eh.Stats.TreeSize, len(batch.D))
	}
	if want := eh.Stats.TreeRoots + len(batch.P); eh.Stats.Passes != want {
		t.Errorf("EH passes = %d, want roots+patterns = %d", eh.Stats.Passes, want)
	}
	if eh.Stats.TreeRoots > len(batch.D) {
		t.Error("EH roots exceed data updates")
	}

	ua := NewSession(g.Clone(), p.Clone(), Config{Method: UAGPNM, Horizon: 3})
	if size := ua.Elimination(batch).Size(); size != batch.Size() {
		t.Errorf("full tree size = %d, want %d", size, batch.Size())
	}
	ua.SQuery(batch)
	if ua.Stats.Passes != 1 {
		t.Errorf("UA passes = %d, want 1", ua.Stats.Passes)
	}
	if ua.Stats.SeedNodes == 0 && batch.Size() > 0 {
		t.Log("note: empty seed set (all updates were no-ops)")
	}
	if ua.Stats.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

// TestEliminationLeavesSessionUntouched: the analysis runs on a fork. On
// every method, match, pattern, graph and horizon read the same before
// and after (the batch's pattern inserts carry bounds past the horizon),
// and the SQuery that follows still agrees with Scratch.
func TestEliminationLeavesSessionUntouched(t *testing.T) {
	g, p := testkit.Shape{Nodes: 40, Edges: 120, Labels: 3, PatNodes: 5, PatEdges: 6}.Instance(77)
	batch := updates.Generate(updates.Balanced(9, 4, 12), g, p)
	after := p.Clone()
	updates.ApplyPatternBatch(batch.P, after)
	wide := updates.Update{Kind: updates.PatternEdgeInsert, Bound: 5}
	after.Nodes(func(u pattern.NodeID) {
		after.Nodes(func(v pattern.NodeID) {
			if _, has := after.EdgeBound(u, v); u != v && !has {
				wide.From, wide.To = u, v
			}
		})
	})
	batch.P = append(batch.P, wide)
	want := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch, Horizon: 3}).SQuery(batch)
	for _, m := range Methods {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m, Horizon: 3})
		match, pat := s.Match.Clone(s.P), s.P.String()
		gs, horizon := s.G.ComputeStats(), s.Engine.Horizon()
		if tree := s.Elimination(batch); tree.Size() != batch.Size() {
			t.Errorf("%v: tree size %d, want %d", m, tree.Size(), batch.Size())
		}
		if !s.Match.Equal(match) {
			t.Errorf("%v: Elimination moved the match", m)
		}
		if got := s.P.String(); got != pat {
			t.Errorf("%v: Elimination moved the pattern:\n%s\nwas\n%s", m, got, pat)
		}
		if got := s.G.ComputeStats(); got != gs {
			t.Errorf("%v: Elimination moved the graph: %+v, was %+v", m, got, gs)
		}
		if got := s.Engine.Horizon(); got != horizon {
			t.Errorf("%v: Elimination moved the horizon: %d, was %d", m, got, horizon)
		}
		if !s.SQuery(batch).Equal(want) {
			t.Errorf("%v: SQuery after Elimination differs from Scratch", m)
		}
		if got := s.Engine.Horizon(); got != 5 {
			t.Errorf("%v: horizon %d after the batch, want its bound 5", m, got)
		}
	}
}

// TestForkIndependence ensures forked sessions do not share state.
func TestForkIndependence(t *testing.T) {
	g, ids := paperex.DataGraph()
	p, pids := paperex.PatternFig2(g.Labels())
	s := NewSession(g, p, Config{Method: UAGPNM})
	f := s.Fork()
	batch := updates.Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: ids["SE1"], To: ids["TE2"]},
	}}
	f.SQuery(batch)
	if s.G.HasEdge(ids["SE1"], ids["TE2"]) {
		t.Fatal("fork mutation leaked into original graph")
	}
	if got, want := s.Result(pids["PM"]), nodeset.New(ids["PM1"], ids["PM2"]); !got.Equal(want) {
		t.Fatalf("original session result drifted: %v", got)
	}
}

// TestSuccessiveBatchesMaintainState: a session must stay consistent over
// a long run of batches (the streaming scenario of the examples).
func TestSuccessiveBatchesMaintainState(t *testing.T) {
	g, p := testkit.Shape{Nodes: 25, Edges: 70, Labels: 3, PatNodes: 4, PatEdges: 5}.Instance(314)
	ua := NewSession(g.Clone(), p.Clone(), Config{Method: UAGPNM, Horizon: 3})
	scr := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch, Horizon: 3})
	for round := 0; round < 8; round++ {
		batch := updates.Generate(updates.Balanced(int64(round), 2, 6), ua.G, ua.P)
		got := ua.SQuery(batch)
		want := scr.SQuery(batch)
		if !got.Equal(want) {
			t.Fatalf("round %d: UA diverged from scratch", round)
		}
	}
}

// TestForkCarriesRowsExactly: a fork's engine starts with the base
// session's ball rows. Round after round, a fork's SQuery must equal the
// same batch from scratch, and the base session's own next SQuery —
// over rows the fork's batch must not have touched — must too. The
// fork's batches move data edges only, so no row table is regrown, and
// the base's move pattern edges only, so no change log of its own clears
// a slot: a fork sharing its parent's slots would serve the base the
// fork's rows.
func TestForkCarriesRowsExactly(t *testing.T) {
	g, p := testkit.Shape{Nodes: 30, Edges: 90, Labels: 3, PatNodes: 4, PatEdges: 5}.Instance(3101)
	ua := NewSession(g.Clone(), p.Clone(), Config{Method: UAGPNM, Horizon: 3})
	scr := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch, Horizon: 3})
	for round := 0; round < 8; round++ {
		f, fs := ua.Fork(), scr.Fork()
		b := updates.Generate(updates.GenConfig{Seed: int64(100 + round), DataEdgeInserts: 10, DataEdgeDeletes: 10}, f.G, f.P)
		if got, want := f.SQuery(b), fs.SQuery(b); !got.Equal(want) {
			t.Fatalf("round %d: the fork's SQuery diverged from scratch", round)
		}
		b = updates.Generate(updates.GenConfig{Seed: int64(200 + round), PatternEdgeInserts: 2, PatternEdgeDeletes: 1}, ua.G, ua.P)
		if got, want := ua.SQuery(b), scr.SQuery(b); !got.Equal(want) {
			t.Fatalf("round %d: the base session's SQuery after a fork diverged from scratch", round)
		}
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		Scratch: "Scratch", INCGPNM: "INC-GPNM", EHGPNM: "EH-GPNM",
		UAGPNMNoPar: "UA-GPNM-NoPar", UAGPNM: "UA-GPNM", Method(99): "Method(99)",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(m), got, want)
		}
	}
}

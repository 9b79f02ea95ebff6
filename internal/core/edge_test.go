package core

import (
	"testing"

	"uagpnm/internal/paperex"
	"uagpnm/internal/pattern"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// TestEmptyBatch: SQuery on an empty batch must be a cheap no-op that
// preserves the result, on every method.
func TestEmptyBatch(t *testing.T) {
	g, _ := paperex.DataGraph()
	p, pids := paperex.PatternFig1(g.Labels())
	for _, m := range Methods {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m})
		before := s.Result(pids["PM"]).Clone()
		s.SQuery(updates.Batch{})
		if !s.Result(pids["PM"]).Equal(before) {
			t.Errorf("%v: empty batch changed the result", m)
		}
	}
}

// TestPatternOnlyBatch exercises the ΔGD == ∅ path.
func TestPatternOnlyBatch(t *testing.T) {
	g, _ := paperex.DataGraph()
	p, pids := paperex.PatternFig2(g.Labels())
	batch := updates.Batch{P: []updates.Update{
		{Kind: updates.PatternEdgeInsert, From: pids["PM"], To: pids["TE"], Bound: 2},
	}}
	ref := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch})
	want := ref.SQuery(batch)
	for _, m := range Methods[1:] {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m})
		if got := s.SQuery(batch); !got.Equal(want) {
			t.Errorf("%v: pattern-only batch differs from scratch", m)
		}
	}
}

// TestDataOnlyBatch exercises the ΔGP == ∅ path.
func TestDataOnlyBatch(t *testing.T) {
	g, ids := paperex.DataGraph()
	p, _ := paperex.PatternFig2(g.Labels())
	batch := updates.Batch{D: []updates.Update{
		{Kind: updates.DataEdgeDelete, From: ids["SE1"], To: ids["S1"]},
		{Kind: updates.DataEdgeInsert, From: ids["TE1"], To: ids["S1"]},
	}}
	ref := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch})
	want := ref.SQuery(batch)
	for _, m := range Methods[1:] {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m})
		if got := s.SQuery(batch); !got.Equal(want) {
			t.Errorf("%v: data-only batch differs from scratch", m)
		}
	}
}

// TestHorizonWideningMidStream: a pattern update whose bound exceeds the
// engine's horizon must trigger a rebuild at the wider cap, on every
// method, without breaking equality with Scratch.
func TestHorizonWideningMidStream(t *testing.T) {
	g, _ := paperex.DataGraph()
	p, pids := paperex.PatternFig2(g.Labels())
	// Initial horizon covers the pattern's max bound (4).
	batch := updates.Batch{P: []updates.Update{
		{Kind: updates.PatternEdgeInsert, From: pids["TE"], To: pids["S"], Bound: 6},
	}}
	ref := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch, Horizon: 4})
	want := ref.SQuery(batch)
	for _, m := range Methods[1:] {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m, Horizon: 4})
		got := s.SQuery(batch)
		if !got.Equal(want) {
			t.Errorf("%v: horizon-widening batch differs from scratch", m)
		}
		if s.Engine.Horizon() < 6 {
			t.Errorf("%v: horizon = %d, want ≥ 6", m, s.Engine.Horizon())
		}
	}
}

// TestEmptyingPattern: deleting pattern nodes down to one must keep the
// methods agreeing (including the all-label-candidates rebuild paths).
func TestEmptyingPattern(t *testing.T) {
	g, _ := paperex.DataGraph()
	p, pids := paperex.PatternFig1(g.Labels())
	batch := updates.Batch{P: []updates.Update{
		{Kind: updates.PatternNodeDelete, Node: pids["TE"]},
		{Kind: updates.PatternNodeDelete, Node: pids["S"]},
	}}
	ref := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch})
	want := ref.SQuery(batch)
	for _, m := range Methods[1:] {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m})
		if got := s.SQuery(batch); !got.Equal(want) {
			t.Errorf("%v: pattern-shrinking batch differs from scratch", m)
		}
	}
}

// TestUnmatchablePatternNode: inserting a pattern node with a label no
// data node carries empties the projected result (BGS totality) — and a
// later deletion restores it. All methods must track both transitions.
func TestUnmatchablePatternNode(t *testing.T) {
	g, _ := paperex.DataGraph()
	p, pids := paperex.PatternFig2(g.Labels())
	newID := pattern.NodeID(p.NumIDs())
	add := updates.Batch{P: []updates.Update{
		{Kind: updates.PatternNodeInsert, Node: newID, Labels: []string{"CEO"}},
	}}
	remove := updates.Batch{P: []updates.Update{
		{Kind: updates.PatternNodeDelete, Node: newID},
	}}
	for _, m := range Methods {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m})
		s.SQuery(add)
		if got := s.Result(pids["PM"]); !got.Empty() {
			t.Errorf("%v: result should project to empty with an unmatchable node, got %v", m, got)
		}
		if s.Match.Total() {
			t.Errorf("%v: match must not be total", m)
		}
		s.SQuery(remove)
		if got := s.Result(pids["PM"]); got.Len() != 2 {
			t.Errorf("%v: result not restored after deletion, got %v", m, got)
		}
	}
}

// TestLargeBatchStress: one big mixed batch on a mid-sized random graph,
// all methods vs scratch (slower — kept to a single instance).
func TestLargeBatchStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g, p := testkit.Shape{Nodes: 300, Edges: 1500, Labels: 5, PatNodes: 8, PatEdges: 9}.Instance(404)
	batch := updates.Generate(updates.Balanced(5, 8, 120), g, p)
	ref := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch, Horizon: 3})
	want := ref.SQuery(batch)
	for _, m := range Methods[1:] {
		s := NewSession(g.Clone(), p.Clone(), Config{Method: m, Horizon: 3})
		if got := s.SQuery(batch); !got.Equal(want) {
			t.Errorf("%v: large batch differs from scratch", m)
		}
	}
}

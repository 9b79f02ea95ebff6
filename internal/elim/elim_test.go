package elim

import (
	"testing"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/paperex"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// setupExample2 assembles the full Example 2 state: data graph, the
// Fig. 2(c) pattern, exact SLen engine, IQuery match, and the four
// updates UP1, UP2, UD1, UD2.
func setupExample2(t *testing.T) (*simulation.Match, *shortest.Engine, []updates.Update, []updates.Update, map[string]uint32, map[string]uint32) {
	t.Helper()
	g, ids := paperex.DataGraph()
	p, pids := paperex.PatternFig2(g.Labels())
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := simulation.Run(p, g, e)
	ups := []updates.Update{
		{Kind: updates.PatternEdgeInsert, From: pids["PM"], To: pids["TE"], Bound: paperex.UP1Bound},
		{Kind: updates.PatternEdgeInsert, From: pids["S"], To: pids["TE"], Bound: paperex.UP2Bound},
	}
	uds := []updates.Update{
		{Kind: updates.DataEdgeInsert, From: ids["SE1"], To: ids["TE2"]},
		{Kind: updates.DataEdgeInsert, From: ids["DB1"], To: ids["S1"]},
	}
	pidsU := map[string]uint32{}
	for k, v := range pids {
		pidsU[k] = uint32(v)
	}
	return m, e, ups, uds, ids, pidsU
}

// affInIsolation is DER-II as the paper tabulates it: each data update
// applied alone to a clone of the pre-batch graph and engine, Aff_N read
// off the application.
func affInIsolation(uds []updates.Update, e *shortest.Engine) []Info {
	sets := make([]nodeset.Set, len(uds))
	for i := range uds {
		g2 := e.Graph().Clone()
		per, _ := e.Clone(g2).ApplyDataAffected(uds[i:i+1], g2)
		sets[i] = per[0]
	}
	return AffSetsFromApplication(uds, sets)
}

// TestPaperTableIV reproduces Table IV: Can_RN(UP1) = {PM2, TE2} and
// Can_RN(UP2) = {TE2} (Example 7).
func TestPaperTableIV(t *testing.T) {
	m, e, ups, _, ids, _ := setupExample2(t)
	g, p := e.Graph(), m.Pattern()
	infos := CanSets(ups, m, p, g, e)
	if want := nodeset.New(ids["PM2"], ids["TE2"]); !infos[0].Set.Equal(want) {
		t.Errorf("Can_RN(UP1) = %v, want %v", infos[0].Set, want)
	}
	if want := nodeset.New(ids["TE2"]); !infos[1].Set.Equal(want) {
		t.Errorf("Can_RN(UP2) = %v, want %v", infos[1].Set, want)
	}
	// Type I elimination of Example 7: UP1 ⊒ UP2.
	if !infos[0].Set.Covers(infos[1].Set) {
		t.Error("Can_RN(UP1) must cover Can_RN(UP2)")
	}
}

// TestPaperTableVII reproduces Table VII, each update in isolation:
// Aff_N(UD1) = all eight nodes, Aff_N(UD2) = {PM1, SE2, S1, TE1, DB1}.
func TestPaperTableVII(t *testing.T) {
	m, e, _, uds, ids, _ := setupExample2(t)
	infos := affInIsolation(uds, e)
	if want := nodeset.New(0, 1, 2, 3, 4, 5, 6, 7); !infos[0].Set.Equal(want) {
		t.Errorf("Aff_N(UD1) = %v, want %v", infos[0].Set, want)
	}
	want2 := nodeset.New(ids["PM1"], ids["SE2"], ids["S1"], ids["TE1"], ids["DB1"])
	if !infos[1].Set.Equal(want2) {
		t.Errorf("Aff_N(UD2) = %v, want %v", infos[1].Set, want2)
	}
	// Type II elimination of Example 8: UD1 ⊒ UD2.
	if !infos[0].Set.Covers(infos[1].Set) {
		t.Error("Aff_N(UD1) must cover Aff_N(UD2)")
	}
	_ = m
}

// TestPaperExample9CrossElimination: UD1 ⇔ UP1 — after inserting
// e(SE1,TE2), AFF(PM2,TE2) = (∞,2) satisfies UP1's bound 2, so the pair
// of updates cancels.
func TestPaperExample9CrossElimination(t *testing.T) {
	m, e, ups, uds, ids, _ := setupExample2(t)
	g := e.Graph()
	cans := CanSets(ups, m, m.Pattern(), g, e)
	affInfos := affInIsolation(uds, e)
	// Apply UD1 so the oracle reflects SLen_new.
	g.AddEdge(ids["SE1"], ids["TE2"])
	e.InsertEdge(ids["SE1"], ids["TE2"])
	if !CrossEliminates(cans[0], affInfos[0], m, e) {
		t.Error("UD1 must eliminate UP1 (Example 9)")
	}
	// UD2 does not cover Can_RN(UP1) (its Aff misses PM2), so no cross
	// elimination.
	if CrossEliminates(cans[0], affInfos[1], m, e) {
		t.Error("UD2 must not eliminate UP1")
	}
}

func TestCrossEliminatesKindGate(t *testing.T) {
	m, e, ups, _, ids, _ := setupExample2(t)
	cans := CanSets(ups, m, m.Pattern(), e.Graph(), e)
	del := Info{U: updates.Update{Kind: updates.DataEdgeDelete, From: ids["SE1"], To: ids["S1"]},
		Set: nodeset.New(0, 1, 2, 3, 4, 5, 6, 7)}
	if CrossEliminates(cans[0], del, m, e) {
		t.Error("a data deletion must not cross-eliminate a pattern insertion")
	}
	patInfo := Info{U: updates.Update{Kind: updates.PatternEdgeDelete}}
	if CrossEliminates(patInfo, del, m, e) {
		t.Error("only pattern edge insertions participate in DER-III")
	}
}

// TestCanSetRelaxation: deleting PM→S(4) can only re-admit PM-labelled
// nodes that currently fail it; in the running example every PM already
// matches, so the set is empty. Tightening the graph first creates a
// genuine candidate.
func TestCanSetRelaxation(t *testing.T) {
	g, ids := paperex.DataGraph()
	p, pids := paperex.PatternFig2(g.Labels())
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := simulation.Run(p, g, e)
	del := updates.Update{Kind: updates.PatternEdgeDelete, From: pids["PM"], To: pids["S"]}
	infos := CanSets([]updates.Update{del}, m, p, g, e)
	if !infos[0].Set.Empty() {
		t.Errorf("Can_AN = %v, want empty (all PMs match)", infos[0].Set)
	}
	// Cut S1 off from PM2's reach: remove SE1→S1 so PM2's path to S1
	// lengthens beyond 4 — PM2 leaves the match, then deleting PM→S(4)
	// would re-admit it.
	g.RemoveEdge(ids["SE1"], ids["S1"])
	e.DeleteEdge(ids["SE1"], ids["S1"])
	m2 := simulation.Run(p, g, e)
	if m2.SimulationSet(pids["PM"]).Contains(ids["PM2"]) {
		t.Skip("graph edit did not exclude PM2; fixture drifted")
	}
	infos2 := CanSets([]updates.Update{del}, m2, p, g, e)
	if !infos2[0].Set.Contains(ids["PM2"]) {
		t.Errorf("Can_AN = %v, want PM2 as re-admission candidate", infos2[0].Set)
	}
}

func TestCanSetNodeDelete(t *testing.T) {
	m, e, _, _, ids, pids := setupExample2(t)
	del := updates.Update{Kind: updates.PatternNodeDelete, Node: pids["TE"]}
	infos := CanSets([]updates.Update{del}, m, m.Pattern(), e.Graph(), e)
	// Deleting the TE pattern node wipes its matches.
	for _, n := range []string{"TE1", "TE2"} {
		if !infos[0].Set.Contains(ids[n]) {
			t.Errorf("Can(UP delete TE) missing %s: %v", n, infos[0].Set)
		}
	}
}

func TestCanSetNodeInsert(t *testing.T) {
	m, e, _, _, _, _ := setupExample2(t)
	ins := updates.Update{Kind: updates.PatternNodeInsert, Node: 4, Labels: []string{"SE"}}
	infos := CanSets([]updates.Update{ins}, m, m.Pattern(), e.Graph(), e)
	se, _ := e.Graph().Labels().Lookup("SE")
	want := nodeset.FromSorted(e.Graph().NodesWithLabel(se))
	if !infos[0].Set.Equal(want) {
		t.Errorf("Can(insert SE node) = %v, want %v", infos[0].Set, want)
	}
	// Unknown label yields an empty set.
	ins2 := updates.Update{Kind: updates.PatternNodeInsert, Node: 5, Labels: []string{"CEO"}}
	infos2 := CanSets([]updates.Update{ins2}, m, m.Pattern(), e.Graph(), e)
	if !infos2[0].Set.Empty() {
		t.Errorf("Can(insert CEO node) = %v, want empty", infos2[0].Set)
	}
}

// TestRemovalCascade builds a chain pattern where removing one candidate
// drags a dependent along (the Example 7 "check connected nodes" step).
func TestRemovalCascade(t *testing.T) {
	g, _ := paperex.DataGraph()
	p, _ := paperex.PatternFig2(g.Labels())
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := simulation.Run(p, g, e)
	// Insert SE→S with bound 1: SE1 keeps S1 at distance 1, SE2's
	// shortest path to S1 is 3 → SE2 is a candidate; PM2 depends on SE1
	// (distance 1) and SE2, PM1 depends on SE2 (distance 1) and SE1 (2
	// ≤ 3): removing SE2 leaves both PMs supported by SE1, so the
	// cascade stops at SE2.
	pids := map[string]uint32{}
	p.Nodes(func(u uint32) { pids[p.Name(u)] = u })
	up := updates.Update{Kind: updates.PatternEdgeInsert, From: pids["SE"], To: pids["S"], Bound: 1}
	infos := CanSets([]updates.Update{up}, m, p, g, e)
	if !infos[0].Set.Contains(3) { // SE2 has id 3
		t.Fatalf("Can_RN = %v, want SE2 (id 3) present", infos[0].Set)
	}
}

func TestAffSetsFromApplication(t *testing.T) {
	_, _, _, uds, _, _ := setupExample2(t)
	sets := []nodeset.Set{nodeset.New(1, 2), nodeset.New(3)}
	infos := AffSetsFromApplication(uds, sets)
	if len(infos) != 2 || !infos[0].Set.Equal(sets[0]) || infos[1].Seq != 1 {
		t.Fatalf("AffSetsFromApplication wrong: %+v", infos)
	}
}

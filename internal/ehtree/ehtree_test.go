package ehtree

import (
	"strings"
	"testing"

	"uagpnm/internal/elim"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/paperex"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// TestPaperFig3EHTree reproduces the EH-Tree of Example 10:
//
//	UD1
//	├── UD2      (Type II: Aff(UD1) ⊇ Aff(UD2))
//	└── UP1      (Type III: UD1 ⇔ UP1)
//	    └── UP2  (Type I: Can(UP1) ⊇ Can(UP2))
func TestPaperFig3EHTree(t *testing.T) {
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
	cans := elim.CanSets(ups, m, p, g, e)
	// Aff_N per update in isolation (Table VII): each applied alone to a
	// clone of the pre-batch state.
	affSets := make([]nodeset.Set, len(uds))
	for i := range uds {
		g2 := g.Clone()
		per, _ := e.Clone(g2).ApplyDataAffected(uds[i:i+1], g2)
		affSets[i] = per[0]
	}
	affInfos := elim.AffSetsFromApplication(uds, affSets)

	// Apply the data updates so DER-III sees SLen_new.
	g.AddEdge(ids["SE1"], ids["TE2"])
	e.InsertEdge(ids["SE1"], ids["TE2"])
	g.AddEdge(ids["DB1"], ids["S1"])
	e.InsertEdge(ids["DB1"], ids["S1"])

	tree := Build(affInfos, cans, func(up, ud elim.Info) bool {
		return elim.CrossEliminates(up, ud, m, e)
	})
	if tree.Size() != 4 {
		t.Fatalf("Size = %d, want 4", tree.Size())
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d, want 1 (UD1); tree:\n%s", len(tree.Roots), tree)
	}
	root := tree.Roots[0]
	if root.Info.U.Kind != updates.DataEdgeInsert || root.Info.U.To != ids["TE2"] {
		t.Fatalf("root = %v, want UD1", root.Info.U)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (UD2, UP1); tree:\n%s", len(root.Children), tree)
	}
	var ud2, up1 *Node
	for _, c := range root.Children {
		if c.Info.U.Kind.IsData() {
			ud2 = c
		} else {
			up1 = c
		}
	}
	if ud2 == nil || ud2.Info.U.To != ids["S1"] || ud2.Cross {
		t.Fatalf("UD2 misplaced: %+v", ud2)
	}
	if up1 == nil || up1.Info.U.Bound != paperex.UP1Bound || !up1.Cross {
		t.Fatalf("UP1 misplaced: %+v", up1)
	}
	if len(up1.Children) != 1 || up1.Children[0].Info.U.Bound != paperex.UP2Bound || up1.Children[0].Cross {
		t.Fatalf("UP2 must hang below UP1 (Type I); tree:\n%s", tree)
	}
	if tree.EliminatedCount() != 3 {
		t.Fatalf("EliminatedCount = %d, want 3", tree.EliminatedCount())
	}
	if tree.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", tree.Depth())
	}
	roots := tree.RootInfos()
	if len(roots) != 1 || !roots[0].Set.Equal(nodeset.New(0, 1, 2, 3, 4, 5, 6, 7)) {
		t.Fatalf("RootInfos = %+v", roots)
	}
}

func info(kind updates.Kind, seq int, set ...uint32) elim.Info {
	return elim.Info{Seq: seq, U: updates.Update{Kind: kind, From: uint32(seq)}, Set: nodeset.New(set...)}
}

func TestForestWhenNoCoverage(t *testing.T) {
	a := info(updates.DataEdgeInsert, 0, 1, 2)
	b := info(updates.DataEdgeInsert, 1, 3, 4)
	tree := Build([]elim.Info{a, b}, nil, nil)
	if len(tree.Roots) != 2 {
		t.Fatalf("disjoint sets must form a forest, got %d roots", len(tree.Roots))
	}
	if tree.EliminatedCount() != 0 {
		t.Fatal("nothing should be eliminated")
	}
}

func TestLargestBecomesRoot(t *testing.T) {
	small := info(updates.DataEdgeDelete, 0, 1)
	big := info(updates.DataEdgeInsert, 1, 1, 2, 3)
	mid := info(updates.DataEdgeInsert, 2, 1, 2)
	tree := Build([]elim.Info{small, big, mid}, nil, nil)
	if len(tree.Roots) != 1 || tree.Roots[0].Info.Set.Len() != 3 {
		t.Fatalf("largest set must root the tree:\n%s", tree)
	}
	// mid under big, small under mid (nested coverage → chain).
	if tree.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3:\n%s", tree.Depth(), tree)
	}
}

func TestSameGraphOnlyCoverage(t *testing.T) {
	ud := info(updates.DataEdgeInsert, 0, 1, 2, 3)
	up := elim.Info{Seq: 0, U: updates.Update{Kind: updates.PatternEdgeInsert}, Set: nodeset.New(1, 2)}
	// No cross function: the pattern update cannot attach below the data
	// update even though the set is covered.
	tree := Build([]elim.Info{ud}, []elim.Info{up}, nil)
	if len(tree.Roots) != 2 {
		t.Fatalf("without DER-III the UP must stay a root:\n%s", tree)
	}
}

func TestWalkAndString(t *testing.T) {
	a := info(updates.DataEdgeInsert, 0, 1, 2, 3)
	b := info(updates.DataEdgeDelete, 1, 1, 2)
	tree := Build([]elim.Info{a, b}, nil, nil)
	var depths []int
	tree.Walk(func(_ *Node, d int) { depths = append(depths, d) })
	if len(depths) != 2 || depths[0] != 0 || depths[1] != 1 {
		t.Fatalf("Walk depths = %v", depths)
	}
	s := tree.String()
	if !strings.Contains(s, "ΔG+DE") || !strings.Contains(s, "  ΔG-DE") {
		t.Fatalf("String:\n%s", s)
	}
}

func TestWriteDot(t *testing.T) {
	a := info(updates.DataEdgeInsert, 0, 1, 2, 3)
	b := info(updates.DataEdgeDelete, 1, 1)
	tree := Build([]elim.Info{a, b}, nil, nil)
	var sb strings.Builder
	if err := tree.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph ehtree", "n0 ->", "shape=box"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// TestRootSetsCoverAll: the union of root sets must equal the union of
// all sets — the property the single-pass amendment relies on.
func TestRootSetsCoverAll(t *testing.T) {
	infos := []elim.Info{
		info(updates.DataEdgeInsert, 0, 1, 2, 3, 4),
		info(updates.DataEdgeInsert, 1, 2, 3),
		info(updates.DataEdgeDelete, 2, 5, 6),
		info(updates.DataEdgeDelete, 3, 6),
		info(updates.DataNodeInsert, 4, 9),
	}
	tree := Build(infos, nil, nil)
	var all, roots nodeset.Builder
	for _, in := range infos {
		all.AddAll(in.Set)
	}
	for _, in := range tree.RootInfos() {
		roots.AddAll(in.Set)
	}
	if !roots.Set().Equal(all.Set()) {
		t.Fatalf("root union %v != all union %v", roots.Set(), all.Set())
	}
}

func TestEmptyTree(t *testing.T) {
	tree := Build(nil, nil, nil)
	if tree.Size() != 0 || tree.Depth() != 0 || len(tree.RootInfos()) != 0 {
		t.Fatal("empty tree invariants broken")
	}
}

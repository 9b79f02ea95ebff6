package updates

import (
	"strings"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
)

func smallGraph() *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < 6; i++ {
		g.AddNode([]string{"A", "B"}[i%2])
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	return g
}

func smallPattern(g *graph.Graph) *pattern.Graph {
	p := pattern.New(g.Labels())
	a := p.AddNode("A")
	b := p.AddNode("B")
	p.AddEdge(a, b, 2)
	return p
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		DataEdgeInsert: "ΔG+DE", DataEdgeDelete: "ΔG-DE",
		DataNodeInsert: "ΔG+DN", DataNodeDelete: "ΔG-DN",
		PatternEdgeInsert: "ΔG+PE", PatternEdgeDelete: "ΔG-PE",
		PatternNodeInsert: "ΔG+PN", PatternNodeDelete: "ΔG-PN",
		Kind(99): "?",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if !DataNodeDelete.IsData() || PatternEdgeInsert.IsData() {
		t.Error("IsData wrong")
	}
}

func TestApplyGraph(t *testing.T) {
	g := smallGraph()
	if _, ok := ApplyGraph(Update{Kind: DataEdgeInsert, From: 4, To: 0}, g); !ok || !g.HasEdge(4, 0) {
		t.Fatal("edge insert failed")
	}
	if _, ok := ApplyGraph(Update{Kind: DataEdgeInsert, From: 4, To: 0}, g); ok {
		t.Fatal("duplicate insert must report no change")
	}
	if _, ok := ApplyGraph(Update{Kind: DataEdgeDelete, From: 4, To: 0}, g); !ok || g.HasEdge(4, 0) {
		t.Fatal("edge delete failed")
	}
	if _, ok := ApplyGraph(Update{Kind: DataEdgeDelete, From: 4, To: 0}, g); ok {
		t.Fatal("double delete must report no change")
	}
	id := uint32(g.NumIDs())
	if _, ok := ApplyGraph(Update{Kind: DataNodeInsert, Node: id, Labels: []string{"A"}}, g); !ok || !g.Alive(id) {
		t.Fatal("node insert failed")
	}
	g.AddEdge(id, 0)
	g.AddEdge(1, id)
	removed, ok := ApplyGraph(Update{Kind: DataNodeDelete, Node: id}, g)
	if !ok || g.Alive(id) || len(removed) != 2 {
		t.Fatalf("node delete: ok %v, alive %v, removed %v", ok, g.Alive(id), removed)
	}
	if _, ok := ApplyGraph(Update{Kind: DataNodeDelete, Node: id}, g); ok {
		t.Fatal("double node delete must report no change")
	}
}

func TestApplyGraphPanicsOnWrongSide(t *testing.T) {
	for _, u := range []Update{
		{Kind: PatternEdgeInsert},
		{Kind: DataNodeInsert, Node: 99, Labels: []string{"A"}}, // not the id the graph hands out
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: want panic", u)
				}
			}()
			ApplyGraph(u, smallGraph())
		}()
	}
}

func TestApplyPattern(t *testing.T) {
	g := smallGraph()
	p := smallPattern(g)
	if !ApplyPattern(Update{Kind: PatternEdgeDelete, From: 0, To: 1}, p) {
		t.Fatal("pattern edge delete failed")
	}
	if ApplyPattern(Update{Kind: PatternEdgeDelete, From: 0, To: 1}, p) {
		t.Fatal("double delete must report false")
	}
	if !ApplyPattern(Update{Kind: PatternEdgeInsert, From: 0, To: 1, Bound: 3}, p) {
		t.Fatal("pattern edge insert failed")
	}
	id := pattern.NodeID(p.NumIDs())
	if !ApplyPattern(Update{Kind: PatternNodeInsert, Node: id, Labels: []string{"B"}}, p) {
		t.Fatal("pattern node insert failed")
	}
	if !ApplyPattern(Update{Kind: PatternNodeDelete, Node: id}, p) {
		t.Fatal("pattern node delete failed")
	}
}

func TestGenerateConsistency(t *testing.T) {
	g := smallGraph()
	p := smallPattern(g)
	for seed := int64(0); seed < 20; seed++ {
		b := Generate(Balanced(seed, 4, 12), g, p)
		// Replay on clones: every structural apply must be coherent (the
		// engine-free path tests the predictions).
		g2 := g.Clone()
		for _, u := range b.D {
			ApplyGraph(u, g2)
		}
		p2 := p.Clone()
		ApplyPatternBatch(b.P, p2)
		if err := p2.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGenerateBalancedCounts(t *testing.T) {
	cfg := Balanced(1, 8, 16)
	total := cfg.PatternEdgeInserts + cfg.PatternEdgeDeletes + cfg.PatternNodeInserts + cfg.PatternNodeDeletes
	if total != 8 {
		t.Fatalf("pattern updates = %d, want 8", total)
	}
	dTotal := cfg.DataEdgeInserts + cfg.DataEdgeDeletes + cfg.DataNodeInserts + cfg.DataNodeDeletes
	if dTotal != 16 {
		t.Fatalf("data updates = %d, want 16", dTotal)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	g := smallGraph()
	p := smallPattern(g)
	a := Generate(Balanced(5, 3, 9), g, p)
	b := Generate(Balanced(5, 3, 9), g, p)
	if len(a.D) != len(b.D) || len(a.P) != len(b.P) {
		t.Fatal("same seed, different batch sizes")
	}
	for i := range a.D {
		if a.D[i].String() != b.D[i].String() {
			t.Fatal("same seed, different data updates")
		}
	}
}

func TestParseScript(t *testing.T) {
	in := `
# a comment
+e 1 2
-e 2 3
+n 6 A,B
-n 4
+pe 0 1 3
+pe 1 0 *
-pe 0 1
+pn 2 B
-pn 1
`
	b, err := ParseScript(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.D) != 4 || len(b.P) != 5 {
		t.Fatalf("parsed %d data, %d pattern updates", len(b.D), len(b.P))
	}
	if b.D[2].Kind != DataNodeInsert || len(b.D[2].Labels) != 2 {
		t.Fatalf("node insert parsed wrong: %+v", b.D[2])
	}
	if b.P[1].Bound != pattern.Star {
		t.Fatalf("star bound parsed wrong: %+v", b.P[1])
	}
}

func TestParseScriptErrors(t *testing.T) {
	bad := []string{
		"frob 1 2\n", "+e 1\n", "+e x 2\n", "+pe 0 1 0\n", "+pe 0 1 -2\n",
		"+n zz A\n", "-n\n", "-pe 1\n", "+pn 1\n", "-pn x\n",
	}
	for _, in := range bad {
		if _, err := ParseScript(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

func TestUpdateString(t *testing.T) {
	cases := []struct {
		u    Update
		want string
	}{
		{Update{Kind: DataEdgeInsert, From: 1, To: 2}, "ΔG+DE(1->2)"},
		{Update{Kind: PatternEdgeInsert, From: 0, To: 1, Bound: pattern.Star}, "ΔG+PE(0-(*)->1)"},
		{Update{Kind: DataNodeDelete, Node: 7}, "ΔG-DN(7)"},
		{Update{Kind: DataNodeInsert, Node: 3, Labels: []string{"A"}}, "ΔG+DN(3 [A])"},
	}
	for _, c := range cases {
		if got := c.u.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestFormatScript(t *testing.T) {
	in := "+e 1 2\n-e 2 3\n+n 6 A,B\n-n 4\n+pe 0 1 3\n+pe 1 0 *\n-pe 0 1\n+pn 2 b,c\n-pn 1\n"
	b, err := ParseScript(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := FormatScript(&out, b); err != nil || out.String() != in {
		t.Fatalf("wrote %q, err %v; want %q", out.String(), err, in)
	}
	if b.Size() != 9 {
		t.Fatalf("Size = %d, want 9", b.Size())
	}
	for _, b := range []Batch{
		{D: []Update{{Kind: DataNodeInsert, Node: 6}}},                             // no labels
		{D: []Update{{Kind: DataNodeInsert, Node: 6, Labels: []string{"A", ""}}}},  // empty label
		{D: []Update{{Kind: DataNodeInsert, Node: 6, Labels: []string{"A,B"}}}},    // comma in the list
		{P: []Update{{Kind: PatternNodeInsert, Node: 2, Labels: []string{"A B"}}}}, // whitespace
		{P: []Update{{Kind: PatternNodeInsert, Node: 2, Labels: []string{"A", "B"}}}},
		{P: []Update{{Kind: PatternEdgeInsert, From: 0, To: 1, Bound: 0}}},
		{D: []Update{{Kind: PatternEdgeDelete, From: 0, To: 1}}}, // wrong side
		{P: []Update{{Kind: DataEdgeDelete, From: 0, To: 1}}},
		{D: []Update{{Kind: Kind(99)}}},
	} {
		var sb strings.Builder
		if err := FormatScript(&sb, b); err == nil || sb.Len() != 0 {
			t.Errorf("%v | %v: wrote %q, err %v; want a refusal and no text", b.D, b.P, sb.String(), err)
		}
	}
}

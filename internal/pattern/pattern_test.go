package pattern

import (
	"strings"
	"testing"
)

func TestBound(t *testing.T) {
	if !Star.IsStar() || Bound(3).IsStar() {
		t.Fatal("IsStar wrong")
	}
	if !Star.Valid() || !Bound(1).Valid() || Bound(0).Valid() || Bound(-2).Valid() {
		t.Fatal("Valid wrong")
	}
	if Star.String() != "*" || Bound(4).String() != "4" {
		t.Fatal("String wrong")
	}
}

func TestAddRemoveEdge(t *testing.T) {
	p := New(nil)
	a, b := p.AddNode("PM"), p.AddNode("SE")
	if !p.AddEdge(a, b, 3) {
		t.Fatal("fresh edge should insert")
	}
	if p.AddEdge(a, b, 2) {
		t.Fatal("duplicate edge should be rejected")
	}
	if p.AddEdge(a, a, 1) {
		t.Fatal("self loop should be rejected")
	}
	if p.AddEdge(a, b, 0) {
		t.Fatal("invalid bound should be rejected")
	}
	if bound, ok := p.EdgeBound(a, b); !ok || bound != 3 {
		t.Fatalf("EdgeBound = %v,%v", bound, ok)
	}
	if bound, ok := p.RemoveEdge(a, b); !ok || bound != 3 {
		t.Fatalf("RemoveEdge = %v,%v", bound, ok)
	}
	if _, ok := p.RemoveEdge(a, b); ok {
		t.Fatal("double remove should fail")
	}
	if p.NumEdges() != 0 {
		t.Fatal("edge count wrong")
	}
}

func TestRemoveNode(t *testing.T) {
	p := New(nil)
	a, b, c := p.AddNode("A"), p.AddNode("B"), p.AddNode("C")
	p.AddEdge(a, b, 1)
	p.AddEdge(c, b, 2)
	removed, ok := p.RemoveNode(b)
	if !ok || len(removed) != 2 {
		t.Fatalf("RemoveNode: ok=%v removed=%v", ok, removed)
	}
	if p.Alive(b) || p.NumNodes() != 2 || p.NumEdges() != 0 {
		t.Fatal("state after RemoveNode wrong")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Bounds travel with the removed edges (needed for undo).
	for _, e := range removed {
		if e.From == c && e.B != 2 {
			t.Fatalf("removed edge lost its bound: %v", e)
		}
	}
}

func TestMaxFiniteBoundAndStar(t *testing.T) {
	p := New(nil)
	a, b, c := p.AddNode("A"), p.AddNode("B"), p.AddNode("C")
	p.AddEdge(a, b, 2)
	p.AddEdge(b, c, 5)
	if p.MaxFiniteBound() != 5 || p.HasStar() {
		t.Fatal("bound scan wrong")
	}
	p.AddEdge(a, c, Star)
	if p.MaxFiniteBound() != 5 || !p.HasStar() {
		t.Fatal("star scan wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(nil)
	a, b := p.AddNode("A"), p.AddNode("B")
	p.AddEdge(a, b, 2)
	c := p.Clone()
	c.RemoveEdge(a, b)
	c.AddNode("C")
	if _, ok := p.EdgeBound(a, b); !ok {
		t.Fatal("clone mutation leaked")
	}
	if p.NumIDs() != 2 {
		t.Fatal("clone node leaked")
	}
}

func TestOutInIteration(t *testing.T) {
	p := New(nil)
	a, b, c := p.AddNode("A"), p.AddNode("B"), p.AddNode("C")
	p.AddEdge(a, c, 3)
	p.AddEdge(a, b, 1)
	var seq []NodeID
	p.Out(a, func(v NodeID, bd Bound) { seq = append(seq, v) })
	if len(seq) != 2 || seq[0] != b || seq[1] != c {
		t.Fatalf("Out order = %v", seq)
	}
	cnt := 0
	p.In(c, func(v NodeID, bd Bound) {
		cnt++
		if v != a || bd != 3 {
			t.Fatalf("In saw %d bound %d", v, bd)
		}
	})
	if cnt != 1 {
		t.Fatal("In count wrong")
	}
	if p.OutDegree(a) != 2 || p.OutDegree(c) != 0 {
		t.Fatal("OutDegree wrong")
	}
}

const fig1Pattern = `
# Fig. 1(b): an IT project team
node pm PM
node se SE
node te TE
node s  S
edge pm se 3
edge pm s  4
edge se te 3
edge s  te *
`

func TestParseFormatRoundTrip(t *testing.T) {
	p, err := Parse(strings.NewReader(fig1Pattern), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 4 || p.NumEdges() != 4 {
		t.Fatalf("parsed %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	if !p.HasStar() || p.MaxFiniteBound() != 4 {
		t.Fatal("bounds parsed wrong")
	}
	text := p.String()
	p2, err := Parse(strings.NewReader(text), nil)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", text, err)
	}
	if p2.NumNodes() != 4 || p2.NumEdges() != 4 {
		t.Fatal("round trip lost structure")
	}
	// Same edge bounds after round trip.
	p.Edges(func(e Edge) {
		b2, ok := p2.EdgeBound(e.From, e.To)
		if !ok || b2 != e.B {
			t.Fatalf("edge %v lost in round trip", e)
		}
	})
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"node a\n",
		"node a A\nnode a B\n",
		"edge a b 1\n",
		"node a A\nedge a b 1\n",
		"node a A\nnode b B\nedge a b zero\n",
		"node a A\nnode b B\nedge a b 0\n",
		"node a A\nnode b B\nedge a b 1\nedge a b 2\n",
		"frob a b\n",
		"node a A\nedge a b\n",
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in), nil); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

func TestParseBound(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Bound // 0 = error
	}{
		{"*", Star}, {"7", 7}, {"2147483647", 2147483647},
		{"0", 0}, {"-1", 0}, {"x", 0}, {"", 0},
		// One past int32 and 2³²−1: a wrapping conversion reads them as a
		// negative bound (IsStar, not Valid) and as "*".
		{"2147483649", 0}, {"4294967295", 0},
	} {
		b, err := ParseBound(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("ParseBound(%q) = %v, want error", tc.in, b)
			}
		} else if err != nil || b != tc.want {
			t.Errorf("ParseBound(%q) = %v, %v, want %v", tc.in, b, err, tc.want)
		}
	}
}

func TestNamedNodesShareLabel(t *testing.T) {
	p := New(nil)
	a := p.AddNamedNode("se1", "SE")
	b := p.AddNamedNode("se2", "SE")
	if p.Label(a) != p.Label(b) {
		t.Fatal("same label string should intern to same id")
	}
	if p.Name(a) == p.Name(b) {
		t.Fatal("names should differ")
	}
	if p.LabelName(a) != "SE" {
		t.Fatal("LabelName wrong")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	p := New(nil)
	a, b := p.AddNode("A"), p.AddNode("B")
	p.AddEdge(a, b, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: mark b dead without removing edges.
	p.alive[b] = false
	if err := p.Validate(); err == nil {
		t.Fatal("Validate should flag edges touching dead nodes")
	}
}

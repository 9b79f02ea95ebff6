package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(nil)
	a := g.AddNode("PM")
	b := g.AddNode("SE")
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d,%d; want 0,1", a, b)
	}
	if g.NumNodes() != 2 || g.NumIDs() != 2 {
		t.Fatalf("NumNodes=%d NumIDs=%d, want 2,2", g.NumNodes(), g.NumIDs())
	}
}

func TestAddEdgeRules(t *testing.T) {
	g := New(nil)
	a, b := g.AddNode("A"), g.AddNode("B")
	if !g.AddEdge(a, b) {
		t.Fatal("fresh edge should insert")
	}
	if g.AddEdge(a, b) {
		t.Fatal("duplicate edge should be rejected")
	}
	if g.AddEdge(a, a) {
		t.Fatal("self loop should be rejected")
	}
	if g.AddEdge(a, 99) {
		t.Fatal("edge to unknown node should be rejected")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Fatal("HasEdge direction wrong")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(nil)
	a, b := g.AddNode("A"), g.AddNode("B")
	g.AddEdge(a, b)
	if !g.RemoveEdge(a, b) {
		t.Fatal("existing edge should remove")
	}
	if g.RemoveEdge(a, b) {
		t.Fatal("missing edge should report false")
	}
	if g.NumEdges() != 0 || g.HasEdge(a, b) {
		t.Fatal("edge not fully removed")
	}
}

func TestRemoveNodeCascades(t *testing.T) {
	g := New(nil)
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, b)
	removed, ok := g.RemoveNode(b)
	if !ok {
		t.Fatal("RemoveNode should succeed")
	}
	if len(removed) != 3 {
		t.Fatalf("removed %d incident edges, want 3: %v", len(removed), removed)
	}
	if g.Alive(b) || g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatal("node removal left stale state")
	}
	if len(g.Out(a)) != 0 || len(g.In(c)) != 0 {
		t.Fatal("adjacency not cleaned")
	}
	if _, ok := g.RemoveNode(b); ok {
		t.Fatal("double remove should report false")
	}
	// ids are not reused
	d := g.AddNode("D")
	if d != 3 {
		t.Fatalf("new node id = %d, want 3 (no reuse)", d)
	}
}

func TestLabelIndex(t *testing.T) {
	g := New(nil)
	pm := g.Labels().Intern("PM")
	a := g.AddNode("PM")
	b := g.AddNode("PM", "SE")
	_ = g.AddNode("SE")
	got := g.NodesWithLabel(pm)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("NodesWithLabel(PM) = %v, want [%d %d]", got, a, b)
	}
	g.RemoveNode(a)
	got = g.NodesWithLabel(pm)
	if len(got) != 1 || got[0] != b {
		t.Fatalf("after removal NodesWithLabel(PM) = %v, want [%d]", got, b)
	}
	if !g.HasLabel(b, pm) {
		t.Fatal("HasLabel(b, PM) = false")
	}
	se, _ := g.Labels().Lookup("SE")
	if g.HasLabel(a, se) {
		t.Fatal("HasLabel on dead node's absent label should be false")
	}
}

func TestSetNodeLabels(t *testing.T) {
	g := New(nil)
	a := g.AddNode("X")
	x, _ := g.Labels().Lookup("X")
	y := g.Labels().Intern("Y")
	if !g.SetNodeLabels(a, y, y) {
		t.Fatal("SetNodeLabels should succeed")
	}
	if g.HasLabel(a, x) || !g.HasLabel(a, y) {
		t.Fatal("labels not replaced")
	}
	if len(g.NodeLabels(a)) != 1 {
		t.Fatal("duplicate labels not collapsed")
	}
	if len(g.NodesWithLabel(x)) != 0 || len(g.NodesWithLabel(y)) != 1 {
		t.Fatal("label index not updated")
	}
	if g.SetNodeLabels(99, y) {
		t.Fatal("SetNodeLabels on unknown node should fail")
	}
}

func TestDedupAtAddNode(t *testing.T) {
	g := New(nil)
	a := g.AddNode("Z", "Z", "A")
	labs := g.NodeLabels(a)
	if len(labs) != 2 {
		t.Fatalf("labels = %v, want deduped 2", labs)
	}
	if !sort.SliceIsSorted(labs, func(i, j int) bool { return labs[i] < labs[j] }) {
		t.Fatal("labels not sorted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(nil)
	a, b := g.AddNode("A"), g.AddNode("B")
	g.AddEdge(a, b)
	c := g.Clone()
	c.RemoveEdge(a, b)
	c.AddNode("C")
	if !g.HasEdge(a, b) {
		t.Fatal("clone mutation leaked into original (edges)")
	}
	if g.NumIDs() != 2 {
		t.Fatal("clone mutation leaked into original (nodes)")
	}
	if c.NumEdges() != 0 || c.NumNodes() != 3 {
		t.Fatal("clone state wrong")
	}
}

// TestCloneLeavesRoomForInserts: a clone's id-indexed slices take the
// first node inserts in place — a forked session's next batch does not
// regrow all four — and those inserts do not reach the original.
func TestCloneLeavesRoomForInserts(t *testing.T) {
	g := New(nil)
	for i := 0; i < 100; i++ {
		g.AddNode("A")
	}
	c := g.Clone()
	caps := func(h *Graph) [4]int { return [4]int{cap(h.out), cap(h.in), cap(h.nlab), cap(h.alive)} }
	before := caps(c)
	for i := 0; i < 25; i++ {
		c.AddEdge(c.AddNode("B"), 0)
	}
	if after := caps(c); after != before {
		t.Fatalf("the clone's first 25 inserts regrew out/in/nlab/alive: capacities %v, then %v", before, after)
	}
	if g.NumIDs() != 100 || len(g.In(0)) != 0 || len(g.NodesWithLabel(g.Labels().Intern("B"))) != 0 {
		t.Fatal("inserts on the clone reached the original")
	}
}

func TestNodesAndEdgesIteration(t *testing.T) {
	g := New(nil)
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	g.AddEdge(b, a)
	g.AddEdge(a, c)
	g.RemoveNode(b)
	var nodes []NodeID
	g.Nodes(func(id NodeID) { nodes = append(nodes, id) })
	if len(nodes) != 2 || nodes[0] != a || nodes[1] != c {
		t.Fatalf("Nodes = %v", nodes)
	}
	var edges []Edge
	g.Edges(func(e Edge) { edges = append(edges, e) })
	if len(edges) != 1 || edges[0] != (Edge{a, c}) {
		t.Fatalf("Edges = %v", edges)
	}
}

func TestComputeStats(t *testing.T) {
	g := New(nil)
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("A")
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	s := g.ComputeStats()
	if s.Nodes != 3 || s.Edges != 2 || s.Labels != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDeg != 2 || s.MaxInDeg != 1 {
		t.Fatalf("degree stats = %+v", s)
	}
	if s.NodesWithoutOutEdges != 2 || s.NodesWithoutInEdges != 1 {
		t.Fatalf("no-degree stats = %+v", s)
	}
	if s.AvgOutDeg < 0.66 || s.AvgOutDeg > 0.67 {
		t.Fatalf("AvgOutDeg = %v", s.AvgOutDeg)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New(nil)
	ids := make([]NodeID, 5)
	for i := range ids {
		ids[i] = g.AddNode("person")
	}
	g.AddEdge(ids[0], ids[1])
	g.AddEdge(ids[1], ids[2])
	g.AddEdge(ids[3], ids[4])
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf, nil, "person")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("round trip edges = %d, want 3", g2.NumEdges())
	}
}

func TestReadEdgeListSkipsCommentsAndLoops(t *testing.T) {
	in := "# header\n\n1\t2\n2\t2\n2\t3\n"
	g, idMap, err := ReadEdgeList(strings.NewReader(in), nil, "x")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("nodes=%d edges=%d, want 3,2 (self loop skipped)", g.NumNodes(), g.NumEdges())
	}
	if _, ok := idMap[3]; !ok {
		t.Fatal("file id 3 not mapped")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"1\n", "a b\n", "1 b\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(in), nil, "x"); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	g := New(nil)
	a := g.AddNode("PM")
	b := g.AddNode("SE", "TE")
	var buf bytes.Buffer
	if err := g.WriteLabels(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := New(nil)
	if g2.AddNode("tmp") != a || g2.AddNode("tmp") != b {
		t.Fatal("setup mismatch")
	}
	if err := g2.ApplyLabels(&buf); err != nil {
		t.Fatal(err)
	}
	pm, _ := g2.Labels().Lookup("PM")
	te, _ := g2.Labels().Lookup("TE")
	if !g2.HasLabel(a, pm) || !g2.HasLabel(b, te) {
		t.Fatal("labels not applied")
	}
}

func TestApplyLabelsErrors(t *testing.T) {
	g := New(nil)
	g.AddNode("x")
	for _, in := range []string{"0\n", "zz y\n", "7 L\n", "0 ,\n"} {
		if err := g.ApplyLabels(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

// Property-style test: a random mutation sequence keeps invariants:
// counters match reality, adjacency stays sorted and mirror-consistent,
// and the label index matches node labels.
func TestRandomMutationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := New(nil)
	labels := []string{"A", "B", "C"}
	var liveIDs []NodeID
	reap := func() {
		liveIDs = liveIDs[:0]
		g.Nodes(func(id NodeID) { liveIDs = append(liveIDs, id) })
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(liveIDs) < 2:
			g.AddNode(labels[rng.Intn(len(labels))])
			reap()
		case op < 7:
			u := liveIDs[rng.Intn(len(liveIDs))]
			v := liveIDs[rng.Intn(len(liveIDs))]
			g.AddEdge(u, v)
		case op < 9:
			u := liveIDs[rng.Intn(len(liveIDs))]
			out := g.Out(u)
			if len(out) > 0 {
				g.RemoveEdge(u, out[rng.Intn(len(out))])
			}
		default:
			g.RemoveNode(liveIDs[rng.Intn(len(liveIDs))])
			reap()
		}
	}
	// Verify invariants.
	edgeCount, nodeCount := 0, 0
	for u := range g.out {
		if !g.alive[u] {
			if len(g.out[u]) != 0 || len(g.in[u]) != 0 {
				t.Fatal("dead node has adjacency")
			}
			continue
		}
		nodeCount++
		if !sort.SliceIsSorted(g.out[u], func(i, j int) bool { return g.out[u][i] < g.out[u][j] }) {
			t.Fatal("out adjacency unsorted")
		}
		for _, v := range g.out[u] {
			edgeCount++
			if !containsSorted(g.in[v], NodeID(u)) {
				t.Fatalf("edge %d->%d missing from in-list", u, v)
			}
		}
	}
	if nodeCount != g.NumNodes() || edgeCount != g.NumEdges() {
		t.Fatalf("counters diverged: nodes %d/%d edges %d/%d",
			nodeCount, g.NumNodes(), edgeCount, g.NumEdges())
	}
	for l, ns := range g.byLabel {
		for _, id := range ns {
			if !g.Alive(id) || !g.HasLabel(id, l) {
				t.Fatalf("label index stale: node %d label %d", id, l)
			}
		}
	}
}

// TestRemoveNodeReleasesAdjacency churns deletes and inserts at a
// roughly constant node count: ids are never reused, so a dead id must
// not keep its adjacency arrays, and releasing them must not change what
// Edges or Clone see.
func TestRemoveNodeReleasesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(nil)
	want := map[Edge]bool{}
	var live []NodeID
	for i := 0; i < 40; i++ {
		live = append(live, g.AddNode("A"))
	}
	for step := 0; step < 300; step++ {
		for k := 0; k < 4; k++ {
			u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if g.AddEdge(u, v) {
				want[Edge{u, v}] = true
			}
		}
		i := rng.Intn(len(live))
		removed, _ := g.RemoveNode(live[i])
		for _, e := range removed {
			delete(want, e)
		}
		live[i] = g.AddNode("A")
	}
	edgeSet := func(g *Graph) map[Edge]bool {
		got := map[Edge]bool{}
		g.Edges(func(e Edge) { got[e] = true })
		return got
	}
	c := g.Clone()
	for _, h := range []*Graph{g, c} {
		for id := NodeID(0); int(id) < h.NumIDs(); id++ {
			if !h.Alive(id) && (h.Out(id) != nil || h.In(id) != nil) {
				t.Fatalf("dead node %d keeps its adjacency arrays", id)
			}
		}
		got := edgeSet(h)
		if len(got) != len(want) || h.NumEdges() != len(want) {
			t.Fatalf("%d edges (NumEdges %d), want %d", len(got), h.NumEdges(), len(want))
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("edge %v missing", e)
			}
		}
	}
}

func BenchmarkAddEdge(b *testing.B) {
	g := New(nil)
	n := 1000
	for i := 0; i < n; i++ {
		g.AddNode("x")
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		g.AddEdge(u, v)
		g.RemoveEdge(u, v)
	}
}

package simulation

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// fixture is a hand-built data graph with named nodes: a node's label is
// its name's letters in upper case ("b2" carries "B").
type fixture struct {
	g   *graph.Graph
	ids map[string]uint32
}

// newFixture parses "a1>x1 x1>b1 d9": edges create their endpoints, a
// bare name is an isolated node.
func newFixture(spec string) *fixture {
	f := &fixture{g: graph.New(nil), ids: map[string]uint32{}}
	for _, tok := range strings.Fields(spec) {
		ends := strings.Split(tok, ">")
		for _, name := range ends {
			f.node(name)
		}
		if len(ends) == 2 {
			f.g.AddEdge(f.ids[ends[0]], f.ids[ends[1]])
		}
	}
	return f
}

func labelOf(name string) string {
	return strings.ToUpper(strings.TrimRight(name, "0123456789"))
}

func (f *fixture) node(name string) uint32 {
	id, ok := f.ids[name]
	if !ok {
		id = f.g.AddNode(labelOf(name))
		f.ids[name] = id
	}
	return id
}

// pat parses "A>B:1 B>C:* D" into a pattern with one node per name; a
// node's label is its name without digits ("A2" carries "A").
func (f *fixture) pat(spec string) (*pattern.Graph, map[string]pattern.NodeID) {
	p := pattern.New(f.g.Labels())
	ids := map[string]pattern.NodeID{}
	node := func(name string) pattern.NodeID {
		if _, ok := ids[name]; !ok {
			ids[name] = p.AddNamedNode(name, labelOf(name))
		}
		return ids[name]
	}
	for _, tok := range strings.Fields(spec) {
		edge, bound, hasBound := strings.Cut(tok, ":")
		from, to, isEdge := strings.Cut(edge, ">")
		node(from)
		if !isEdge {
			continue
		}
		b := pattern.Star
		if hasBound && bound != "*" {
			k, err := strconv.Atoi(bound)
			if err != nil {
				panic(err)
			}
			b = pattern.Bound(k)
		}
		p.AddEdge(node(from), node(to), b)
	}
	return p, ids
}

func (f *fixture) set(names ...string) nodeset.Set {
	var b nodeset.Builder
	for _, n := range names {
		b.Add(f.ids[n])
	}
	return b.Set()
}

// amendCase is one adversarial amendment: a graph, the pattern the old
// match was computed for, and a change that yields the new pattern and
// the data updates to apply.
type amendCase struct {
	name    string
	graph   string
	pattern string
	horizon int
	// change mutates newP (a clone of the pattern) and returns the data
	// updates of the batch, by node name.
	change func(f *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update
	// maxSeeds bounds the pairs Phase A may hand to Phase B.
	maxSeeds int
	// spared names pairs ("B:b9") that must not be among those seeds:
	// the node-level closure swept them in, the pair rule must not.
	spared []string
	// want, when set, lists the expected simulation image per label.
	want map[string][]string
}

func edgeIns(f *fixture, from, to string) updates.Update {
	return updates.Update{Kind: updates.DataEdgeInsert, From: f.ids[from], To: f.ids[to]}
}

func edgeDel(f *fixture, from, to string) updates.Update {
	return updates.Update{Kind: updates.DataEdgeDelete, From: f.ids[from], To: f.ids[to]}
}

var amendCases = []amendCase{
	{
		// Every seed is an old match of every pattern node carrying its
		// label, and stays one: nothing is new and nothing cascades. a3
		// and b3 sit right behind the seeds with pattern labels; the old
		// closure took them in at radius maxIn.
		name:    "seeds-are-old-matches",
		graph:   "a1>b1 a2>b2 a3>y1 y1>a1 b3>y2 y2>a2 b1>y3 b2>y4",
		pattern: "A>B:1",
		horizon: 1,
		change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
			return []updates.Update{edgeIns(f, "a1", "b2")}
		},
		maxSeeds: 2, // (A,a1) and (B,b2), both dirty old pairs
		spared:   []string{"A:a3", "B:b3", "A:a2", "B:b1"},
		want:     map[string][]string{"A": {"a1", "a2"}, "B": {"b1", "b2", "b3"}},
	},
	{
		// One inserted edge makes d1 a match; c1, b1 and a1 follow only
		// through the reverse balls of the edge they hang on, at that
		// edge's own bound 3, 2, 1 (the horizon keeps their rows
		// unchanged, so none of them is a seed). The decoys sit one hop
		// too far for their own edge but inside the widest bound.
		name: "newcomer-chain-per-edge-bounds",
		graph: "a1>b1 b1>x1 x1>c1 c1>x2 x2>x3 x3>d1 e1 " +
			"a9>x4 x4>b1 " + // a9 is 2 from b1: too far for A>B:1
			"b9>x5 x5>x6 x6>c1", // b9 is 3 from c1: too far for B>C:2
		pattern: "A>B:1 B>C:2 C>D:3 D>E:1",
		horizon: 3,
		change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
			return []updates.Update{edgeIns(f, "d1", "e1")}
		},
		maxSeeds: 5, // the four newcomers and the dirty old pair (E,e1)
		spared:   []string{"A:a9", "B:b9"},
		want:     map[string][]string{"A": {"a1"}, "B": {"b1"}, "C": {"c1"}, "D": {"d1"}, "E": {"e1"}},
	},
	{
		// c1 is b1's only supporter and b1 is a1's: deleting c1 must
		// take both with it, a1 through the removal cascade alone (at
		// horizon 2 its row never held c1). The second group stands.
		name:    "sole-supporter-deleted",
		graph:   "a1>x1 x1>b1 b1>c1 a2>x2 x2>b2 b2>c2",
		pattern: "A>B:2 B>C:1",
		horizon: 2,
		change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
			return []updates.Update{{Kind: updates.DataNodeDelete, Node: f.ids["c1"]}}
		},
		maxSeeds: 1, // (B,b1); (C,c1) died with its node
		spared:   []string{"A:a1", "A:a2", "B:b2"},
		want:     map[string][]string{"A": {"a2"}, "B": {"b2"}, "C": {"c2"}},
	},
	{
		name:    "pattern-edge-inserted",
		graph:   "a1>b1 a1>c1 a2>b2 a3>b3 b1>c1",
		pattern: "A>B:1 C",
		horizon: 3,
		change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
			newP.AddEdge(pids["A"], pids["C"], 1)
			return nil
		},
		maxSeeds: 3, // the three old matches of the restricted node A
		spared:   []string{"B:b1", "C:c1"},
		want:     map[string][]string{"A": {"a1"}, "B": {"b1", "b2", "b3"}, "C": {"c1"}},
	},
	{
		name:    "pattern-edge-deleted",
		graph:   "a1>b1 a1>c1 a2>b2 a3>y1 z1>a2 z2>a3",
		pattern: "Z>A:1 A>B:1 A>C:1",
		horizon: 3,
		change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
			newP.RemoveEdge(pids["A"], pids["C"])
			return nil
		},
		// A is rebuilt: a1 and a2, its label-feasible candidates; z1
		// enters behind newcomer a2. a3 has no B within 1, so neither it
		// nor z2 behind it is tried.
		maxSeeds: 3,
		spared:   []string{"B:b1", "B:b2", "C:c1", "A:a3", "Z:z2"},
		want:     map[string][]string{"A": {"a1", "a2"}, "Z": {"z1"}},
	},
	{
		name:    "bound-tightened",
		graph:   "a1>b1 a2>y1 y1>b2 a3>y2 y2>y3 y3>b3",
		pattern: "A>B:3",
		horizon: 3,
		change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
			newP.RemoveEdge(pids["A"], pids["B"])
			newP.AddEdge(pids["A"], pids["B"], 2)
			return nil
		},
		maxSeeds: 3,
		spared:   []string{"B:b1", "B:b2", "B:b3"},
		want:     map[string][]string{"A": {"a1", "a2"}},
	},
	{
		name:    "bound-loosened",
		graph:   "a1>b1 a2>y1 y1>b2 a3>y2 y2>y3 y3>b3 z1>a3 z2>y4 y4>a3",
		pattern: "Z>A:1 A>B:1",
		horizon: 3,
		change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
			newP.RemoveEdge(pids["A"], pids["B"])
			newP.AddEdge(pids["A"], pids["B"], 3)
			return nil
		},
		maxSeeds: 4, // A's three candidates and (Z,z1); z2 is 2 from a3, Z>A is 1
		spared:   []string{"Z:z2", "B:b1"},
		want:     map[string][]string{"A": {"a1", "a2", "a3"}, "Z": {"z1"}},
	},
	{
		name:    "pattern-node-added",
		graph:   "a1>b1 a2>b2 b1>c1 c2",
		pattern: "A>B:1",
		horizon: 3,
		change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
			c := newP.AddNamedNode("C", "C")
			newP.AddEdge(pids["B"], c, 1)
			return nil
		},
		maxSeeds: 4, // C's two candidates and the restricted B's two matches
		spared:   []string{"A:a1", "A:a2"},
		want:     map[string][]string{"A": {"a1"}, "B": {"b1"}, "C": {"c1", "c2"}},
	},
	{
		name:    "pattern-node-removed",
		graph:   "a1>b1 a2>b2 b1>c1 z1>b2",
		pattern: "Z>B:1 A>B:1 B>C:1",
		horizon: 3,
		change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
			newP.RemoveNode(pids["C"])
			return nil
		},
		// B is rebuilt (two candidates); a2 and z1 enter behind newcomer b2.
		maxSeeds: 4,
		spared:   []string{"A:a1"},
		want:     map[string][]string{"A": {"a1", "a2"}, "B": {"b1", "b2"}, "Z": {"z1"}},
	},
	{
		// One ΔGP both relaxes A (A>B goes) and restricts it (A>C comes).
		name:    "restricted-and-relaxed",
		graph:   "a1>b1 a1>c1 a2>b2 a3>c3 z1>a3 z2>a2",
		pattern: "Z>A:1 A>B:1 C",
		horizon: 3,
		change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
			newP.RemoveEdge(pids["A"], pids["B"])
			newP.AddEdge(pids["A"], pids["C"], 1)
			return nil
		},
		maxSeeds: 4, // A's three candidates and newcomer (Z,z1); (Z,z2) is old and falls by cascade
		spared:   []string{"B:b1", "C:c1", "Z:z2"},
		want:     map[string][]string{"A": {"a1", "a3"}, "Z": {"z1"}},
	},
	{
		// The hub_fan churn unit: a matched node is deleted and comes
		// back under a new id with the same label and neighbours.
		name:    "node-deleted-and-reinserted",
		graph:   "a1>b1 b1>c1 a2>b2 b2>c2 a3>b2",
		pattern: "A>B:1 B>C:1",
		horizon: 3,
		change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
			fresh := uint32(f.g.NumIDs())
			f.ids["b9"] = fresh
			return []updates.Update{
				{Kind: updates.DataNodeDelete, Node: f.ids["b1"]},
				{Kind: updates.DataNodeInsert, Node: fresh, Labels: []string{"B"}},
				edgeIns(f, "a1", "b9"),
				edgeIns(f, "b9", "c1"),
			}
		},
		maxSeeds: 3, // (A,a1) and (C,c1) dirty, (B,b9) new; (B,b1) died with its node
		spared:   []string{"A:a2", "A:a3", "B:b2", "C:c2"},
		want:     map[string][]string{"A": {"a1", "a2", "a3"}, "B": {"b2", "b9"}, "C": {"c1", "c2"}},
	},
	{
		// "*" on a capped oracle means "within the horizon": a2 gains a
		// path of length 3 and enters, a3's is 4 long and stays out.
		name:    "star-bound-capped-oracle",
		graph:   "a1>b1 a2>y1 y1>y2 a3>y3 y3>y4 y4>y2 y2>y5 z1>a2 z2>a3",
		pattern: "Z>A:* A>B:*",
		horizon: 3,
		change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
			return []updates.Update{edgeIns(f, "y2", "b1")}
		},
		maxSeeds: 3, // (B,b1) dirty, newcomers (A,a2) and (Z,z1)
		spared:   []string{"A:a3", "Z:z2", "A:a1"},
		want:     map[string][]string{"A": {"a1", "a2"}, "B": {"b1"}, "Z": {"z1"}},
	},
	{
		// A cycle closes: b1 is seeded and its only supporter, a1, is a
		// newcomer the closure finds behind it (a1's own row is
		// unchanged). The check reads the label's nodes, not the
		// optimistic images, or b1 would be refused before a1 is in.
		name:    "cyclic-seed-supported-by-closure",
		graph:   "a1>b1 a2>b2",
		pattern: "A>B:1 B>A:1",
		horizon: 3,
		change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
			return []updates.Update{edgeIns(f, "b1", "a1")}
		},
		maxSeeds: 2, // newcomers (B,b1) and (A,a1)
		spared:   []string{"A:a2", "B:b2"},
		want:     map[string][]string{"A": {"a1"}, "B": {"b1"}},
	},
	{
		// A and A2 both carry A, and a1 is the only A node: (A,a1) is
		// feasible through A>A2 by a1 itself at distance 0.
		name:    "same-label-edge-self-support",
		graph:   "a1 b1 b2",
		pattern: "A>A2:1 A2>B:1",
		horizon: 3,
		change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
			return []updates.Update{edgeIns(f, "a1", "b1")}
		},
		maxSeeds: 2, // newcomers (A,a1) and (A2,a1); the sink B is not seeded
		want:     map[string][]string{"A": {"a1"}, "A2": {"a1"}, "B": {"b1", "b2"}},
	},
	{
		// Loosening A>B to 2 rebuilds A, but only a1 and a2 have a B
		// within 2: a3 (3 hops), a4 and a5 are refused, and z3, z4 behind
		// them are never tried.
		name:    "rebuilt-node-infeasible-candidates",
		graph:   "a1>b1 a2>y1 y1>b2 a3>y2 y2>y3 y3>b3 a4 a5>y4 z1>a1 z2>a2 z3>a3 z4>a4",
		pattern: "Z>A:1 A>B:1",
		horizon: 3,
		change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
			newP.RemoveEdge(pids["A"], pids["B"])
			newP.AddEdge(pids["A"], pids["B"], 2)
			return nil
		},
		maxSeeds: 3, // A's pairs a1 and a2, and newcomer (Z,z2)
		spared:   []string{"A:a3", "A:a4", "A:a5", "Z:z3", "Z:z4"},
		want:     map[string][]string{"A": {"a1", "a2"}, "B": {"b1", "b2", "b3"}, "Z": {"z1", "z2"}},
	},
	{
		name:    "edge-deleted-and-supporter-replaced",
		graph:   "a1>b1 a1>y1 y1>b2 b1>c1 b2>c1",
		pattern: "A>B:2 B>C:1",
		horizon: 3,
		change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
			return []updates.Update{edgeDel(f, "a1", "b1")}
		},
		maxSeeds: 3,
		want:     map[string][]string{"A": {"a1"}, "B": {"b1", "b2"}, "C": {"c1"}},
	},
}

// TestAmendAdversarialTable runs each hand-built amendment through
// Amend and Run, and bounds what Phase A hands to Phase B: the pairs a
// batch can change, not a node closure.
func TestAmendAdversarialTable(t *testing.T) {
	for _, c := range amendCases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(c.graph)
			p, pids := f.pat(c.pattern)
			e := shortest.NewEngine(f.g, c.horizon)
			e.Build()
			old := Run(p, f.g, e)

			newP := p.Clone()
			seeds, _ := e.ApplyData(c.change(f, newP, pids), f.g)

			_, _, dirty, _ := amendPlan(old, newP, f.g, e, seeds)
			if len(dirty) > c.maxSeeds {
				t.Errorf("Phase B is seeded with %d pairs, want at most %d: %v", len(dirty), c.maxSeeds, f.render(newP, dirty))
			}
			seen := map[Pair]bool{}
			for _, it := range dirty {
				if seen[it] {
					t.Errorf("seed pair %v listed twice", f.render(newP, []Pair{it}))
				}
				seen[it] = true
			}
			for _, name := range c.spared {
				l, node, _ := strings.Cut(name, ":")
				newP.Nodes(func(u pattern.NodeID) {
					if newP.Name(u) == l && seen[Pair{u, f.ids[node]}] {
						t.Errorf("pair %s is a Phase B seed; the batch cannot change it", name)
					}
				})
			}

			scratch := Run(newP, f.g, e)
			amended, _ := Amend(old, newP, f.g, e, seeds)
			if !amended.Equal(scratch) {
				logDiff(t, amended, scratch, newP)
				t.Fatal("Amend != Run")
			}
			checkLenInvariant(t, amended)
			newP.Nodes(func(u pattern.NodeID) {
				names, ok := c.want[newP.Name(u)]
				if !ok {
					return
				}
				if got, want := scratch.SimulationSet(u), f.set(names...); !got.Equal(want) {
					t.Errorf("the case does not exercise what it claims: image of %s is %v, want %v (%v)",
						newP.Name(u), got, want, names)
				}
			})
		})
	}
}

// render names seed pairs for a failure message.
func (f *fixture) render(p *pattern.Graph, pairs []Pair) []string {
	names := map[uint32]string{}
	for name, id := range f.ids {
		names[id] = name
	}
	var out []string
	for _, it := range pairs {
		out = append(out, fmt.Sprintf("%s:%s", p.Name(it.U), names[it.V]))
	}
	return out
}

// TestDepthSeedsOnlyWithinReach pins the depth rule of Phase A on a
// pattern A→B with bound 1, where B is a sink. Inserting b2→b1 moves the
// rows of b2 (depth 1) and a2 (depth 2); inserting node b3 and a1→b3
// puts b3 on the log at depth 0 and a1 at depth 1. A (maxOut 1) is
// seeded by a1 alone, and the sink B (maxOut 0) by the inserted b3
// alone — a moved row seeds a sink at no depth — and the pass still
// equals Run, b3 in sim(B).
func TestDepthSeedsOnlyWithinReach(t *testing.T) {
	f := newFixture("a1>b1 a2>b2 b1>b2")
	p, pids := f.pat("A>B:1")
	e := shortest.NewEngine(f.g, 3)
	e.Build()
	old := Run(p, f.g, e)
	b3 := uint32(f.g.NumIDs())
	log, _ := e.ApplyData([]updates.Update{
		edgeIns(f, "b2", "b1"),
		{Kind: updates.DataNodeInsert, Node: b3, Labels: []string{"B"}},
		{Kind: updates.DataEdgeInsert, From: f.ids["a1"], To: b3},
	}, f.g)
	f.ids["b3"] = b3
	amended, owned, dirty, seedPairs := amendPlan(old, p, f.g, e, log)
	if got := f.render(p, dirty); seedPairs != 2 || !slices.Equal(got, []string{"A:a1", "B:b3"}) {
		t.Fatalf("log %v at depths %v seeded %d pairs, Phase B starts from %v; want A:a1 and B:b3",
			log.Nodes, log.Depth, seedPairs, got)
	}
	w := newWorklist(p.NumIDs(), f.g.NumIDs())
	for _, it := range dirty {
		w.push(it.U, it.V)
	}
	amended.drain(w, f.g, e, owned)
	if want := Run(p, f.g, e); !amended.Equal(want) || !amended.SimulationSet(pids["B"]).Contains(b3) {
		logDiff(t, amended, want, p)
		t.Fatal("the depth-seeded pass differs from Run, or left the inserted b3 out of sim(B)")
	}
}

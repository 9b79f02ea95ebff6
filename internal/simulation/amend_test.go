package simulation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// TestParallelAmendMatchesSequential pins the AmendN forwarder that
// benchmark/layers.go calls: AmendN ignores its worker count and must
// return Amend's match bit for bit, at the exact and a capped horizon,
// whatever width it is handed.
func TestParallelAmendMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			for _, horizon := range []int{0, 3} {
				seed := int64(4000 + 100*horizon)
				g, p := randomShape(seed).Instance(seed)
				e := shortest.NewEngine(g, horizon)
				e.Build()
				old := Run(p, g, e)
				batch := updates.Generate(updates.Balanced(seed, 4, 12), g, p)
				seeds, _ := e.ApplyData(batch.D, g)
				newP := p.Clone()
				updates.ApplyPatternBatch(batch.P, newP)
				if fwd, want := AmendN(old, newP, g, e, seeds.Nodes, workers), amend(old, newP, g, e, seeds); !fwd.Equal(want) {
					logDiff(t, fwd, want, newP)
					t.Fatalf("horizon %d: AmendN(%d) != Amend", horizon, workers)
				}
			}
		})
	}
}

// amendAndCheck applies one random batch and requires Amend ≡ Run on
// the updated state, with every set's population count coherent; it
// returns the batch's change log and the amended pattern.
func amendAndCheck(t *testing.T, g *graph.Graph, p *pattern.Graph, horizon, trial int) (nodeset.Set, *pattern.Graph) {
	t.Helper()
	e := shortest.NewEngine(g, horizon)
	e.Build()
	iquery := Run(p, g, e)

	batch := updates.Generate(updates.Balanced(int64(trial), 4, 12), g, p)
	seeds, _ := e.ApplyData(batch.D, g)
	newP := p.Clone()
	updates.ApplyPatternBatch(batch.P, newP)
	if h := newP.MaxFiniteBound(); h > 0 {
		e.EnsureHorizon(h)
	}

	amended, _ := Amend(iquery, newP, g, e, seeds)
	if scratch := Run(newP, g, e); !amended.Equal(scratch) {
		logDiff(t, amended, scratch, newP)
		t.Fatalf("trial %d (horizon %d): Amend != Run (batch %v | %v)",
			trial, horizon, batch.P, batch.D)
	}
	checkLenInvariant(t, amended)
	return seeds.Nodes, newP
}

// TestAmendForeignLabelSeeds is the differential case for the Phase A
// seed filter: the data graph carries sixteen labels and the pattern
// two of them, so most of every change log is nodes no pattern node
// asks for — which Amend drops from the frontier — and the result must
// still equal Run.
func TestAmendForeignLabelSeeds(t *testing.T) {
	seeded, foreign := 0, 0
	for _, horizon := range []int{0, 3} {
		for trial := 0; trial < 15; trial++ {
			seed := int64(7000 + 100*horizon + trial)
			rng := rand.New(rand.NewSource(seed))
			g, p := testkit.Shape{Nodes: 60 + rng.Intn(20), Edges: 200 + rng.Intn(80), Labels: 16,
				PatNodes: 3 + rng.Intn(3), PatEdges: 4 + rng.Intn(3), PatLabels: 2}.Instance(seed)
			seeds, newP := amendAndCheck(t, g, p, horizon, trial)
			wanted := labelInterest(newP)
			for _, x := range seeds {
				if g.Alive(x) {
					seeded++
					if !slices.ContainsFunc(g.NodeLabels(x), func(l graph.LabelID) bool { return len(wanted[l]) > 0 }) {
						foreign++
					}
				}
			}
		}
	}
	if seeded == 0 || foreign*4 < seeded*3 {
		t.Fatalf("%d of %d change-log nodes are foreign-label, want at least three quarters", foreign, seeded)
	}
}

// TestAmendChain amends its own output batch after batch — each round's
// result is the next round's input — so a divergence that only shows
// when Amend consumes its own output (e.g. a stale population count)
// accumulates and trips the scratch comparison; on a capped and on an
// exact oracle.
func TestAmendChain(t *testing.T) {
	t.Run("capped", func(t *testing.T) {
		amendChain(t, 77, 90, 3, 10, func(r int) int64 { return int64(31 * r) })
	})
	t.Run("exact", func(t *testing.T) {
		amendChain(t, 177, 80, 0, 8, func(r int) int64 { return int64(200 + r) })
	})
}

// amendChain runs rounds batches on one random instance, feeding each
// round's amended match to the next, and compares every round with a
// scratch Run.
func amendChain(t *testing.T, seed int64, edges, horizon, rounds int, batchSeed func(round int) int64) {
	t.Helper()
	g, p := testkit.Shape{Nodes: 30, Edges: edges, Labels: 3, PatNodes: 4, PatEdges: 5}.Instance(seed)
	e := shortest.NewEngine(g, horizon)
	e.Build()
	m := Run(p, g, e)
	for round := 0; round < rounds; round++ {
		batch := updates.Generate(updates.Balanced(batchSeed(round), 3, 8), g, p)
		seeds, _ := e.ApplyData(batch.D, g)
		newP := p.Clone()
		updates.ApplyPatternBatch(batch.P, newP)
		if h := newP.MaxFiniteBound(); h > 0 {
			e.EnsureHorizon(h)
		}
		m, _ = Amend(m, newP, g, e, seeds)
		p = newP
		if scratch := Run(p, g, e); !m.Equal(scratch) {
			logDiff(t, m, scratch, p)
			t.Fatalf("round %d: chained amend diverged from scratch", round)
		}
		// Len must stay coherent with membership round over round —
		// the chained input feeds Phase A's set iteration.
		checkLenInvariant(t, m)
	}
}

// checkLenInvariant verifies every set's incremental population count
// against an actual membership walk.
func checkLenInvariant(t *testing.T, m *Match) {
	t.Helper()
	for u, b := range m.sets {
		if b == nil {
			continue
		}
		cnt := 0
		b.Range(func(uint32) bool { cnt++; return true })
		if cnt != b.Len() {
			t.Fatalf("pattern node %d: Len() %d != %d members", u, b.Len(), cnt)
		}
	}
}

// amend is Amend's match alone.
func amend(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, log shortest.ChangeLog) *Match {
	m, _ := Amend(old, newP, g, o, log)
	return m
}

// images snapshots every simulation image of m, indexed by pattern node.
func images(m *Match) []nodeset.Set {
	out := make([]nodeset.Set, len(m.sets))
	m.p.Nodes(func(u pattern.NodeID) { out[u] = m.SimulationSet(u) })
	return out
}

// amendKeepingOld runs Amend and fails unless old reads afterwards as
// it did before — every image and population count — and the result
// equals Run. It returns the amended match.
func amendKeepingOld(t *testing.T, old *Match, newP *pattern.Graph, g *graph.Graph, e shortest.Oracle, log shortest.ChangeLog) *Match {
	t.Helper()
	before := images(old)
	amended, _ := Amend(old, newP, g, e, log)
	old.p.Nodes(func(u pattern.NodeID) {
		if got := old.SimulationSet(u); !got.Equal(before[u]) {
			t.Fatalf("Amend wrote old's image of %s: %v, was %v", old.p.Name(u), got, before[u])
		}
	})
	checkLenInvariant(t, old)
	if want := Run(newP, g, e); !amended.Equal(want) {
		logDiff(t, amended, want, newP)
		t.Fatal("Amend != Run")
	}
	return amended
}

// TestAmendLeavesOldUntouched pins Amend's copy-on-write: the match it
// starts from reads the same after the pass, whichever write the pass
// makes — a dead member removed, a restricted node's pair drained, a
// relaxed node's newcomer admitted, a drain that cascades to an
// in-neighbour — and an image the batch left alone is old's own, so a
// pass that changes nothing allocates no image. Each case names the
// pattern nodes whose images must come out shared; every adversarial
// amendment of amendCases is checked the same way.
func TestAmendLeavesOldUntouched(t *testing.T) {
	cases := []struct {
		name, graph, pattern string
		change               func(f *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update
		shared               []string
	}{
		{
			name: "node-delete", graph: "a1>b1 a2>b1 a2>b2", pattern: "A>B:1",
			change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
				return []updates.Update{{Kind: updates.DataNodeDelete, Node: f.ids["b2"]}}
			},
			shared: []string{"A"},
		},
		{
			name: "restricted", graph: "a1>b1 a1>c1 a2>b1 c1", pattern: "A>B:1 C",
			change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
				newP.AddEdge(pids["A"], pids["C"], 1)
				return nil
			},
			shared: []string{"B", "C"},
		},
		{
			name: "relaxed", graph: "a1>b1 a2>x1 x1>b1", pattern: "A>B:1",
			change: func(_ *fixture, newP *pattern.Graph, pids map[string]pattern.NodeID) []updates.Update {
				newP.RemoveEdge(pids["A"], pids["B"])
				newP.AddEdge(pids["A"], pids["B"], 2)
				return nil
			},
			shared: []string{"B"},
		},
		{
			name: "drain-cascade", graph: "a1>b1 a2>b2 b1>c1 b2>c2", pattern: "A>B:1 B>C:1",
			change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
				return []updates.Update{edgeDel(f, "b2", "c2")}
			},
			shared: []string{"C"},
		},
		{
			name: "nothing-changes", graph: "a1>b1 d1 d2", pattern: "A>B:1",
			change: func(f *fixture, _ *pattern.Graph, _ map[string]pattern.NodeID) []updates.Update {
				return []updates.Update{edgeIns(f, "d1", "d2")}
			},
			shared: []string{"A", "B"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(c.graph)
			p, pids := f.pat(c.pattern)
			e := shortest.NewEngine(f.g, 3)
			e.Build()
			old := Run(p, f.g, e)
			newP := p.Clone()
			log, _ := e.ApplyData(c.change(f, newP, pids), f.g)
			amended := amendKeepingOld(t, old, newP, f.g, e, log)
			newP.Nodes(func(u pattern.NodeID) {
				if isShared := amended.sets[u] == old.sets[u]; isShared != slices.Contains(c.shared, newP.Name(u)) {
					t.Errorf("the image of %s is shared with old: %v, want %v", newP.Name(u), isShared, !isShared)
				}
			})
		})
	}
	t.Run("adversarial-table", func(t *testing.T) {
		for _, c := range amendCases {
			f := newFixture(c.graph)
			p, pids := f.pat(c.pattern)
			e := shortest.NewEngine(f.g, c.horizon)
			e.Build()
			old := Run(p, f.g, e)
			newP := p.Clone()
			log, _ := e.ApplyData(c.change(f, newP, pids), f.g)
			amendKeepingOld(t, old, newP, f.g, e, log)
		}
	})
}

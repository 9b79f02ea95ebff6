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
				_, seeds, _ := e.ApplyDataBatch(batch.D, g)
				newP := p.Clone()
				updates.ApplyPatternBatch(batch.P, newP)
				if fwd, want := AmendN(old, newP, g, e, seeds, workers), Amend(old, newP, g, e, seeds); !fwd.Equal(want) {
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
	_, seeds, _ := e.ApplyDataBatch(batch.D, g)
	newP := p.Clone()
	updates.ApplyPatternBatch(batch.P, newP)
	if h := newP.MaxFiniteBound(); h > 0 {
		e.EnsureHorizon(h)
	}

	amended := Amend(iquery, newP, g, e, seeds)
	if scratch := Run(newP, g, e); !amended.Equal(scratch) {
		logDiff(t, amended, scratch, newP)
		t.Fatalf("trial %d (horizon %d): Amend != Run (batch %v | %v)",
			trial, horizon, batch.P, batch.D)
	}
	checkLenInvariant(t, amended)
	return seeds, newP
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
		_, seeds, _ := e.ApplyDataBatch(batch.D, g)
		newP := p.Clone()
		updates.ApplyPatternBatch(batch.P, newP)
		if h := newP.MaxFiniteBound(); h > 0 {
			e.EnsureHorizon(h)
		}
		m = Amend(m, newP, g, e, seeds)
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

// TestLabelSetSizedOnce pins the newcomer probe's label bitset: one
// handed out too small (as a fresh one from the pool is) is replaced by
// a bitset sized for the graph's ids, not regrown word by word while it
// is filled — a fill allocates a few times, not once per 64 ids.
func TestLabelSetSizedOnce(t *testing.T) {
	g := graph.New(nil)
	for i := 0; i < 64*64; i++ {
		g.AddNode("A")
	}
	l := g.NodeLabels(0)[0]
	p := newNewcomerProbe(g, func(pattern.NodeID, uint32) {})
	allocs := testing.AllocsPerRun(20, func() {
		labelBits.Put(nodeset.NewBits(0))
		if bits := p.labelled(l); bits.Len() != g.NumIDs() {
			t.Fatalf("the label set holds %d of %d nodes", bits.Len(), g.NumIDs())
		}
		p.release()
		labelBits.Get() // the filled set: the next run is handed a small one
	})
	if allocs > 4 {
		t.Fatalf("filling a label set allocates %.0f times", allocs)
	}
}

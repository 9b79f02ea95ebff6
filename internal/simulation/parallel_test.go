package simulation

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// TestParallelAmendMatchesSequential is the pinning test of the striped
// drain: for random graphs, patterns and update batches, AmendN at every
// worker count must equal the sequential Amend AND a scratch Run on the
// updated state, bit for bit.
func TestParallelAmendMatchesSequential(t *testing.T) {
	labels := []string{"A", "B", "C", "D"}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			for _, horizon := range []int{0, 3} {
				for trial := 0; trial < 15; trial++ {
					rng := rand.New(rand.NewSource(int64(4000 + 100*horizon + trial)))
					g := randomLabeled(rng, 25+rng.Intn(20), 60+rng.Intn(60), labels)
					p := randomPattern(rng, g.Labels(), 3+rng.Intn(4), 4+rng.Intn(4), labels, 3)
					amendBothWays(t, rng, g, p, horizon, trial, workers)
				}
			}
		})
	}
}

// amendBothWays applies one random batch and requires AmendN ≡ Amend ≡
// Run on the updated state; it returns the batch's change log and the
// amended pattern.
func amendBothWays(t *testing.T, rng *rand.Rand, g *graph.Graph, p *pattern.Graph, horizon, trial, workers int) (nodeset.Set, *pattern.Graph) {
	t.Helper()
	e := shortest.NewEngine(g, horizon)
	e.Build()
	iquery := Run(p, g, e)

	batch := updates.Generate(updates.Balanced(int64(trial), 4, 12), g, p)
	seeds := updates.ApplyDataBatch(batch.D, g, e)
	newP := p.Clone()
	updates.ApplyPatternBatch(batch.P, newP)
	if h := newP.MaxFiniteBound(); h > 0 {
		e.EnsureHorizon(h)
	}

	par := AmendN(iquery, newP, g, e, seeds, workers)
	seq := Amend(iquery, newP, g, e, seeds)
	if !par.Equal(seq) {
		logDiff(t, par, seq, newP)
		t.Fatalf("trial %d (horizon %d): AmendN(%d) != Amend (batch %v | %v)",
			trial, horizon, workers, batch.P, batch.D)
	}
	if scratch := Run(newP, g, e); !par.Equal(scratch) {
		logDiff(t, par, scratch, newP)
		t.Fatalf("trial %d (horizon %d): AmendN(%d) != Run", trial, horizon, workers)
	}
	// The Len invariant must be restored after the atomic phase.
	checkLenInvariant(t, par)
	return seeds, newP
}

// TestAmendForeignLabelSeeds is the differential case for the Phase A
// seed filter: the data graph carries sixteen labels and the pattern
// two of them, so most of every change log is nodes no pattern node
// asks for — which Amend and AmendN drop from the frontier — and the
// result must still equal Run.
func TestAmendForeignLabelSeeds(t *testing.T) {
	var labels []string
	for i := 0; i < 16; i++ {
		labels = append(labels, string(rune('A'+i)))
	}
	for _, workers := range []int{1, 4} {
		seeded, foreign := 0, 0
		for _, horizon := range []int{0, 3} {
			for trial := 0; trial < 15; trial++ {
				rng := rand.New(rand.NewSource(int64(7000 + 100*horizon + trial)))
				g := randomLabeled(rng, 60+rng.Intn(20), 200+rng.Intn(80), labels)
				p := randomPattern(rng, g.Labels(), 3+rng.Intn(3), 4+rng.Intn(3), labels[:2], 3)
				seeds, newP := amendBothWays(t, rng, g, p, horizon, trial, workers)
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
			t.Fatalf("workers %d: %d of %d change-log nodes are foreign-label, want at least three quarters", workers, foreign, seeded)
		}
	}
}

// TestParallelAmendChain amends the parallel result repeatedly — each
// round's AmendN output is the next round's input — so a divergence that
// only manifests when the parallel path consumes its own output (e.g. a
// stale population count) accumulates and trips the scratch comparison.
func TestParallelAmendChain(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := rand.New(rand.NewSource(177))
	g := randomLabeled(rng, 30, 80, labels)
	p := randomPattern(rng, g.Labels(), 4, 5, labels, 3)
	e := shortest.NewEngine(g, 0)
	e.Build()
	m := Run(p, g, e)
	for round := 0; round < 8; round++ {
		batch := updates.Generate(updates.Balanced(int64(200+round), 3, 8), g, p)
		seeds := updates.ApplyDataBatch(batch.D, g, e)
		newP := p.Clone()
		updates.ApplyPatternBatch(batch.P, newP)
		m = AmendN(m, newP, g, e, seeds, 4)
		p = newP
		if scratch := Run(p, g, e); !m.Equal(scratch) {
			logDiff(t, m, scratch, p)
			t.Fatalf("round %d: chained AmendN diverged from scratch", round)
		}
		// Len must stay coherent with membership round over round —
		// the chained input feeds Phase A's set iteration.
		checkLenInvariant(t, m)
	}
}

// checkLenInvariant verifies every set's incremental population count
// against an actual membership walk (Recount must have run).
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

// TestParallelAmendStress widens the workload (bigger graphs, denser
// batches, workers beyond GOMAXPROCS) to shake out scheduling-dependent
// races; skipped under -short.
func TestParallelAmendStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress variant skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(4)
	}
	labels := []string{"A", "B", "C", "D", "E"}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		g := randomLabeled(rng, 120+rng.Intn(60), 400+rng.Intn(200), labels)
		p := randomPattern(rng, g.Labels(), 4+rng.Intn(4), 6+rng.Intn(5), labels, 3)
		e := shortest.NewEngine(g, 0)
		e.Build()
		iquery := Run(p, g, e)

		batch := updates.Generate(updates.Balanced(int64(50+trial), 10, 30), g, p)
		seeds := updates.ApplyDataBatch(batch.D, g, e)
		newP := p.Clone()
		updates.ApplyPatternBatch(batch.P, newP)
		if h := newP.MaxFiniteBound(); h > 0 {
			e.EnsureHorizon(h)
		}
		par := AmendN(iquery, newP, g, e, seeds, 8)
		if seq := Amend(iquery, newP, g, e, seeds); !par.Equal(seq) {
			logDiff(t, par, seq, newP)
			t.Fatalf("trial %d: stress AmendN(8) != Amend", trial)
		}
	}
}

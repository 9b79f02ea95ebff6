package hub

import (
	"testing"

	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// FuzzIndexWake fuzzes the signature extractor + wake planner against
// the conservative-contract oracle on randomized pattern/batch pairs:
//
//	affected(pattern, batch) ⇒ the indexed touch-set contains pattern
//
// observed as "a registration whose delta is non-empty must have been
// woken this batch" (wokenSeq == batch seq — a skipped registration
// never enters the fan, so a non-empty delta from one would be
// impossible; the oracle catches the under-approximation before it
// could even manifest as a wrong result). Alongside, every pattern's
// match must equal the unindexed hub's after every batch — so
// over-aggressive skipping that silently freezes a match is caught
// even when it happens to produce an empty delta.
//
// The corpus seeds run as regular tests in every `go test`; `go test
// -fuzz=FuzzIndexWake ./internal/hub` explores further.
func FuzzIndexWake(f *testing.F) {
	f.Add(int64(1), int64(100))
	f.Add(int64(42), int64(4242))
	f.Add(int64(92000), int64(17))
	f.Add(int64(-7), int64(0))
	f.Fuzz(func(t *testing.T, seed, batchSeed int64) {
		const k = 5
		// Shared label alphabet and dense-ish graph: the adversarial
		// regime for the index, where most batches touch most patterns
		// and any dropped wake shows up immediately.
		g, ps := testkit.Shape{Nodes: 30, Edges: 70, Labels: 5, PatNodes: 4, PatEdges: 5}.Patterns(seed%1_000_000, k)

		indexed := mustHub(t, g.Clone(), Config{Horizon: 3})
		plain := mustHub(t, g.Clone(), Config{Horizon: 3, disableIndex: true})
		idsI := make([]PatternID, k)
		idsP := make([]PatternID, k)
		for i, p := range ps {
			idsI[i] = mustRegister(t, indexed, p.Clone())
			idsP[i] = mustRegister(t, plain, p.Clone())
		}

		for round := 0; round < 3; round++ {
			rs := batchSeed*31 + int64(round)
			// Data updates against the current graph state; every other
			// round also evolves pattern 0 (ΔGP rebuilds its signature).
			data := updates.Generate(updates.Balanced(rs, 0, 8), indexed.Graph(), ps[0])
			perPattern := map[PatternID][]updates.Update{}
			perPatternP := map[PatternID][]updates.Update{}
			if round%2 == 1 {
				pg, ok := indexed.PatternGraph(idsI[0])
				if !ok {
					t.Fatal("pattern 0 vanished")
				}
				pb := updates.Generate(updates.Balanced(rs*7, 2, 0), indexed.Graph(), pg)
				perPattern[idsI[0]] = pb.P
				perPatternP[idsP[0]] = pb.P
			}

			dsI, stI, err := indexed.ApplyBatch(t.Context(), Batch{D: data.D, P: perPattern})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := plain.ApplyBatch(t.Context(), Batch{D: data.D, P: perPatternP}); err != nil {
				t.Fatal(err)
			}
			if stI.Woken+stI.Skipped != stI.Patterns {
				t.Fatalf("stats don't partition: %+v", stI)
			}

			indexed.mu.Lock()
			for i, d := range dsI {
				r := indexed.regs[idsI[i]]
				if len(d.Nodes) > 0 && r.wokenSeq != stI.Seq {
					indexed.mu.Unlock()
					t.Fatalf("round %d pattern %d: non-empty delta from a skipped registration (wokenSeq=%d, seq=%d)\nD=%v",
						round, i, r.wokenSeq, stI.Seq, data.D)
				}
			}
			indexed.mu.Unlock()

			for i := range ps {
				gotI, okI := indexed.Match(idsI[i])
				gotP, okP := plain.Match(idsP[i])
				if !okI || !okP {
					t.Fatal("registration vanished")
				}
				if !gotI.Equal(gotP) {
					t.Fatalf("round %d pattern %d: indexed match diverges from unindexed\nD=%v P=%v",
						round, i, data.D, perPattern[idsI[i]])
				}
			}
		}
	})
}

package core

import (
	"testing"

	"uagpnm/internal/elim"
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// TestUAPassNeedsNoCanSeeds pins why detection is off the UA path: one
// amendment pass seeded by the change log alone equals the pass seeded by
// the change log united with every Can_N and every Aff_N (whatever a tree
// over them would have kept as roots lies in between), and both equal a
// fresh Run — on batches with ΔGP only (an empty seed set), ΔGD only,
// both, and deletes the batch does not apply (the pre-state sweeps read
// their balls, which add nothing the applied updates do not name). Aff_N
// is the one the method's engine hands out: the global engine's, read off
// its synchronisation, and partition.AffectedSets on the partition
// engine. The change log is the forward log, a strict subset of ∪Aff_N
// on every batch with ΔGD: Aff_N names both ends of each moved pair, the
// log only the sources. SQuery's SeedNodes is |change log|, its
// SeedPairs the pairs the log's depths seeded.
func TestUAPassNeedsNoCanSeeds(t *testing.T) {
	for _, m := range []Method{UAGPNM, UAGPNMNoPar} {
		g, p := testkit.Shape{Nodes: 40, Edges: 110, Labels: 4, PatNodes: 4, PatEdges: 5}.Instance(61)
		s := NewSession(g, p, Config{Method: m, Horizon: 3})

		// notApplied deletes an edge twice, then its source node twice,
		// then the node's other out-edges (gone with it) and an edge that
		// never existed.
		notApplied := func() updates.Batch {
			var e graph.Edge
			s.G.Edges(func(ed graph.Edge) {
				if e == (graph.Edge{}) && ed.From != ed.To {
					e = ed
				}
			})
			d := []updates.Update{
				{Kind: updates.DataEdgeDelete, From: e.From, To: e.To},
				{Kind: updates.DataEdgeDelete, From: e.From, To: e.To},
				{Kind: updates.DataNodeDelete, Node: e.From},
				{Kind: updates.DataNodeDelete, Node: e.From},
			}
			for _, out := range s.G.Out(e.From) {
				d = append(d, updates.Update{Kind: updates.DataEdgeDelete, From: e.From, To: out})
			}
			return updates.Batch{D: append(d, updates.Update{Kind: updates.DataEdgeDelete, From: e.To, To: e.From + 1000})}
		}
		for _, tc := range []struct {
			name  string
			batch func() updates.Batch
		}{
			{"pattern only", func() updates.Batch { return updates.Generate(updates.Balanced(1, 4, 0), s.G, s.P) }},
			{"data only", func() updates.Batch { return updates.Generate(updates.Balanced(2, 0, 12), s.G, s.P) }},
			{"both", func() updates.Batch { return updates.Generate(updates.Balanced(3, 3, 10), s.G, s.P) }},
			{"not applied", notApplied},
		} {
			name, b := tc.name, tc.batch()
			served := s.Fork()
			cans := elim.CanSets(b.P, s.Match, s.P, s.G, s.Engine)
			affSets, changeLog := s.affectedData(b.D, s.G.Clone())
			newP := s.P.Clone()
			updates.ApplyPatternBatch(b.P, newP)
			s.ensureHorizonFor(newP)
			if len(b.D) == 0 && changeLog.Len() != 0 {
				t.Fatalf("%v, %s: change log %v without data updates", m, name, changeLog)
			}
			var affUnion nodeset.Set
			for _, a := range affSets {
				affUnion = affUnion.Union(a)
			}
			if len(b.D) > 0 && (!affUnion.Covers(changeLog.Nodes) || changeLog.Len() == affUnion.Len()) {
				t.Fatalf("%v, %s: change log %v is not a strict subset of ∪Aff_N %v", m, name, changeLog, affUnion)
			}
			wide := changeLog.Nodes.Union(affUnion)
			for _, c := range cans {
				wide = wide.Union(c.Set)
			}
			lean, seedPairs := simulation.Amend(s.Match, newP, s.G, s.Engine, changeLog)
			if fat, _ := simulation.Amend(s.Match, newP, s.G, s.Engine, shortest.ChangeLog{Nodes: wide}); !lean.Equal(fat) {
				t.Fatalf("%v, %s: %d change-log seeds and %d seeds with every Can_N and Aff_N disagree",
					m, name, changeLog.Len(), wide.Len())
			}
			if !lean.Equal(simulation.Run(newP, s.G, s.Engine)) {
				t.Fatalf("%v, %s: pass seeded by the change log differs from a fresh Run", m, name)
			}
			if got := served.SQuery(b); !got.Equal(lean) {
				t.Fatalf("%v, %s: SQuery differs from the change-log pass", m, name)
			}
			if st := served.Stats; st.SeedNodes != changeLog.Len() || st.SeedPairs != seedPairs || st.Passes != 1 {
				t.Fatalf("%v, %s: SQuery reports %d seeds, %d seed pairs in %d passes, want |change log| = %d, %d in 1",
					m, name, st.SeedNodes, st.SeedPairs, st.Passes, changeLog.Len(), seedPairs)
			}
			s.Match, s.P = lean, newP
		}
	}
}

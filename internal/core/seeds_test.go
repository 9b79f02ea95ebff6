package core

import (
	"math/rand"
	"testing"

	"uagpnm/internal/ehtree"
	"uagpnm/internal/elim"
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
	"uagpnm/internal/updates"
)

// TestUASeedsEqualChangeLogUnionRoots pins uaSeeds, which unions only
// the pattern-side roots into the change log, to the expression it
// replaced — the change log united with every root set — on batches with
// ΔGP only, ΔGD only, both, and deletes the batch does not apply (their
// pre-state balls reach the tree although they never enter the change
// log themselves).
func TestUASeedsEqualChangeLogUnionRoots(t *testing.T) {
	labels := []string{"A", "B", "C", "D"}
	for _, m := range []Method{UAGPNM, UAGPNMNoPar} {
		rng := rand.New(rand.NewSource(61))
		g := randomLabeled(rng, 40, 110, labels)
		p := randomPattern(rng, g.Labels(), 4, 5, labels)
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
			canInfos := elim.CanSets(b.P, s.Match, s.P, s.G, s.Engine)
			var affSets []nodeset.Set
			var changeLog nodeset.Set
			if pe, ok := s.Engine.(*partition.Engine); ok {
				var err error
				if affSets, changeLog, err = pe.ApplyDataBatch(b.D, s.G); err != nil {
					t.Fatal(err)
				}
			} else {
				var log nodeset.Builder
				for _, u := range b.D {
					affSets = append(affSets, updates.ApplyData(u, s.G, s.Engine))
					log.AddAll(affSets[len(affSets)-1])
				}
				changeLog = log.Set()
			}
			affInfos := elim.AffSetsFromApplication(b.D, affSets)
			newP := s.P.Clone()
			updates.ApplyPatternBatch(b.P, newP)
			s.ensureHorizonFor(newP)
			tree := ehtree.Build(affInfos, canInfos, func(up, ud elim.Info) bool {
				return elim.CrossEliminates(up, ud, s.Match, s.Engine)
			})
			want := changeLog
			for _, root := range tree.RootInfos() {
				want = want.Union(root.Set)
			}
			if got := uaSeeds(tree.RootInfos(), changeLog); !got.Equal(want) {
				t.Fatalf("%v, %s: seeds %v, change log ∪ roots %v", m, name, got, want)
			}
			pass := RunUAPass(s.Match, newP, s.G, s.Engine, affInfos, canInfos, changeLog, 1)
			if pass.SeedNodes != want.Len() || pass.TreeRoots != len(tree.Roots) || pass.TreeSize != tree.Size() {
				t.Fatalf("%v, %s: pass reports %d seeds, %d roots, size %d; want %d, %d, %d",
					m, name, pass.SeedNodes, pass.TreeRoots, pass.TreeSize, want.Len(), len(tree.Roots), tree.Size())
			}
			s.Match, s.P = pass.Match, newP
		}
	}
}

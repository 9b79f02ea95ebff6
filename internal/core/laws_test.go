package core

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/simulation"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// The laws below hold for the maximal bounded simulation whatever it
// is, so they check the UA-GPNM amendment against itself, with no
// from-scratch oracle: a data-edge insert never shrinks a match and a
// delete never grows one, loosening a pattern bound or deleting a
// pattern edge never shrinks one, a batch followed by its inverse
// restores it, and an empty batch leaves it as it is. Each runs on random
// instances (n ≤ 60, "*" and finite bounds) at the exact and a capped
// horizon. Matches are compared as simulation relations, per pattern
// node, so the all-nonempty projection cannot hide a move.

// lawShape is the laws' instance: a pattern whose edges carry "*" one
// time in four, else a finite bound up to 3.
var lawShape = testkit.Shape{Nodes: 50, Edges: 140, Labels: 3, PatNodes: 4, PatEdges: 5, Star: 0.25}

// lawBound draws "*" one time in four, else a bound in 1..3.
func lawBound(rng *rand.Rand) pattern.Bound {
	if rng.Intn(4) == 0 {
		return pattern.Star
	}
	return pattern.Bound(1 + rng.Intn(3))
}

// lawSessions yields a fresh UA-GPNM session per (horizon, trial).
func lawSessions(t *testing.T, fn func(name string, s *Session, rng *rand.Rand)) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for _, horizon := range []int{0, 3} {
		for trial := 0; trial < trials; trial++ {
			seed := int64(86000 + 10*horizon + trial)
			g, p := lawShape.Instance(seed)
			s := NewSession(g, p, Config{Method: UAGPNM, Horizon: horizon})
			fn(fmt.Sprintf("h=%d trial=%d", horizon, trial), s, rand.New(rand.NewSource(seed*7)))
		}
	}
}

// compare reports, over every alive pattern node of a, whether b's set
// is a superset (grew) and a subset (shrank) of a's.
func compare(a, b *simulation.Match) (superset, subset bool) {
	superset, subset = true, true
	a.Pattern().Nodes(func(u pattern.NodeID) {
		x, y := a.SimulationSet(u), b.SimulationSet(u)
		for _, v := range x {
			if !y.Contains(v) {
				superset = false
			}
		}
		for _, v := range y {
			if !x.Contains(v) {
				subset = false
			}
		}
	})
	return superset, subset
}

// randomEdge returns a non-loop pair of alive nodes.
func randomEdge(g *graph.Graph, rng *rand.Rand) (uint32, uint32) {
	for {
		u, v := uint32(rng.Intn(g.NumIDs())), uint32(rng.Intn(g.NumIDs()))
		if u != v && g.Alive(u) && g.Alive(v) {
			return u, v
		}
	}
}

func TestLawDataInsertNeverShrinks(t *testing.T) {
	grew := 0
	lawSessions(t, func(name string, s *Session, rng *rand.Rand) {
		for i := 0; i < 12; i++ {
			u, v := randomEdge(s.G, rng)
			if s.G.HasEdge(u, v) {
				continue
			}
			f := s.Fork()
			got := f.SQuery(updates.Batch{D: []updates.Update{{Kind: updates.DataEdgeInsert, From: u, To: v}}})
			superset, subset := compare(s.Match, got)
			if !superset {
				t.Fatalf("%s: inserting %d->%d shrank the match", name, u, v)
			}
			if !subset {
				grew++
			}
		}
	})
	if grew == 0 {
		t.Fatal("no insert grew a match: the law ran vacuously")
	}
}

func TestLawDataDeleteNeverGrows(t *testing.T) {
	shrank := 0
	lawSessions(t, func(name string, s *Session, rng *rand.Rand) {
		// Deletes out of matched nodes are the ones that can move a
		// match; draw from those.
		var edges []graph.Edge
		s.G.Edges(func(e graph.Edge) {
			matched := false
			s.P.Nodes(func(u pattern.NodeID) { matched = matched || s.Match.SimulationSet(u).Contains(e.From) })
			if matched {
				edges = append(edges, e)
			}
		})
		for i := 0; i < 12 && len(edges) > 0; i++ {
			e := edges[rng.Intn(len(edges))]
			f := s.Fork()
			got := f.SQuery(updates.Batch{D: []updates.Update{{Kind: updates.DataEdgeDelete, From: e.From, To: e.To}}})
			superset, subset := compare(s.Match, got)
			if !subset {
				t.Fatalf("%s: deleting %d->%d grew the match", name, e.From, e.To)
			}
			if !superset {
				shrank++
			}
		}
	})
	if shrank == 0 {
		t.Fatal("no delete shrank a match: the law ran vacuously")
	}
}

func TestLawLooserBoundNeverShrinks(t *testing.T) {
	grew := 0
	lawSessions(t, func(name string, s *Session, rng *rand.Rand) {
		s.P.Edges(func(e pattern.Edge) {
			if e.B.IsStar() {
				return
			}
			for _, looser := range []pattern.Bound{e.B + 1, pattern.Star} {
				f := s.Fork()
				got := f.SQuery(updates.Batch{P: []updates.Update{
					{Kind: updates.PatternEdgeDelete, From: uint32(e.From), To: uint32(e.To)},
					{Kind: updates.PatternEdgeInsert, From: uint32(e.From), To: uint32(e.To), Bound: looser},
				}})
				superset, subset := compare(s.Match, got)
				if !superset {
					t.Fatalf("%s: loosening %d->%d from %v to %v shrank the match", name, e.From, e.To, e.B, looser)
				}
				if !subset {
					grew++
				}
			}
		})
	})
	if grew == 0 {
		t.Fatal("no loosening grew a match: the law ran vacuously")
	}
}

// randomEdgeBatch draws a batch of data- and pattern-edge inserts and
// deletes, each valid against the state the ones before it leave, and
// returns it with its inverse (the inverted updates in reverse order).
// Pattern bounds stay within 3, so neither batch moves a capped
// horizon and "*" means the same before and after.
func randomEdgeBatch(s *Session, rng *rand.Rand) (b, inv updates.Batch) {
	g, p := s.G.Clone(), s.P.Clone()
	for i := 0; i < 6; i++ {
		u, v := randomEdge(g, rng)
		if g.AddEdge(u, v) {
			b.D = append(b.D, updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v})
			inv.D = append([]updates.Update{{Kind: updates.DataEdgeDelete, From: u, To: v}}, inv.D...)
		} else {
			g.RemoveEdge(u, v)
			b.D = append(b.D, updates.Update{Kind: updates.DataEdgeDelete, From: u, To: v})
			inv.D = append([]updates.Update{{Kind: updates.DataEdgeInsert, From: u, To: v}}, inv.D...)
		}
	}
	n := p.NumIDs()
	for i := 0; i < 2; i++ {
		u, v := pattern.NodeID(rng.Intn(n)), pattern.NodeID(rng.Intn(n))
		if old, ok := p.RemoveEdge(u, v); ok {
			b.P = append(b.P, updates.Update{Kind: updates.PatternEdgeDelete, From: uint32(u), To: uint32(v)})
			inv.P = append([]updates.Update{{Kind: updates.PatternEdgeInsert, From: uint32(u), To: uint32(v), Bound: old}}, inv.P...)
		} else {
			bound := lawBound(rng)
			p.AddEdge(u, v, bound)
			b.P = append(b.P, updates.Update{Kind: updates.PatternEdgeInsert, From: uint32(u), To: uint32(v), Bound: bound})
			inv.P = append([]updates.Update{{Kind: updates.PatternEdgeDelete, From: uint32(u), To: uint32(v)}}, inv.P...)
		}
	}
	return b, inv
}

func TestLawInverseBatchRestores(t *testing.T) {
	moved := 0
	lawSessions(t, func(name string, s *Session, rng *rand.Rand) {
		for i := 0; i < 4; i++ {
			b, inv := randomEdgeBatch(s, rng)
			f := s.Fork()
			if mid := f.SQuery(b); !mid.Equal(s.Match) {
				moved++
			}
			if got := f.SQuery(inv); !got.Equal(s.Match) {
				t.Fatalf("%s: batch then inverse did not restore the match\nbatch D=%v P=%v", name, b.D, b.P)
			}
		}
	})
	if moved == 0 {
		t.Fatal("no batch moved a match: the law ran vacuously")
	}
}

func TestLawPatternEdgeDeleteNeverShrinks(t *testing.T) {
	grew := 0
	lawSessions(t, func(name string, s *Session, rng *rand.Rand) {
		s.P.Edges(func(e pattern.Edge) {
			f := s.Fork()
			got := f.SQuery(updates.Batch{P: []updates.Update{
				{Kind: updates.PatternEdgeDelete, From: uint32(e.From), To: uint32(e.To)},
			}})
			superset, subset := compare(s.Match, got)
			if !superset {
				t.Fatalf("%s: deleting pattern edge %d->%d (%v) shrank the match", name, e.From, e.To, e.B)
			}
			if !subset {
				grew++
			}
		})
	})
	if grew == 0 {
		t.Fatal("no pattern-edge delete grew a match: the law ran vacuously")
	}
}

// TestLawEmptyBatchIsIdentity applies an empty batch to a fresh session
// and again after each of a few random batches: the match must stay
// exactly what it was.
func TestLawEmptyBatchIsIdentity(t *testing.T) {
	lawSessions(t, func(name string, s *Session, rng *rand.Rand) {
		f := s.Fork()
		for i := 0; i < 4; i++ {
			before := f.Match.Clone(f.P)
			if got := f.SQuery(updates.Batch{}); !got.Equal(before) {
				t.Fatalf("%s: an empty batch after %d batches moved the match", name, i)
			}
			b, _ := randomEdgeBatch(f, rng)
			f.SQuery(b)
		}
	})
}

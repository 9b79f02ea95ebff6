// Package elim implements §IV of the paper: detection of the three
// elimination relationship types between updates.
//
//   - Type I (DER-I, Algorithm 1): candidate-node sets Can_N(UPi) for
//     pattern updates; UPa ⊒ UPb when Can_N(UPa) ⊇ Can_N(UPb).
//   - Type II (DER-II, Algorithm 2): affected-node sets Aff_N(UDi) for
//     data updates; UDa ⊒ UDb when Aff_N(UDa) ⊇ Aff_N(UDb). The sets come
//     from the sequential application change log (detection fused with
//     SLen maintenance, mirroring Algorithm 2's in-place SLen_new
//     update).
//   - Type III (DER-III, Algorithm 3): a data-edge insertion UDi
//     eliminates a pattern-edge insertion UPi when Aff_N(UDi) covers
//     Can_N(UPi) and every candidate pair satisfies the inserted bound
//     under the updated SLen — the pair of updates cancels out.
//
// The sets feed the EH-Tree (internal/ehtree) and the golden tests
// against the paper's Tables IV and VII.
package elim

import (
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// Info pairs one update with its elimination node set: Can_N for pattern
// updates (DER-I), Aff_N for data updates (DER-II).
type Info struct {
	Seq int // position within its batch side (ΔGP or ΔGD)
	U   updates.Update
	Set nodeset.Set
}

// clampBound converts a pattern bound to hops the oracle can answer,
// clamping to the horizon for capped oracles (callers arrange
// EnsureHorizon beforehand, so clamping is a no-op in the solvers).
func clampBound(b pattern.Bound, o shortest.Oracle) int {
	k := int(b)
	if b.IsStar() {
		if o.Exact() {
			return int(shortest.Inf) - 1
		}
		return o.Horizon()
	}
	if !o.Exact() && k > o.Horizon() {
		k = o.Horizon()
	}
	return k
}

// hasSupportIn reports whether v reaches some node of set within k hops.
func hasSupportIn(o shortest.Oracle, v uint32, k int, set nodeset.Set) bool {
	found := false
	o.ForwardBall(v, k, func(w uint32, _ shortest.Dist) bool {
		if set.Contains(w) {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasReverseSupportIn reports whether some node of set reaches v within k.
func hasReverseSupportIn(o shortest.Oracle, v uint32, k int, set nodeset.Set) bool {
	found := false
	o.ReverseBall(v, k, func(w uint32, _ shortest.Dist) bool {
		if set.Contains(w) {
			found = true
			return false
		}
		return true
	})
	return found
}

// CanSets runs DER-I: it computes Can_N(UPi) for every pattern update,
// evaluated against the original match m (the IQuery result), pattern p
// and SLen oracle o — all in their pre-update state.
func CanSets(ps []updates.Update, m *simulation.Match, p *pattern.Graph, g *graph.Graph, o shortest.Oracle) []Info {
	infos := make([]Info, len(ps))
	for i, u := range ps {
		infos[i] = Info{Seq: i, U: u, Set: canSet(u, m, p, g, o)}
	}
	return infos
}

func canSet(u updates.Update, m *simulation.Match, p *pattern.Graph, g *graph.Graph, o shortest.Oracle) nodeset.Set {
	switch u.Kind {
	case updates.PatternEdgeInsert:
		if !p.Alive(u.From) || !p.Alive(u.To) {
			return nil // endpoints created within this batch: no basis to detect on
		}
		return canRNInsert(u, m, p, o)
	case updates.PatternEdgeDelete:
		if !p.Alive(u.From) || !p.Alive(u.To) {
			return nil
		}
		b, ok := p.EdgeBound(u.From, u.To)
		if !ok {
			return nil
		}
		return canANForRelaxation(u.From, u.To, b, m, p, g, o)
	case updates.PatternNodeInsert:
		if len(u.Labels) == 0 {
			return nil
		}
		if l, ok := g.Labels().Lookup(u.Labels[0]); ok {
			return nodeset.FromSorted(g.NodesWithLabel(l)).Clone()
		}
		return nil
	case updates.PatternNodeDelete:
		if !p.Alive(u.Node) {
			return nil
		}
		set := m.SimulationSet(u.Node).Clone()
		p.In(u.Node, func(src pattern.NodeID, b pattern.Bound) {
			set = set.Union(canANForRelaxation(src, u.Node, b, m, p, g, o))
		})
		return set
	default:
		panic("elim: canSet on data update " + u.String())
	}
}

// canRNInsert computes Can_RN for an inserted pattern edge (u,u',k):
// matches of u with no match of u' within k, matches of u' unreachable
// within k from any match of u (Example 7's semantics, reproducing
// Table IV), closed under the removal cascade ("check if the nodes
// connected to the candidates can be set as candidate nodes").
func canRNInsert(up updates.Update, m *simulation.Match, p *pattern.Graph, o shortest.Oracle) nodeset.Set {
	k := clampBound(up.Bound, o)
	srcMatches := m.SimulationSet(up.From)
	dstMatches := m.SimulationSet(up.To)
	var initial []removal
	for _, v := range srcMatches {
		if !hasSupportIn(o, v, k, dstMatches) {
			initial = append(initial, removal{up.From, v})
		}
	}
	for _, v := range dstMatches {
		if !hasReverseSupportIn(o, v, k, srcMatches) {
			initial = append(initial, removal{up.To, v})
		}
	}
	return removalClosure(initial, m, p, o)
}

// canANForRelaxation computes Can_AN when the constraint (src,dst,b)
// disappears: label candidates of src not currently matched that fail
// exactly this constraint (they have no matched dst within b) — the nodes
// with "the possibility to be added" once the edge goes.
func canANForRelaxation(src, dst pattern.NodeID, b pattern.Bound, m *simulation.Match, p *pattern.Graph, g *graph.Graph, o shortest.Oracle) nodeset.Set {
	k := clampBound(b, o)
	matched := m.SimulationSet(src)
	dstMatches := m.SimulationSet(dst)
	var out nodeset.Builder
	for _, v := range g.NodesWithLabel(p.Label(src)) {
		if matched.Contains(v) {
			continue
		}
		if !hasSupportIn(o, v, k, dstMatches) {
			out.Add(v)
		}
	}
	return out.Set()
}

// removal is a hypothetical match removal used by the cascade closure.
type removal struct {
	u pattern.NodeID
	v uint32
}

// removalClosure simulates removing the initial (pattern node, data node)
// pairs from the match and cascading the consequences under the original
// pattern: a predecessor match falls when its last support within the
// bound disappears. It returns the set of data nodes touched.
func removalClosure(initial []removal, m *simulation.Match, p *pattern.Graph, o shortest.Oracle) nodeset.Set {
	if len(initial) == 0 {
		return nil
	}
	// Working copy of the match as bitsets.
	work := make(map[pattern.NodeID]*nodeset.Bits)
	p.Nodes(func(u pattern.NodeID) {
		bits := nodeset.NewBits(0)
		bits.AddSet(m.SimulationSet(u))
		work[u] = bits
	})
	var touched nodeset.Builder
	queue := append([]removal(nil), initial...)
	for len(queue) > 0 {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		set := work[r.u]
		if set == nil || !set.Remove(r.v) {
			continue
		}
		touched.Add(r.v)
		// Predecessors that relied on r.v may fall next.
		p.In(r.u, func(prev pattern.NodeID, b pattern.Bound) {
			k := clampBound(b, o)
			prevSet := work[prev]
			if prevSet == nil {
				return
			}
			o.ReverseBall(r.v, k, func(x uint32, _ shortest.Dist) bool {
				if !prevSet.Contains(x) {
					return true
				}
				// Does x still have support for (prev, r.u)?
				still := false
				o.ForwardBall(x, k, func(w uint32, _ shortest.Dist) bool {
					if set.Contains(w) {
						still = true
						return false
					}
					return true
				})
				if !still {
					queue = append(queue, removal{prev, x})
				}
				return true
			})
		})
	}
	return touched.Set()
}

// AffSetsFromApplication wraps per-update affected sets recorded while a
// batch was applied (UA-GPNM's fused detection, Algorithm 2's in-place
// SLen_new maintenance).
func AffSetsFromApplication(ds []updates.Update, affected []nodeset.Set) []Info {
	infos := make([]Info, len(ds))
	for i, u := range ds {
		infos[i] = Info{Seq: i, U: u, Set: affected[i]}
	}
	return infos
}

// CrossEliminates runs the DER-III check: data update ud eliminates
// pattern update up iff ud's affected nodes cover up's candidates and
// every candidate pair satisfies the inserted bound under the updated
// SLen oracle o (pass the post-update engine). Only a data-side
// insertion can rescue a pattern-side tightening, so other kind pairs
// report false; an empty candidate set is trivially eliminated.
func CrossEliminates(up, ud Info, m *simulation.Match, o shortest.Oracle) bool {
	if up.U.Kind != updates.PatternEdgeInsert {
		return false
	}
	if ud.U.Kind != updates.DataEdgeInsert && ud.U.Kind != updates.DataNodeInsert {
		return false
	}
	if !m.Pattern().Alive(up.U.From) || !m.Pattern().Alive(up.U.To) {
		return false // endpoints created within this batch: nothing to cancel
	}
	if !ud.Set.Covers(up.Set) {
		return false
	}
	k := clampBound(up.U.Bound, o)
	srcMatches := m.SimulationSet(up.U.From)
	dstMatches := m.SimulationSet(up.U.To)
	for _, v := range srcMatches {
		if !hasSupportIn(o, v, k, dstMatches) {
			return false
		}
	}
	for _, v := range dstMatches {
		if !hasReverseSupportIn(o, v, k, srcMatches) {
			return false
		}
	}
	return true
}

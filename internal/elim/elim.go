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
// The support checks are the matcher's own (simulation.Match's
// Unsupported and Unreached: filtered ball reads over its images), and
// DER-I's cascade is its removal fixpoint (Match.Cascade, run on a copy
// of the match under its pattern); label candidates are the graph's
// label bitsets. The sets feed the EH-Tree (internal/ehtree) and the
// golden tests against the paper's Tables IV and VII.
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
		return canRNInsert(u, m, g, o)
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
			return g.LabelBits(l).Set()
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
func canRNInsert(up updates.Update, m *simulation.Match, g *graph.Graph, o shortest.Oracle) nodeset.Set {
	var forced []simulation.Pair
	m.Unsupported(m.SimulationSet(up.From), up.To, up.Bound, o, func(x uint32) bool {
		forced = append(forced, simulation.Pair{U: up.From, V: x})
		return true
	})
	m.Unreached(m.SimulationSet(up.To), up.From, up.Bound, o, func(y uint32) bool {
		forced = append(forced, simulation.Pair{U: up.To, V: y})
		return true
	})
	return m.Cascade(forced, g, o)
}

// canANForRelaxation computes Can_AN when the constraint (src,dst,b)
// disappears: label candidates of src not currently matched that fail
// exactly this constraint (they have no matched dst within b) — the nodes
// with "the possibility to be added" once the edge goes.
func canANForRelaxation(src, dst pattern.NodeID, b pattern.Bound, m *simulation.Match, p *pattern.Graph, g *graph.Graph, o shortest.Oracle) nodeset.Set {
	var out nodeset.Set // ascending: Unsupported visits its candidates in order
	unmatched := g.LabelBits(p.Label(src)).Set().Diff(m.SimulationSet(src))
	m.Unsupported(unmatched, dst, b, o, func(x uint32) bool {
		out = append(out, x)
		return true
	})
	return out
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
	held := true
	fail := func(uint32) bool {
		held = false
		return false
	}
	m.Unsupported(m.SimulationSet(up.U.From), up.U.To, up.U.Bound, o, fail)
	if held {
		m.Unreached(m.SimulationSet(up.U.To), up.U.From, up.U.Bound, o, fail)
	}
	return held
}

package pattern

import (
	"uagpnm/internal/graph"
)

// Signature is the discrimination key of a pattern: the minimal facts a
// pattern-set index needs to decide whether a data-graph change batch
// can possibly touch the pattern's match (Beyhl & Giese's generalized
// discrimination networks reduce exactly to this for bounded simulation
// — route an update to a pattern only when it falls inside the
// pattern's label × distance envelope).
//
// The envelope is sound because of how simulation.Amend propagates a
// batch: its pair closure starts from the nodes whose SLen rows changed
// (the batch change log) that carry one of the pattern's labels, and
// grows only through a data node that (a) carries one of the pattern's
// labels and (b) lies within a pattern edge's bound of an already
// admitted newcomer. If no node carrying a signature label exists
// within Radius hops of the change log, no pair is admitted, the
// amendment worklist stays empty, and the match is unchanged — so an index
// consulting only (Labels, Radius, Star) over-approximates the affected
// pattern set but never misses one (the conservative contract, pinned
// by the indexed ≡ unindexed differential suite in internal/hub).
type Signature struct {
	// Labels are the distinct labels of the pattern's alive nodes,
	// ascending. Only data nodes carrying one of them can ever appear in
	// (or cascade into) the pattern's match.
	Labels []graph.LabelID
	// Radius is the largest finite edge bound — an upper bound on the
	// per-hop reach of the amendment's pair closure (each hop goes by
	// its own edge's bound). 0 for edgeless patterns: their matches are
	// pure label candidate sets.
	Radius int
	// Star reports a "*" bound on some edge: the effective reach is then
	// the substrate horizon (capped oracles) or unbounded (exact ones),
	// which the index must substitute at decision time — the horizon can
	// widen after extraction.
	Star bool
}

// SignatureOf extracts p's discrimination signature. It reads the
// pattern once; call it again after ΔGP updates mutate the pattern
// (labels and bounds both move).
func SignatureOf(p *Graph) Signature {
	var sig Signature
	seen := make(map[graph.LabelID]bool)
	p.Nodes(func(u NodeID) {
		l := p.Label(u)
		if !seen[l] {
			seen[l] = true
			sig.Labels = append(sig.Labels, l)
		}
	})
	sortLabelIDs(sig.Labels)
	p.Edges(func(e Edge) {
		if e.B.IsStar() {
			sig.Star = true
		} else if int(e.B) > sig.Radius {
			sig.Radius = int(e.B)
		}
	})
	return sig
}

// EffectiveRadius resolves the signature's reach against a substrate:
// horizon is the oracle's hop cap, exact whether distances are
// uncapped. unbounded reports that no finite radius covers the pattern
// (a "*" bound on an exact substrate) — the index must treat it as
// touched by every non-empty batch.
func (s Signature) EffectiveRadius(horizon int, exact bool) (radius int, unbounded bool) {
	if !s.Star {
		return s.Radius, false
	}
	if exact {
		return 0, true
	}
	if horizon > s.Radius {
		return horizon, false
	}
	return s.Radius, false
}

// HasLabel reports whether l is one of the signature's labels.
func (s Signature) HasLabel(l graph.LabelID) bool {
	lo, hi := 0, len(s.Labels)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Labels[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.Labels) && s.Labels[lo] == l
}

func sortLabelIDs(ls []graph.LabelID) {
	// insertion sort: signatures are tiny (patterns have 6–10 nodes).
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

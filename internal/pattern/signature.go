package pattern

import (
	"cmp"
	"slices"

	"uagpnm/internal/graph"
)

// LabelReach is one label of a pattern's signature with its reach: the
// largest MaxOut among the pattern's nodes of that label, the deepest a
// check of any of them reads a forward row.
type LabelReach struct {
	Label graph.LabelID
	Reach int
}

// SignatureOf returns the distinct labels of p's alive nodes, ascending,
// each with its reach — what a pattern-set index files a pattern under:
// only a data node carrying one of them can appear in, or cascade into,
// p's match, and only a move within the reach of its label can start
// that. It reads the pattern once; call it again after ΔGP mutates p.
func SignatureOf(p *Graph) []LabelReach {
	var sig []LabelReach
	p.Nodes(func(u NodeID) { sig = append(sig, LabelReach{p.Label(u), p.MaxOut(u)}) })
	// Per label, the largest reach first; then keep each label's first.
	slices.SortFunc(sig, func(a, b LabelReach) int {
		return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(b.Reach, a.Reach))
	})
	return slices.CompactFunc(sig, func(a, b LabelReach) bool { return a.Label == b.Label })
}

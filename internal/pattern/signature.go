package pattern

import (
	"slices"

	"uagpnm/internal/graph"
)

// SignatureOf returns the distinct labels of p's alive nodes, ascending
// — what a pattern-set index files a pattern under: only a data node
// carrying one of them can appear in, or cascade into, p's match. It
// reads the pattern once; call it again after ΔGP mutates p.
func SignatureOf(p *Graph) []graph.LabelID {
	var labels []graph.LabelID
	p.Nodes(func(u NodeID) { labels = append(labels, p.Label(u)) })
	slices.Sort(labels)
	return slices.Compact(labels)
}

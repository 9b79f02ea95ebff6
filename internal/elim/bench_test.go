package elim

import (
	"testing"

	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/simulation"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// BenchmarkCanSets is DER-I's rung: one CanSets call over one update of
// each pattern-update kind — an edge insert, an edge delete, a node
// insert and a node delete, each with a non-empty set — against the
// IQuery match of a 4-node pattern on a 2 000-node, 8 000-edge graph in
// 16 labels, on the
// horizon-3 ball plane (partition.NewEngine(g, 3)). The engine's rows
// are warm after the first call, as a session's are after its IQuery.
func BenchmarkCanSets(b *testing.B) {
	g, p := testkit.Shape{Nodes: 2000, Edges: 8000, Labels: 16, Homophily: 0.9,
		PatNodes: 4, PatEdges: 4, PatLabels: 4}.Instance(5)
	eng := partition.NewEngine(g, 3)
	eng.Build()
	m := simulation.Run(p, g, eng)
	var nodes []pattern.NodeID
	p.Nodes(func(u pattern.NodeID) { nodes = append(nodes, u) })
	var edge pattern.Edge
	p.Edges(func(e pattern.Edge) { edge = e })
	ins := updates.Update{Kind: updates.PatternEdgeInsert, Bound: 2}
absent:
	for _, u := range nodes {
		for _, v := range nodes {
			if _, has := p.EdgeBound(u, v); !has && u != v {
				ins.From, ins.To = u, v
				break absent
			}
		}
	}
	ups := []updates.Update{
		ins,
		{Kind: updates.PatternEdgeDelete, From: edge.From, To: edge.To},
		{Kind: updates.PatternNodeInsert, Node: uint32(p.NumIDs()), Labels: []string{p.LabelName(nodes[0])}},
		{Kind: updates.PatternNodeDelete, Node: nodes[len(nodes)-1]},
	}
	for _, info := range CanSets(ups, m, p, g, eng) {
		if info.Set.Empty() {
			b.Fatalf("%v has no candidates: the rung would time an empty check", info.U)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		CanSets(ups, m, p, g, eng)
	}
}

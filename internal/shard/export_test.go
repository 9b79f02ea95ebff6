package shard

import "uagpnm/internal/graph"

// Snap captures g as a Snapshot tagged with the given part index.
func Snap(part int, g *graph.Graph) Snapshot {
	s := Snapshot{Part: part, NumIDs: g.NumIDs()}
	for id := 0; id < s.NumIDs; id++ {
		if !g.Alive(uint32(id)) {
			s.Dead = append(s.Dead, uint32(id))
		}
	}
	g.Edges(func(e graph.Edge) {
		s.Edges = append(s.Edges, Edge{From: e.From, To: e.To})
	})
	return s
}

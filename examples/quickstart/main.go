// Quickstart: the paper's running example (Figs. 1–3) through the public
// API. Builds the collaboration graph of Fig. 1(a), matches the IT
// project pattern of Fig. 1(b) (reproducing Table I), then processes the
// four updates of Fig. 2 in one batch and shows the elimination
// statistics (the EH-Tree of Fig. 3: four updates, three eliminated).
package main

import (
	"fmt"

	"uagpnm"
)

func main() {
	// Fig. 1(a): each node is a person labelled with a job title; edges
	// are collaboration relationships.
	g := uagpnm.NewGraph()
	ids := map[string]uagpnm.NodeID{}
	for _, n := range []struct{ name, title string }{
		{"PM1", "PM"}, {"PM2", "PM"}, {"SE1", "SE"}, {"SE2", "SE"},
		{"S1", "S"}, {"TE1", "TE"}, {"TE2", "TE"}, {"DB1", "DB"},
	} {
		ids[n.name] = g.AddNode(n.title)
	}
	for _, e := range [][2]string{
		{"PM1", "SE2"}, {"PM1", "DB1"}, {"PM2", "SE1"}, {"SE1", "PM2"},
		{"SE1", "SE2"}, {"SE1", "S1"}, {"SE2", "TE1"}, {"SE2", "DB1"},
		{"S1", "DB1"}, {"TE1", "SE2"}, {"TE2", "S1"}, {"DB1", "SE1"},
	} {
		g.AddEdge(ids[e[0]], ids[e[1]])
	}
	names := []string{"PM1", "PM2", "SE1", "SE2", "S1", "TE1", "TE2", "DB1"}

	// Fig. 2(c): an IT project needs a PM, an SE, a TE and an S; the
	// integer on each edge bounds the collaboration distance.
	p := uagpnm.NewPattern(g)
	pm := p.AddNode("PM")
	se := p.AddNode("SE")
	te := p.AddNode("TE")
	s := p.AddNode("S")
	p.AddEdge(pm, se, 3)
	p.AddEdge(pm, s, 4)
	p.AddEdge(se, te, 3)

	session := uagpnm.NewSession(g, p, uagpnm.Options{Method: uagpnm.UAGPNM})

	fmt.Println("IQuery — the node matching results (paper Table I):")
	printMatches(session, names)

	// Fig. 2: two pattern updates (UP1: PM needs a TE within 2 hops;
	// UP2: an S needs a TE within 4) and two data updates (UD1: SE1
	// starts collaborating with TE2; UD2: DB1 with S1).
	batch := uagpnm.Batch{
		P: []uagpnm.Update{
			uagpnm.InsertPatternEdge(pm, te, 2), // UP1
			uagpnm.InsertPatternEdge(s, te, 4),  // UP2
		},
		D: []uagpnm.Update{
			uagpnm.InsertEdge(ids["SE1"], ids["TE2"]), // UD1
			uagpnm.InsertEdge(ids["DB1"], ids["S1"]),  // UD2
		},
	}
	tree := session.Elimination(batch) // an analysis of the batch; the session does not advance
	session.SQuery(batch)
	fmt.Printf("\nSQuery processed %d updates in %v\n", batch.Size(), session.Stats().Duration)
	fmt.Printf("EH-Tree (paper Fig. 3): %d updates indexed, %d root(s), %d eliminated\n",
		tree.Size(), len(tree.Roots), tree.EliminatedCount())
	fmt.Println("UP1 is cancelled by UD1 (cross-graph elimination): every PM")
	fmt.Println("gains a TE within 2 hops, so the result is unchanged for PM:")
	fmt.Println()
	printMatches(session, names)
}

func printMatches(s *uagpnm.Session, names []string) {
	p := s.Pattern()
	p.Nodes(func(u uagpnm.PatternNodeID) {
		var members []string
		for _, id := range s.Result(u) {
			members = append(members, names[id])
		}
		fmt.Printf("  %-3s → %v\n", p.Name(u), members)
	})
}

package uagpnm_test

import (
	"fmt"

	"uagpnm"
)

// Example reproduces the paper's running example: the IT-project pattern
// over the collaboration graph of Fig. 1, then the four updates of
// Fig. 2 processed updates-aware.
func Example() {
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

	p := uagpnm.NewPattern(g)
	pm := p.AddNode("PM")
	se := p.AddNode("SE")
	te := p.AddNode("TE")
	s := p.AddNode("S")
	p.AddEdge(pm, se, 3)
	p.AddEdge(pm, s, 4)
	p.AddEdge(se, te, 3)

	session := uagpnm.NewSession(g, p, uagpnm.Options{Method: uagpnm.UAGPNM})
	fmt.Println("PMs:", session.Result(pm))

	batch := uagpnm.Batch{
		P: []uagpnm.Update{
			uagpnm.InsertPatternEdge(pm, te, 2),
			uagpnm.InsertPatternEdge(s, te, 4),
		},
		D: []uagpnm.Update{
			uagpnm.InsertEdge(ids["SE1"], ids["TE2"]),
			uagpnm.InsertEdge(ids["DB1"], ids["S1"]),
		},
	}
	tree := session.Elimination(batch) // the EH-Tree of Fig. 3; does not advance the session
	session.SQuery(batch)
	fmt.Println("PMs after updates:", session.Result(pm))
	fmt.Printf("eliminated %d of %d\n", tree.EliminatedCount(), tree.Size())
	// Output:
	// PMs: {0, 1}
	// PMs after updates: {0, 1}
	// eliminated 3 of 4
}

// ExampleSession_SQuery shows incremental maintenance over a stream of
// batches: the session stays consistent without recomputation.
func ExampleSession_SQuery() {
	g := uagpnm.NewGraph()
	a := g.AddNode("dev")
	b := g.AddNode("ops")
	g.AddEdge(a, b)

	p := uagpnm.NewPattern(g)
	dev := p.AddNode("dev")
	ops := p.AddNode("ops")
	p.AddEdge(dev, ops, 1)

	s := uagpnm.NewSession(g, p, uagpnm.Options{Method: uagpnm.UAGPNM})
	fmt.Println(s.Result(dev))

	// The only dev→ops collaboration breaks: the dev no longer matches.
	s.SQuery(uagpnm.Batch{D: []uagpnm.Update{uagpnm.DeleteEdge(a, b)}})
	fmt.Println(s.Result(dev))

	// A new ops hire joins and pairs with the dev.
	hire := uagpnm.NodeID(s.Graph().NumIDs())
	s.SQuery(uagpnm.Batch{D: []uagpnm.Update{
		uagpnm.InsertNode(hire, "ops"),
		uagpnm.InsertEdge(a, hire),
	}})
	fmt.Println(s.Result(dev))
	// Output:
	// {0}
	// {}
	// {0}
}

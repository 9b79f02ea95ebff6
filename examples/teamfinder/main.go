// Teamfinder: the group-finding scenario that motivates GPNM (paper §I,
// citing Lappas et al.). A company's collaboration network is searched
// for project teams matching a role structure — not whole subgraphs, but
// the set of people fit for each role (exactly GPNM's output). Staffing
// then changes over the week (hires, departures, new collaborations) and
// the requirements tighten; the session keeps the answer current without
// recomputation.
package main

import (
	"fmt"

	"uagpnm"
)

func main() {
	// A synthetic company: 600 employees in 8 role groups, collaboration
	// edges concentrated within roles (label homophily).
	g := uagpnm.GenerateSocialGraph(uagpnm.SocialGraphConfig{
		Name: "acme", Nodes: 600, Edges: 3600, Labels: 8,
		Homophily: 0.85, PrefAtt: 0.6, Seed: 2026,
	})

	// The project needs a manager-role (role00) connected within 2 hops
	// to an engineer-role (role01), who must reach a tester-role (role02)
	// within 2 hops; the manager also needs a role03 specialist within 3.
	p := uagpnm.NewPattern(g)
	mgr := p.AddNode("role00")
	eng := p.AddNode("role01")
	tst := p.AddNode("role02")
	spc := p.AddNode("role03")
	p.AddEdge(mgr, eng, 2)
	p.AddEdge(eng, tst, 2)
	p.AddEdge(mgr, spc, 3)

	roles := []struct {
		node uagpnm.PatternNodeID
		name string
	}{{mgr, "manager"}, {eng, "engineer"}, {tst, "tester"}, {spc, "specialist"}}

	s := uagpnm.NewSession(g, p, uagpnm.Options{Method: uagpnm.UAGPNM, Horizon: 3})
	fmt.Println("Initial candidate pools per role:")
	report(s, roles)

	// A week of staffing events, applied as one updates-aware batch:
	// two new hires (with their first collaborations), one departure,
	// two new collaboration edges — and the requirements tighten: the
	// manager now needs the tester directly within 3 hops too.
	newEng := uagpnm.NodeID(g.NumIDs())
	newTst := newEng + 1
	someMgr := s.Result(mgr)
	if someMgr.Empty() {
		fmt.Println("no full team exists in this graph; try another seed")
		return
	}
	departed := someMgr[len(someMgr)-1]
	batch := uagpnm.Batch{
		P: []uagpnm.Update{
			uagpnm.InsertPatternEdge(mgr, tst, 3),
		},
		D: []uagpnm.Update{
			uagpnm.InsertNode(newEng, "role01"),
			uagpnm.InsertNode(newTst, "role02"),
			uagpnm.InsertEdge(newEng, newTst),
			uagpnm.InsertEdge(0, newEng),
			uagpnm.DeleteNode(departed),
			uagpnm.InsertEdge(5, 9),
			uagpnm.InsertEdge(9, 17),
		},
	}
	eliminated := s.Elimination(batch).EliminatedCount()
	s.SQuery(batch)
	fmt.Printf("\nAfter the staffing batch (%d updates, %v, %d eliminated):\n",
		batch.Size(), s.Stats().Duration, eliminated)
	report(s, roles)
}

func report(s *uagpnm.Session, roles []struct {
	node uagpnm.PatternNodeID
	name string
}) {
	for _, r := range roles {
		set := s.Result(r.node)
		preview := set
		if preview.Len() > 8 {
			preview = preview[:8]
		}
		fmt.Printf("  %-10s %3d candidates, e.g. %v\n", r.name, set.Len(), preview)
	}
}

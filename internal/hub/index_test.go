package hub

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// clusteredInstance builds a data graph of `clusters` label-disjoint
// communities (no cross-cluster edges, per-cluster label namespaces
// "c<i>_r<j>") and k patterns, pattern i drawn over cluster i%clusters.
// This is the low-selectivity regime the discrimination index exists
// for: a batch confined to one cluster can only touch the patterns of
// that cluster.
func clusteredInstance(seed int64, clusters, nodesPer, edgesPer, roles, k int) (*graph.Graph, []*pattern.Graph) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(nil)
	label := func(c, r int) string { return fmt.Sprintf("c%d_r%d", c, r) }
	for c := 0; c < clusters; c++ {
		for i := 0; i < nodesPer; i++ {
			g.AddNode(label(c, rng.Intn(roles)))
		}
		lo := uint32(c * nodesPer)
		for i := 0; i < edgesPer; i++ {
			g.AddEdge(lo+uint32(rng.Intn(nodesPer)), lo+uint32(rng.Intn(nodesPer)))
		}
	}
	ps := make([]*pattern.Graph, k)
	for pi := range ps {
		c := pi % clusters
		p := pattern.New(g.Labels())
		ids := make([]pattern.NodeID, 3+rng.Intn(2))
		for i := range ids {
			ids[i] = p.AddNode(label(c, rng.Intn(roles)))
		}
		for i := 0; i < len(ids)+1; i++ {
			p.AddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], pattern.Bound(1+rng.Intn(3)))
		}
		ps[pi] = p
	}
	return g, ps
}

// clusterEdgeBatch generates data edge updates confined to one cluster,
// against the current state of g (flip: delete present edges, insert
// absent ones).
func clusterEdgeBatch(rng *rand.Rand, g *graph.Graph, cluster, nodesPer, n int) []updates.Update {
	lo := uint32(cluster * nodesPer)
	ups := make([]updates.Update, 0, n)
	for i := 0; i < n; i++ {
		u := lo + uint32(rng.Intn(nodesPer))
		v := lo + uint32(rng.Intn(nodesPer))
		kind := updates.DataEdgeInsert
		if g.HasEdge(u, v) {
			kind = updates.DataEdgeDelete
		}
		ups = append(ups, updates.Update{Kind: kind, From: u, To: v})
	}
	return ups
}

// TestHubIndexedDifferential is the index's correctness suite: an
// indexed hub and an unindexed hub (disableIndex — the pre-index
// behaviour) must agree on every pattern's match and on delta
// emptiness after every batch, while the indexed hub demonstrably
// skips the fan. The small instance adds k independent Scratch sessions
// as a third leg, serial and wide; the 1 000-pattern instance is the
// standing-query scale the index exists for, where each batch can reach
// one cluster in sixteen and a fan reduction under 5× is a failure. Run
// under -race (the tier-1 gate does).
func TestHubIndexedDifferential(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	for _, inst := range []struct {
		name                           string
		clusters, nodesPer, edgesPer   int
		roles, k, rounds, flips, procs int
		scratch                        bool
		// minReduction·ΣWoken ≤ ΣPatterns must hold over the run.
		minReduction int
	}{
		{name: "small-serial", clusters: 4, nodesPer: 14, edgesPer: 40, roles: 3, k: 8,
			rounds: rounds, flips: 6, procs: 1, scratch: true, minReduction: 2},
		{name: "small-wide", clusters: 4, nodesPer: 14, edgesPer: 40, roles: 3, k: 8,
			rounds: rounds, flips: 6, procs: 4, scratch: true, minReduction: 2},
		{name: "1000-patterns", clusters: 16, nodesPer: 60, edgesPer: 180, roles: 6, k: 1000,
			rounds: 4, flips: 15, procs: 2, minReduction: 5},
	} {
		t.Run(inst.name, func(t *testing.T) {
			k, procs := inst.k, inst.procs
			testkit.WithProcs(t, procs)
			seed := int64(467200 + procs)
			g, ps := clusteredInstance(seed, inst.clusters, inst.nodesPer, inst.edgesPer, inst.roles, k)

			indexed := mustHub(t, g.Clone(), Config{Horizon: 3})
			plain := mustHub(t, g.Clone(), Config{Horizon: 3, disableIndex: true})
			idsI := make([]PatternID, k)
			idsP := make([]PatternID, k)
			var sessions []*core.Session
			for i, p := range ps {
				idsI[i] = mustRegister(t, indexed, p.Clone())
				idsP[i] = mustRegister(t, plain, p.Clone())
				if inst.scratch {
					sessions = append(sessions, core.NewSession(g.Clone(), p.Clone(),
						core.Config{Method: core.Scratch, Horizon: 3}))
				}
			}

			rng := rand.New(rand.NewSource(seed * 31))
			totalWoken, totalPatterns := 0, 0
			for round := 0; round < inst.rounds; round++ {
				cluster := round % inst.clusters
				data := clusterEdgeBatch(rng, indexed.Graph(), cluster, inst.nodesPer, inst.flips)

				dsI, stI, err := indexed.ApplyBatch(t.Context(), Batch{D: data})
				if err != nil {
					t.Fatal(err)
				}
				dsP, stP, err := plain.ApplyBatch(t.Context(), Batch{D: data})
				if err != nil {
					t.Fatal(err)
				}

				if stI.Patterns != k || stI.Woken+stI.Skipped != stI.Patterns {
					t.Fatalf("woken %d + skipped %d != patterns %d (registered %d)",
						stI.Woken, stI.Skipped, stI.Patterns, k)
				}
				if stI.IndexBypassed {
					t.Fatal("indexed hub reports IndexBypassed")
				}
				if !stP.IndexBypassed || stP.Woken != k {
					t.Fatalf("unindexed hub stats = %+v, want full wake + bypass flag", stP)
				}
				totalWoken += stI.Woken
				totalPatterns += stI.Patterns

				for i := range ps {
					gotI, ok := indexed.Match(idsI[i])
					if !ok {
						t.Fatalf("pattern %d vanished from indexed hub", idsI[i])
					}
					gotP, _ := plain.Match(idsP[i])
					if !gotI.Equal(gotP) {
						t.Fatalf("round=%d pattern=%d: indexed hub diverges from unindexed\nD=%v",
							round, i, data)
					}
					if inst.scratch && !gotP.Equal(sessions[i].SQuery(updates.Batch{D: data})) {
						t.Fatalf("round=%d pattern=%d: hubs diverge from Scratch\nD=%v", round, i, data)
					}
					// The deltas must agree too, not just the end states:
					// a skipped registration's empty delta is only right if
					// the unindexed pass also found nothing.
					if (len(dsI[i].Nodes) == 0) != (len(dsP[i].Nodes) == 0) {
						t.Fatalf("round=%d pattern=%d: delta emptiness diverges (indexed %d nodes, unindexed %d)",
							round, i, len(dsI[i].Nodes), len(dsP[i].Nodes))
					}
				}
			}
			// Selectivity: each batch touches one of `clusters` disjoint
			// communities, so on the order of k/clusters patterns should
			// wake per batch — loose enough to survive seed changes, tight
			// enough to catch an index that wakes everyone.
			t.Logf("%d of %d per-pattern passes woken", totalWoken, totalPatterns)
			if totalWoken == 0 {
				t.Fatal("no batch woke any pattern; the instance exercises nothing")
			}
			if inst.minReduction*totalWoken > totalPatterns {
				t.Fatalf("index does not pay: %d of %d per-pattern passes woken over %d batches, want a ≥ %d× reduction",
					totalWoken, totalPatterns, inst.rounds, inst.minReduction)
			}
		})
	}
}

// TestHubIndexNodeChurn pins the churn-label path: a deleted node (and
// one inserted and deleted in the same batch) is not on the post-batch
// graph, so the index counts its pre-batch labels as touched. A
// deletion of a matched node must wake the patterns carrying its
// labels — and the result must match the unindexed hub's.
func TestHubIndexNodeChurn(t *testing.T) {
	for _, procs := range []int{1, 4} {
		testkit.WithProcs(t, procs)
		const clusters, nodesPer, k = 3, 10, 6
		seed := int64(88100 + procs)
		g, ps := clusteredInstance(seed, clusters, nodesPer, 26, 2, k)

		indexed := mustHub(t, g.Clone(), Config{Horizon: 3})
		plain := mustHub(t, g.Clone(), Config{Horizon: 3, disableIndex: true})
		idsI := make([]PatternID, k)
		idsP := make([]PatternID, k)
		for i, p := range ps {
			idsI[i] = mustRegister(t, indexed, p.Clone())
			idsP[i] = mustRegister(t, plain, p.Clone())
		}

		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			cluster := round % clusters
			lo := uint32(cluster * nodesPer)
			// One node delete in the cluster, one insert carrying the
			// cluster's labels, plus an insert-then-delete pair (the node
			// never exists outside the batch — only its insert update
			// knows its labels).
			next := uint32(indexed.Graph().NumIDs())
			data := []updates.Update{
				{Kind: updates.DataNodeDelete, Node: lo + uint32(rng.Intn(nodesPer))},
				{Kind: updates.DataNodeInsert, Node: next, Labels: []string{fmt.Sprintf("c%d_r0", cluster)}},
				{Kind: updates.DataEdgeInsert, From: next, To: lo + uint32(rng.Intn(nodesPer))},
				{Kind: updates.DataNodeInsert, Node: next + 1, Labels: []string{fmt.Sprintf("c%d_r1", cluster)}},
				{Kind: updates.DataNodeDelete, Node: next + 1},
			}
			if _, _, err := indexed.ApplyBatch(t.Context(), Batch{D: data}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := plain.ApplyBatch(t.Context(), Batch{D: data}); err != nil {
				t.Fatal(err)
			}
			for i := range ps {
				gotI, _ := indexed.Match(idsI[i])
				gotP, _ := plain.Match(idsP[i])
				if gotI == nil || gotP == nil || !gotI.Equal(gotP) {
					t.Fatalf("procs=%d round=%d pattern=%d: node churn diverges indexed vs unindexed",
						procs, round, i)
				}
			}
		}
	}
}

// TestHubIndexDeletedNodeWakes pins the one wake the post-batch graph
// cannot show: a deleted node leaves the matches of the patterns
// carrying its label with no pair traffic. Graph A→B plus a lone A,
// pattern a single A node: deleting the first A puts it (dead) and B
// (alive) on the change log, so only the dead member's label reaches
// the pattern.
func TestHubIndexDeletedNodeWakes(t *testing.T) {
	g := graph.New(nil)
	a := g.AddNode("A")
	g.AddEdge(a, g.AddNode("B"))
	g.AddNode("A")
	p := pattern.New(g.Labels())
	p.AddNode("A")

	indexed := mustHub(t, g.Clone(), Config{Horizon: 2})
	plain := mustHub(t, g.Clone(), Config{Horizon: 2, disableIndex: true})
	idI := mustRegister(t, indexed, p.Clone())
	idP := mustRegister(t, plain, p.Clone())
	del := Batch{D: []updates.Update{{Kind: updates.DataNodeDelete, Node: a}}}
	ds, st, err := indexed.ApplyBatch(t.Context(), del)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.ApplyBatch(t.Context(), del); err != nil {
		t.Fatal(err)
	}
	if st.Woken != 1 {
		t.Fatalf("deleting a matched node woke %d patterns, want 1", st.Woken)
	}
	if len(ds[0].Nodes) == 0 {
		t.Fatal("deleting a matched node produced an empty delta")
	}
	gotI, _ := indexed.Match(idI)
	gotP, _ := plain.Match(idP)
	if gotI == nil || !gotI.Equal(gotP) {
		t.Fatal("node delete diverges indexed vs unindexed")
	}
}

// TestHubIndexQuietBatch: a batch whose data side is a pure no-op
// (inserting an edge that already exists) and that carries no ΔGP must
// wake nobody.
func TestHubIndexQuietBatch(t *testing.T) {
	g, ps := clusteredInstance(5150, 2, 8, 20, 2, 4)
	// Find an existing edge to re-insert.
	var from, to uint32
	found := false
	for u := 0; u < g.NumIDs() && !found; u++ {
		if outs := g.Out(uint32(u)); len(outs) > 0 {
			from, to, found = uint32(u), outs[0], true
		}
	}
	if !found {
		t.Fatal("instance has no edges")
	}
	h := mustHub(t, g.Clone(), Config{Horizon: 3})
	for _, p := range ps {
		mustRegister(t, h, p.Clone())
	}
	ds, st, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: from, To: to},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Woken != 0 || st.Skipped != 4 || st.IndexBypassed {
		t.Fatalf("no-op batch stats = %+v, want 0 woken / 4 skipped", st)
	}
	for _, d := range ds {
		if len(d.Nodes) != 0 {
			t.Fatalf("no-op batch produced a non-empty delta: %+v", d)
		}
		if d.Seq != st.Seq {
			t.Fatalf("skipped delta seq = %d, want %d", d.Seq, st.Seq)
		}
	}
}

// threeWay is an indexed hub, an unindexed hub and one Scratch session
// per pattern over clones of one instance — the three legs the pair-rule
// tests keep equal.
type threeWay struct {
	indexed, plain *Hub
	idsI, idsP     []PatternID
	sessions       []*core.Session
}

func newThreeWay(t *testing.T, g *graph.Graph, ps []*pattern.Graph, horizon int) *threeWay {
	w := &threeWay{
		indexed: mustHub(t, g.Clone(), Config{Horizon: horizon}),
		plain:   mustHub(t, g.Clone(), Config{Horizon: horizon, disableIndex: true}),
	}
	for _, p := range ps {
		w.idsI = append(w.idsI, mustRegister(t, w.indexed, p.Clone()))
		w.idsP = append(w.idsP, mustRegister(t, w.plain, p.Clone()))
		w.sessions = append(w.sessions, core.NewSession(g.Clone(), p.Clone(),
			core.Config{Method: core.Scratch, Horizon: horizon}))
	}
	return w
}

// apply runs one data batch through all three legs, fails on any
// divergence, and returns the indexed hub's stats.
func (w *threeWay) apply(t *testing.T, data []updates.Update) BatchStats {
	t.Helper()
	_, st, err := w.indexed.ApplyBatch(t.Context(), Batch{D: data})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.plain.ApplyBatch(t.Context(), Batch{D: data}); err != nil {
		t.Fatal(err)
	}
	if st.IndexBypassed || st.Woken+st.Skipped != len(w.idsI) {
		t.Fatalf("indexed stats = %+v over %d patterns", st, len(w.idsI))
	}
	for i := range w.idsI {
		gotI, _ := w.indexed.Match(w.idsI[i])
		gotP, _ := w.plain.Match(w.idsP[i])
		ref := w.sessions[i].SQuery(updates.Batch{D: data})
		if gotI == nil || gotP == nil || !gotI.Equal(gotP) || !gotP.Equal(ref) {
			t.Fatalf("seq=%d pattern=%d: indexed, unindexed and Scratch diverge\nD=%v", st.Seq, i, data)
		}
	}
	return st
}

// woke reports whether the indexed hub's batch seq fanned over pattern i.
func (w *threeWay) woke(i int, seq uint64) bool {
	w.indexed.mu.Lock()
	defer w.indexed.mu.Unlock()
	return w.indexed.regs[w.idsI[i]].wokenSeq == seq
}

// TestHubIndexPairRule pins the wake rule to Amend's pair rule: a
// pattern is woken by a label ON the change log, not by one near it.
func TestHubIndexPairRule(t *testing.T) {
	// A directed line v0→v1→…→v39, one label per node, horizon 3.
	// Inserting v10→v20 changes the rows of v8..v10 and the columns of
	// v20..v22; v5 and v6 sit two and three hops upstream of v8 — inside
	// a bound-3 envelope of the change log, but their own rows and
	// columns do not move.
	t.Run("line", func(t *testing.T) {
		const n = 40
		g := graph.New(nil)
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("L%d", i))
		}
		for i := uint32(0); i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		pair := func(from, to string, b pattern.Bound) *pattern.Graph {
			p := pattern.New(g.Labels())
			p.AddEdge(p.AddNode(from), p.AddNode(to), b)
			return p
		}
		w := newThreeWay(t, g, []*pattern.Graph{pair("L5", "L6", 3), pair("L10", "L20", 1)}, 3)
		st := w.apply(t, []updates.Update{{Kind: updates.DataEdgeInsert, From: 10, To: 20}})
		if w.woke(0, st.Seq) || !w.woke(1, st.Seq) {
			t.Fatalf("stats = %+v, want only the pattern with labels on the change log woken", st)
		}
	})

	// A graph over 96 labels: the three legs stay equal over random
	// batches with node churn, and the rule separates — some
	// registrations are skipped, some woken.
	t.Run("random", func(t *testing.T) {
		const k, batches = 8, 20
		g, ps := testkit.Shape{Nodes: 300, Edges: 600, Labels: 96, PatNodes: 3, PatEdges: 3}.Patterns(20, k)
		w := newThreeWay(t, g, ps, 3)
		total := 0
		for round := 0; round < batches; round++ {
			data := updates.Generate(updates.Balanced(int64(700+round), 0, 4), w.indexed.Graph(), ps[0])
			total += w.apply(t, data.D).Woken
		}
		t.Logf("%d of %d per-pattern passes woken", total, k*batches)
		if total == 0 || total == k*batches {
			t.Fatalf("%d of %d passes woken: the instance does not separate", total, k*batches)
		}
	})
}

// TestHubIndexExactHorizonStar: at horizon 0 a "*" bound reaches as far
// as the graph does, and the change log — every node whose exact row or
// column moved — reaches as far with it, so the pair rule still holds:
// "*" patterns of an untouched cluster are skipped and the three legs
// stay equal, node churn included.
func TestHubIndexExactHorizonStar(t *testing.T) {
	const clusters, nodesPer, k = 4, 12, 8
	g, ps := clusteredInstance(31337, clusters, nodesPer, 30, 3, k)
	for _, p := range ps {
		if !p.AddEdge(0, 1, pattern.Star) {
			p.RemoveEdge(0, 1)
			p.AddEdge(0, 1, pattern.Star)
		}
	}
	w := newThreeWay(t, g, ps, 0)
	rng := rand.New(rand.NewSource(31338))
	skipped := 0
	for round := 0; round < 12; round++ {
		cluster := round % clusters
		lo := uint32(cluster * nodesPer)
		next := uint32(w.indexed.Graph().NumIDs())
		data := clusterEdgeBatch(rng, w.indexed.Graph(), cluster, nodesPer, 4)
		data = append(data,
			updates.Update{Kind: updates.DataNodeInsert, Node: next, Labels: []string{fmt.Sprintf("c%d_r0", cluster)}},
			updates.Update{Kind: updates.DataEdgeInsert, From: next, To: lo + uint32(rng.Intn(nodesPer))},
			updates.Update{Kind: updates.DataNodeDelete, Node: lo + uint32(rng.Intn(nodesPer))})
		skipped += w.apply(t, data).Skipped
	}
	if skipped == 0 {
		t.Fatal("no batch skipped a star pattern at horizon 0")
	}
}

// TestHubIndexPatternUpdateRefreshesSignature: ΔGP can move a pattern
// onto entirely different labels; the index must route future batches
// by the new signature, not the stale one.
func TestHubIndexPatternUpdateRefreshesSignature(t *testing.T) {
	g := graph.New(nil)
	// Two disconnected 3-chains with disjoint labels.
	a0 := g.AddNode("A")
	a1 := g.AddNode("A")
	a2 := g.AddNode("A")
	b0 := g.AddNode("B")
	b1 := g.AddNode("B")
	g.AddEdge(a0, a1)
	g.AddEdge(a1, a2)
	g.AddEdge(b0, b1)

	p := pattern.New(g.Labels())
	u := p.AddNode("A")
	v := p.AddNode("A")
	p.AddEdge(u, v, 1)

	h := mustHub(t, g.Clone(), Config{Horizon: 2})
	id := mustRegister(t, h, p)

	// Rewire the pattern onto label B: delete both A nodes, add two B
	// nodes (ids continue at 2,3), connect them.
	pups := []updates.Update{
		{Kind: updates.PatternNodeDelete, Node: uint32(u)},
		{Kind: updates.PatternNodeDelete, Node: uint32(v)},
		{Kind: updates.PatternNodeInsert, Node: 2, Labels: []string{"B"}},
		{Kind: updates.PatternNodeInsert, Node: 3, Labels: []string{"B"}},
		{Kind: updates.PatternEdgeInsert, From: 2, To: 3, Bound: 1},
	}
	if _, st, err := h.ApplyBatch(t.Context(), Batch{P: map[PatternID][]updates.Update{id: pups}}); err != nil {
		t.Fatal(err)
	} else if st.Woken != 1 {
		t.Fatalf("ΔGP batch woke %d, want 1", st.Woken)
	}

	// A-side churn must now be skipped…
	if _, st, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: a2, To: a0},
	}}); err != nil {
		t.Fatal(err)
	} else if st.Woken != 0 {
		t.Fatalf("A-side batch woke %d after pattern moved to B, want 0", st.Woken)
	}

	// …and B-side churn must wake the pattern and change its result.
	b2 := uint32(h.Graph().NumIDs())
	ds, st, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataNodeInsert, Node: b2, Labels: []string{"B"}},
		{Kind: updates.DataEdgeInsert, From: b1, To: b2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Woken != 1 {
		t.Fatalf("B-side batch woke %d, want 1", st.Woken)
	}
	if len(ds[0].Nodes) == 0 {
		t.Fatal("B-side growth produced no delta for the rewired pattern")
	}
}

// TestUnregisterReleasesDeltaLog is the retention regression test
// (heap-size-insensitive): after Unregister the registration's delta
// log and match are dropped eagerly, so a long-lived reference to the
// registration — a driver handle, an in-flight poll — cannot pin
// History × |delta| node sets until GC happens to notice.
func TestUnregisterReleasesDeltaLog(t *testing.T) {
	// Deterministic churn: pattern A -1-> B over a 2-node graph whose
	// only edge toggles every batch, so every batch flips the match and
	// logs a delta.
	g := graph.New(nil)
	a := g.AddNode("A")
	b := g.AddNode("B")
	p := pattern.New(g.Labels())
	p.AddEdge(p.AddNode("A"), p.AddNode("B"), 1)

	h := mustHub(t, g.Clone(), Config{Horizon: 2, History: 64})
	id := mustRegister(t, h, p)

	for round := 0; round < 6; round++ {
		kind := updates.DataEdgeInsert
		if round%2 == 1 {
			kind = updates.DataEdgeDelete
		}
		if _, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
			{Kind: kind, From: a, To: b},
		}}); err != nil {
			t.Fatal(err)
		}
	}

	h.mu.Lock()
	r := h.regs[id]
	logged := len(r.deltas)
	h.mu.Unlock()
	if logged == 0 {
		t.Fatal("update script produced no logged deltas; the test exercises nothing")
	}

	if err := h.Unregister(t.Context(), id); err != nil {
		t.Fatalf("Unregister refused a registered id: %v", err)
	}
	if len(r.deltas) != 0 {
		t.Fatalf("delta log still holds %d entries after Unregister", len(r.deltas))
	}
	if r.match != nil {
		t.Fatal("match still retained after Unregister")
	}
	// The index forgot the pattern too: a batch on its labels reports
	// zero registrations, rather than routing to a ghost.
	if _, st, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: a, To: b},
	}}); err != nil {
		t.Fatal(err)
	} else if st.Patterns != 0 || st.Woken != 0 {
		t.Fatalf("post-unregister stats = %+v, want empty hub", st)
	}
}

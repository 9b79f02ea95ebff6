package hub

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/simulation"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// lineGraph builds a0(A) -> b1(B), a2(A) isolated — the smallest
// instance where an edge insert flips a node into a result.
func lineGraph() *graph.Graph {
	g := graph.New(nil)
	g.AddNode("A") // 0
	g.AddNode("B") // 1
	g.AddNode("A") // 2
	g.AddEdge(0, 1)
	return g
}

func abPattern(g *graph.Graph) *pattern.Graph {
	p := pattern.New(g.Labels())
	u0 := p.AddNode("A")
	u1 := p.AddNode("B")
	p.AddEdge(u0, u1, 1)
	return p
}

// mustHub / mustRegister / mustResult unwrap the error returns (in-process hubs
// never lose a substrate; any error here is a test bug).
func mustHub(t testing.TB, g *graph.Graph, cfg Config) *Hub {
	t.Helper()
	h, err := New(g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func mustRegister(t testing.TB, h *Hub, p *pattern.Graph) PatternID {
	t.Helper()
	id, err := h.Register(t.Context(), p)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	return id
}

func mustResult(t testing.TB, h *Hub, id PatternID, u pattern.NodeID) nodeset.Set {
	t.Helper()
	s, err := h.Result(t.Context(), id, u)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return s
}

func TestHubRegisterAndApply(t *testing.T) {
	g := lineGraph()
	h := mustHub(t, g, Config{Horizon: 3})

	id := mustRegister(t, h, abPattern(g))
	if got := mustResult(t, h, id, 0); !got.Equal(nodeset.New(0)) {
		t.Fatalf("IQuery u0 = %v, want {0}", got)
	}
	if got := mustResult(t, h, id, 1); !got.Equal(nodeset.New(1)) {
		t.Fatalf("IQuery u1 = %v, want {1}", got)
	}

	// Insert a2 -> b1: node 2 becomes a match of u0.
	deltas, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Pattern != id || deltas[0].Seq != 1 {
		t.Fatalf("deltas = %+v, want one delta for pattern %d at seq 1", deltas, id)
	}
	want := []simulation.NodeDelta{{Node: 0, Added: nodeset.New(2)}}
	if len(deltas[0].Nodes) != 1 ||
		deltas[0].Nodes[0].Node != want[0].Node ||
		!deltas[0].Nodes[0].Added.Equal(want[0].Added) ||
		len(deltas[0].Nodes[0].Removed) != 0 {
		t.Fatalf("delta nodes = %v, want %v", deltas[0].Nodes, want)
	}
	if got := mustResult(t, h, id, 0); !got.Equal(nodeset.New(0, 2)) {
		t.Fatalf("after batch u0 = %v, want {0 2}", got)
	}
	if h.Seq() != 1 {
		t.Fatalf("Seq = %d, want 1", h.Seq())
	}
	if st := h.LastBatch(); st.SLenSyncs != 1 || st.Patterns != 1 {
		t.Fatalf("LastBatch = %+v, want SLenSyncs=1 Patterns=1", st)
	}

	if err := h.Unregister(t.Context(), id); err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	if err := h.Unregister(t.Context(), id); !errors.Is(err, ErrUnknownPattern) {
		t.Fatalf("second Unregister = %v, want ErrUnknownPattern", err)
	}
	if got := h.Patterns(); len(got) != 0 {
		t.Fatalf("Patterns after unregister = %v", got)
	}
}

func TestHubApplyBatchValidation(t *testing.T) {
	g := lineGraph()
	h := mustHub(t, g, Config{Horizon: 3})
	id := mustRegister(t, h, abPattern(g))

	if _, _, err := h.ApplyBatch(t.Context(), Batch{P: map[PatternID][]updates.Update{
		id + 99: {{Kind: updates.PatternEdgeDelete, From: 0, To: 1}},
	}}); !errors.Is(err, ErrUnknownPattern) {
		t.Fatalf("unknown pattern: err = %v", err)
	}
	if _, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.PatternEdgeDelete, From: 0, To: 1},
	}}); err == nil {
		t.Fatal("pattern update on the data side must error")
	}
	if _, _, err := h.ApplyBatch(t.Context(), Batch{P: map[PatternID][]updates.Update{
		id: {{Kind: updates.DataEdgeInsert, From: 2, To: 1}},
	}}); err == nil {
		t.Fatal("data update on the pattern side must error")
	}
	// Mispredicted node-insert ids must be rejected up front, not panic
	// mid-batch (node ids are assigned sequentially: the only valid
	// insert id is the next free one).
	if _, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataNodeInsert, Node: 99, Labels: []string{"A"}},
	}}); err == nil {
		t.Fatal("mispredicted data node insert id must error")
	}
	if _, _, err := h.ApplyBatch(t.Context(), Batch{P: map[PatternID][]updates.Update{
		id: {{Kind: updates.PatternNodeInsert, Node: 99, Labels: []string{"A"}}},
	}}); err == nil {
		t.Fatal("mispredicted pattern node insert id must error")
	}
	// A pattern node carries exactly one label: an insert with none (the
	// applier would fall back to "") or several is refused, on every
	// pattern of the batch, before any of them is touched.
	id2 := mustRegister(t, h, abPattern(g))
	before := map[PatternID]*simulation.Match{}
	for _, pid := range []PatternID{id, id2} {
		before[pid], _ = h.Match(pid)
	}
	for _, labels := range [][]string{nil, {"A", "B"}} {
		if _, _, err := h.ApplyBatch(t.Context(), Batch{P: map[PatternID][]updates.Update{
			id:  {{Kind: updates.PatternNodeInsert, Node: 2, Labels: labels}},
			id2: {{Kind: updates.PatternNodeInsert, Node: 2, Labels: labels}},
		}}); err == nil {
			t.Fatalf("pattern node insert with labels %v must error", labels)
		}
	}
	for pid, was := range before {
		if m, _ := h.Match(pid); !m.Equal(was) {
			t.Fatalf("a rejected batch moved pattern %d's match", pid)
		}
	}
	if h.Seq() != 0 {
		t.Fatalf("Seq = %d after rejected batches, want 0", h.Seq())
	}
	// Correctly predicted ids pass: next data id is 3, next pattern id 2.
	if _, _, err := h.ApplyBatch(t.Context(), Batch{
		D: []updates.Update{{Kind: updates.DataNodeInsert, Node: 3, Labels: []string{"A"}}},
		P: map[PatternID][]updates.Update{
			id: {{Kind: updates.PatternNodeInsert, Node: 2, Labels: []string{"B"}}},
		},
	}); err != nil {
		t.Fatalf("valid node inserts rejected: %v", err)
	}

	// Nothing above but the last batch may have advanced the epoch.
	if h.Seq() != 1 {
		t.Fatalf("Seq = %d, want 1 (only the valid batch applied)", h.Seq())
	}
}

// TestHubHorizonFollowsAppliedBounds: the substrate widens to the bounds
// the updated patterns hold, not to the bounds the batch text names — an
// insert AddEdge refuses (self-loop, duplicate) or a batch validation
// rejects must not leave every later ball thousands of hops deep.
func TestHubHorizonFollowsAppliedBounds(t *testing.T) {
	g := lineGraph()
	h := mustHub(t, g, Config{Horizon: 3})
	id := mustRegister(t, h, abPattern(g))
	insert := func(from, to uint32, b pattern.Bound) Batch {
		return Batch{P: map[PatternID][]updates.Update{
			id: {{Kind: updates.PatternEdgeInsert, From: from, To: to, Bound: b}},
		}}
	}
	for _, b := range []Batch{insert(0, 0, 500), insert(0, 1, 9000)} {
		if _, _, err := h.ApplyBatch(t.Context(), b); err != nil {
			t.Fatal(err)
		}
		if got := h.eng.Horizon(); got != 3 {
			t.Fatalf("horizon %d after no-op insert %v, want 3", got, b.P[id])
		}
	}
	was, _ := h.Match(id)
	rejected := insert(1, 0, 7)
	rejected.P[id] = append(rejected.P[id], updates.Update{Kind: updates.PatternNodeInsert, Node: 99, Labels: []string{"A"}})
	if _, _, err := h.ApplyBatch(t.Context(), rejected); err == nil {
		t.Fatal("mispredicted pattern node insert id must error")
	}
	if m, _ := h.Match(id); h.eng.Horizon() != 3 || h.Seq() != 2 || !m.Equal(was) {
		t.Fatalf("a rejected batch touched the hub: horizon %d, seq %d", h.eng.Horizon(), h.Seq())
	}
	if _, _, err := h.ApplyBatch(t.Context(), insert(1, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if got := h.eng.Horizon(); got != 5 {
		t.Fatalf("horizon %d after an applied insert with bound 5, want 5", got)
	}
}

// TestHubNewLabelInserts drives per-pattern node inserts carrying labels
// the shared table has never seen. ΔGP — and with it the interning — is
// applied by the single writer before the fan; run under -race, with the
// instance sized (and GOMAXPROCS forced) so several pool workers
// genuinely process patterns, the detector sees any interning that
// leaks onto a fan worker.
func TestHubNewLabelInserts(t *testing.T) {
	testkit.WithProcs(t, 4)
	const k = 16
	g, ps := testkit.Shape{Nodes: 260, Edges: 800, Labels: 5, PatNodes: 4, PatEdges: 5}.Patterns(64123, k)
	h := mustHub(t, g, Config{Horizon: 3})
	ids := make([]PatternID, k)
	for i, p := range ps {
		ids[i] = mustRegister(t, h, p)
	}
	perPattern := make(map[PatternID][]updates.Update, k)
	for i, id := range ids {
		nodes := uint32(0)
		if p, _, _, err := h.Snapshot(t.Context(), id); err == nil {
			nodes = uint32(p.NumIDs())
		}
		perPattern[id] = []updates.Update{{
			Kind: updates.PatternNodeInsert, Node: nodes,
			Labels: []string{"FRESH_" + string(rune('A'+i))},
		}}
	}
	if _, _, err := h.ApplyBatch(t.Context(), Batch{P: perPattern}); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		// ps[i] is the pre-batch pattern object (the batch swapped the
		// registration to a clone); the hub's copy has one extra node.
		p, _, _, err := h.Snapshot(t.Context(), id)
		if err != nil || p.NumNodes() != ps[i].NumNodes()+1 {
			t.Fatalf("pattern %d: node insert not applied (nodes=%d)", i, p.NumNodes())
		}
		// A pattern node with an unmatched fresh label breaks totality:
		// the projected result collapses to ∅.
		if got := mustResult(t, h, id, 0); got.Len() != 0 {
			t.Fatalf("pattern %d result = %v, want ∅ (new label unmatched)", i, got)
		}
	}
}

func TestHubRegisterScript(t *testing.T) {
	g := lineGraph()
	h := mustHub(t, g, Config{Horizon: 3})

	if _, err := h.RegisterScript(strings.NewReader("garbage\n")); err == nil {
		t.Fatal("bad DSL must error")
	}
	if _, err := h.RegisterScript(strings.NewReader("# empty\n")); err == nil {
		t.Fatal("empty pattern must error")
	}
	id, err := h.RegisterScript(strings.NewReader("node x A\nnode y B\nedge x y 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustResult(t, h, id, 0); !got.Equal(nodeset.New(0)) {
		t.Fatalf("RegisterScript result = %v, want {0}", got)
	}
	if st := h.GraphStats(); st.Nodes != 3 || st.Edges != 1 {
		t.Fatalf("GraphStats = %+v", st)
	}
	p, m, seq, err := h.Snapshot(t.Context(), id)
	if err != nil || seq != 0 || p.NumNodes() != 2 || !m.Total() {
		t.Fatalf("Snapshot = (%v, %v, %d, %v)", p, m, seq, err)
	}
}

// TestHubDeltaHistoryIsolation: mutating a delta returned by ApplyBatch
// must not corrupt what WaitDeltas serves later (and vice versa).
func TestHubDeltaHistoryIsolation(t *testing.T) {
	g := lineGraph()
	h := mustHub(t, g, Config{Horizon: 3})
	id := mustRegister(t, h, abPattern(g))
	deltas, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	deltas[0].Nodes[0].Added[0] = 777 // scribble over the caller's copy

	ds, _, err := h.WaitDeltas(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ds[0].Nodes[0].Added.Equal(nodeset.New(2)) {
		t.Fatalf("history served mutated delta: %v", ds[0].Nodes)
	}
	ds[0].Nodes[0].Added[0] = 888 // and the polled copy is isolated too
	ds2, _, _ := h.WaitDeltas(context.Background(), id, 0)
	if !ds2[0].Nodes[0].Added.Equal(nodeset.New(2)) {
		t.Fatalf("second poll saw first poller's mutation: %v", ds2[0].Nodes)
	}
}

// TestHubPerPatternUpdates drives two patterns whose ΔGP diverge: one
// relaxes, one is untouched; only the relaxed one may change.
func TestHubPerPatternUpdates(t *testing.T) {
	g := lineGraph()
	h := mustHub(t, g, Config{Horizon: 3})
	idA := mustRegister(t, h, abPattern(g))
	idB := mustRegister(t, h, abPattern(g))

	// Deleting the pattern edge of A relaxes u0: every A-labelled node
	// matches.
	deltas, _, err := h.ApplyBatch(t.Context(), Batch{P: map[PatternID][]updates.Update{
		idA: {{Kind: updates.PatternEdgeDelete, From: 0, To: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[PatternID]Delta{}
	for _, d := range deltas {
		byID[d.Pattern] = d
	}
	if d := byID[idA]; len(d.Nodes) != 1 || !d.Nodes[0].Added.Equal(nodeset.New(2)) {
		t.Fatalf("pattern A delta = %v, want u0 +{2}", d.Nodes)
	}
	if d := byID[idB]; len(d.Nodes) != 0 {
		t.Fatalf("pattern B delta = %v, want no change", d.Nodes)
	}
	if got := mustResult(t, h, idB, 0); !got.Equal(nodeset.New(0)) {
		t.Fatalf("pattern B u0 = %v, want {0}", got)
	}
}

func TestHubWaitDeltas(t *testing.T) {
	g := lineGraph()
	h := mustHub(t, g, Config{Horizon: 3})
	id := mustRegister(t, h, abPattern(g))

	// Timeout path: no deltas arrive.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	_, _, err := h.WaitDeltas(ctx, id, 0)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout err = %v", err)
	}

	// Delivery path: a concurrent poller sees the batch's delta.
	type polled struct {
		ds  []Delta
		err error
	}
	ch := make(chan polled, 1)
	go func() {
		ds, _, err := h.WaitDeltas(context.Background(), id, 0)
		ch <- polled{ds, err}
	}()
	// Give the poller a moment to park, then publish a change.
	time.Sleep(10 * time.Millisecond)
	if _, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	got := <-ch
	if got.err != nil || len(got.ds) != 1 || got.ds[0].Seq != 1 {
		t.Fatalf("poll got %+v, want the seq-1 delta", got)
	}

	// No-change batches are not subscriber events: a poller past seq 1
	// keeps waiting through an idempotent batch.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	done := make(chan polled, 1)
	go func() {
		ds, _, err := h.WaitDeltas(ctx2, id, 1)
		done <- polled{ds, err}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1}, // duplicate: no-op
	}}); err != nil {
		t.Fatal(err)
	}
	if got := <-done; !errors.Is(got.err, context.DeadlineExceeded) {
		t.Fatalf("no-op batch woke the poller: %+v", got)
	}

	// Unregister path: a parked poller observes ErrUnknownPattern.
	gone := make(chan error, 1)
	go func() {
		_, _, err := h.WaitDeltas(context.Background(), id, h.Seq())
		gone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := h.Unregister(t.Context(), id); err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	if err := <-gone; !errors.Is(err, ErrUnknownPattern) {
		t.Fatalf("unregister err = %v", err)
	}
}

func TestHubWaitDeltasResync(t *testing.T) {
	g := graph.New(nil)
	for i := 0; i < 8; i++ {
		g.AddNode("A")
	}
	g.AddNode("B") // 8
	p := pattern.New(g.Labels())
	u0 := p.AddNode("A")
	u1 := p.AddNode("B")
	p.AddEdge(u0, u1, 1)

	h := mustHub(t, g, Config{Horizon: 3, History: 1})
	id := mustRegister(t, h, p)
	// Three changing batches; history keeps only the last.
	for i := uint32(0); i < 3; i++ {
		if _, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
			{Kind: updates.DataEdgeInsert, From: i, To: 8},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	_, resync, err := h.WaitDeltas(context.Background(), id, 0)
	if err != nil || !resync {
		t.Fatalf("since=0 with truncated history: resync=%v err=%v, want resync", resync, err)
	}
	ds, resync, err := h.WaitDeltas(context.Background(), id, 2)
	if err != nil || resync || len(ds) != 1 || ds[0].Seq != 3 {
		t.Fatalf("since=2: ds=%v resync=%v err=%v, want the seq-3 delta", ds, resync, err)
	}
}

// TestHubDeltaConsistency replays random batches and checks the delta
// algebra: previous projected result + Added - Removed = next projected
// result, per pattern node.
func TestHubDeltaConsistency(t *testing.T) {
	g, p := testkit.Shape{Nodes: 40, Edges: 100, Labels: 4, PatNodes: 4, PatEdges: 5}.Instance(42)

	h := mustHub(t, g, Config{Horizon: 3})
	id := mustRegister(t, h, p.Clone())
	prev, _ := h.Match(id)
	for round := 0; round < 6; round++ {
		batch := updates.Generate(updates.Balanced(int64(round)*7+1, 0, 8), h.Graph(), p)
		deltas, _, err := h.ApplyBatch(t.Context(), Batch{D: batch.D})
		if err != nil {
			t.Fatal(err)
		}
		cur, _ := h.Match(id)
		want := simulation.Delta(prev, cur)
		got := deltas[0].Nodes
		if len(got) != len(want) {
			t.Fatalf("round %d: delta %v, want %v", round, got, want)
		}
		for i := range got {
			if got[i].Node != want[i].Node ||
				!got[i].Added.Equal(want[i].Added) ||
				!got[i].Removed.Equal(want[i].Removed) {
				t.Fatalf("round %d: delta %v, want %v", round, got, want)
			}
		}
		prev = cur
	}
}

// TestHubDefensiveCopies mutates everything the hub hands out and
// asserts hub state survives — the match-state aliasing regression the
// Session contract also covers.
func TestHubDefensiveCopies(t *testing.T) {
	g := lineGraph()
	h := mustHub(t, g, Config{Horizon: 3})
	id := mustRegister(t, h, abPattern(g))

	res := mustResult(t, h, id, 0)
	for i := range res {
		res[i] = 999 // scribble over the returned set
	}
	if got := mustResult(t, h, id, 0); !got.Equal(nodeset.New(0)) {
		t.Fatalf("Result aliased hub state: %v", got)
	}

	m, _ := h.Match(id)
	s := m.SimulationSet(0)
	for i := range s {
		s[i] = 999
	}
	m2, _ := h.Match(id)
	if got := m2.SimulationSet(0); !got.Equal(nodeset.New(0)) {
		t.Fatalf("Match aliased hub state: %v", got)
	}

	// The snapshot stays frozen while the hub moves on.
	if _, _, err := h.ApplyBatch(t.Context(), Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := m2.SimulationSet(0); !got.Equal(nodeset.New(0)) {
		t.Fatalf("snapshot moved with the hub: %v", got)
	}
	if got := mustResult(t, h, id, 0); !got.Equal(nodeset.New(0, 2)) {
		t.Fatalf("hub result = %v, want {0 2}", got)
	}
}

// TestHubMatchOwnsItsPattern: the match Hub.Match hands out is bound to
// its own copy of the pattern, so an edit through its Pattern reaches
// neither PatternGraph nor the hub's next batch, which still equals a
// Scratch session's.
func TestHubMatchOwnsItsPattern(t *testing.T) {
	g, p := testkit.Shape{Nodes: 40, Edges: 100, Labels: 4, PatNodes: 4, PatEdges: 5}.Instance(42)
	h := mustHub(t, g, Config{Horizon: 3})
	id := mustRegister(t, h, p.Clone())
	ref := core.NewSession(g.Clone(), p.Clone(), core.Config{Method: core.Scratch, Horizon: 3})

	m, _ := h.Match(id)
	mp := m.Pattern()
	var nodes []pattern.NodeID
	mp.Nodes(func(u pattern.NodeID) { nodes = append(nodes, u) })
	mp.AddEdge(nodes[0], mp.AddNode(mp.LabelName(nodes[0])), 1)
	if got, _ := h.PatternGraph(id); got.NumNodes() != p.NumNodes() || got.NumEdges() != p.NumEdges() {
		t.Fatalf("an edit through Match's pattern reached the hub: %d nodes, %d edges, want %d, %d",
			got.NumNodes(), got.NumEdges(), p.NumNodes(), p.NumEdges())
	}

	batch := updates.Generate(updates.Balanced(3, 0, 8), h.Graph(), p)
	if _, _, err := h.ApplyBatch(t.Context(), Batch{D: batch.D}); err != nil {
		t.Fatal(err)
	}
	want := ref.SQuery(updates.Batch{D: batch.D})
	if got, ok := h.Match(id); !ok || !got.Equal(want) || !want.Equal(got) {
		t.Fatal("after an edit through Match's pattern, the next batch diverges from Scratch")
	}
}

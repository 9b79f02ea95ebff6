package hub

// Hub-level failover pins: a shard worker killed mid-batch is absorbed
// invisibly — the batch completes, BatchStats.Recovered records it, a
// long-poll parked across the loss stays parked through the recovery
// window and wakes with the batch's delta (no resync, no error), and
// the hub keeps serving. The terminal poison contract lives in
// loss_test.go; this file covers the recovered path above it.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// killableHubWorker mirrors the partition suite's killable worker: one
// shard worker whose handler can be armed to die (503 on everything,
// /healthz included) at the first request matching a path.
type killableHubWorker struct {
	ts    *httptest.Server
	dead  atomic.Bool
	armed atomic.Value // string ("" = disarmed)
}

func newKillableHubWorker(t testing.TB) *killableHubWorker {
	t.Helper()
	k := &killableHubWorker{}
	k.armed.Store("")
	inner := shard.NewServer().Handler()
	k.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k.dead.Load() {
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
		if p, _ := k.armed.Load().(string); p != "" && strings.HasPrefix(r.URL.Path, p) {
			k.dead.Store(true)
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(k.ts.Close)
	return k
}

// TestHubFailoverLongPollSurvives kills one of two workers inside
// ApplyBatch and asserts the full recovered contract: no error, the
// delta is produced, Recovered is counted, the parked long-poll wakes
// with the delta rather than a loss or resync, and every later call
// behaves as if nothing happened.
func TestHubFailoverLongPollSurvives(t *testing.T) {
	healthy := newKillableHubWorker(t)
	victim := newKillableHubWorker(t)
	g := lineGraph()
	h, err := New(g, Config{Horizon: 3,
		Shards: []string{healthy.ts.URL, victim.ts.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	id := mustRegister(t, h, abPattern(h.Graph()))

	// Park a subscriber past the tip; the recovered batch must wake it
	// with the delta, never with a loss.
	type pollOut struct {
		ds     []Delta
		resync bool
		err    error
	}
	polled := make(chan pollOut, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ds, resync, err := h.WaitDeltas(ctx, id, h.Seq())
		polled <- pollOut{ds, resync, err}
	}()
	time.Sleep(50 * time.Millisecond)

	victim.armed.Store("/ops") // die on the batch's op flush

	deltas, stats, err := h.ApplyBatch(Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}})
	if err != nil {
		t.Fatalf("ApplyBatch across a worker kill must recover, got %v", err)
	}
	if !victim.dead.Load() {
		t.Fatal("trigger never fired: the batch did not reach the victim's op flush")
	}
	if stats.Recovered != 1 {
		t.Fatalf("BatchStats.Recovered = %d, want 1", stats.Recovered)
	}
	if len(deltas) != 1 || len(deltas[0].Nodes) == 0 {
		t.Fatalf("recovered batch lost its delta: %+v", deltas)
	}

	got := <-polled
	if got.err != nil || got.resync {
		t.Fatalf("parked poll woke with (err=%v, resync=%v), want the delta", got.err, got.resync)
	}
	if len(got.ds) != 1 || got.ds[0].Seq != stats.Seq {
		t.Fatalf("parked poll deltas = %+v, want the recovered batch's", got.ds)
	}

	// The hub is healthy, not poisoned: reads, status and further
	// batches all behave normally on the surviving worker.
	if h.Err() != nil {
		t.Fatalf("hub poisoned despite recovery: %v", h.Err())
	}
	if recovering, recovered := h.Status(); recovering || recovered != 1 {
		t.Fatalf("Status() = (%v, %d), want (false, 1)", recovering, recovered)
	}
	if _, err := h.Result(id, 0); err != nil {
		t.Fatalf("post-recovery Result: %v", err)
	}
	if _, st2, err := h.ApplyBatch(Batch{D: []updates.Update{
		{Kind: updates.DataEdgeDelete, From: 2, To: 1},
	}}); err != nil || st2.Recovered != 0 {
		t.Fatalf("post-recovery batch = (err=%v, recovered=%d), want clean", err, st2.Recovered)
	}
}

// TestHubFailoverMatchesUnshardedResult replays the same batches on a
// recovered sharded hub and a plain in-process hub and pins equal
// results — recovery must be invisible in the data, not only in the
// error surface.
func TestHubFailoverMatchesUnshardedResult(t *testing.T) {
	healthy := newKillableHubWorker(t)
	victim := newKillableHubWorker(t)
	gs := lineGraph()
	sharded, err := New(gs, Config{Horizon: 3,
		Shards: []string{healthy.ts.URL, victim.ts.URL}})
	if err != nil {
		t.Fatalf("New sharded: %v", err)
	}
	defer sharded.Close()
	plain := mustHub(t, lineGraph(), Config{Horizon: 3})

	idS := mustRegister(t, sharded, abPattern(sharded.Graph()))
	idP := mustRegister(t, plain, abPattern(plain.Graph()))

	batches := [][]updates.Update{
		{{Kind: updates.DataEdgeInsert, From: 2, To: 1}},
		{{Kind: updates.DataEdgeDelete, From: 0, To: 1}},
		{{Kind: updates.DataEdgeInsert, From: 0, To: 1}, {Kind: updates.DataEdgeDelete, From: 2, To: 1}},
	}
	victim.armed.Store("/ops") // dies inside the first batch
	for i, ds := range batches {
		if _, _, err := sharded.ApplyBatch(Batch{D: ds}); err != nil {
			t.Fatalf("sharded batch %d: %v", i, err)
		}
		if _, _, err := plain.ApplyBatch(Batch{D: ds}); err != nil {
			t.Fatalf("plain batch %d: %v", i, err)
		}
		ms, ok := sharded.Match(idS)
		if !ok {
			t.Fatalf("sharded Match after batch %d refused", i)
		}
		mp, _ := plain.Match(idP)
		if !ms.Equal(mp) {
			t.Fatalf("batch %d: recovered sharded hub diverges from in-process hub", i)
		}
	}
	if _, recovered := sharded.Status(); recovered != 1 {
		t.Fatalf("sharded hub recovered = %d, want 1", recovered)
	}
}

// TestHubFailoverOnPatternOnlyBatch: a worker that died BETWEEN batches,
// followed by a batch carrying ΔGP only. No op flush reaches the corpse
// and every row the standing pattern ever asked for is warm, so the loss
// is first noticed by the amendment fan, when the inserted pattern node
// sends it to the C nodes' rows on the victim's partition; it must be
// repaired there, and the result must equal the in-process hub's.
func TestHubFailoverOnPatternOnlyBatch(t *testing.T) {
	healthy := newKillableHubWorker(t)
	victim := newKillableHubWorker(t)
	build := func() *graph.Graph {
		g := lineGraph()
		g.AddNode("C") // 3
		g.AddNode("C") // 4, isolated
		g.AddEdge(3, 0)
		return g
	}
	// Partitions land on workers round-robin in label order: A and C on
	// the first address, B on the second.
	sharded, err := New(build(), Config{Horizon: 3,
		Shards: []string{victim.ts.URL, healthy.ts.URL}})
	if err != nil {
		t.Fatalf("New sharded: %v", err)
	}
	defer sharded.Close()
	plain := mustHub(t, build(), Config{Horizon: 3})
	idS := mustRegister(t, sharded, abPattern(sharded.Graph()))
	idP := mustRegister(t, plain, abPattern(plain.Graph()))

	// A C within one hop of the A joins the pattern.
	addC := []updates.Update{
		{Kind: updates.PatternNodeInsert, Node: 2, Labels: []string{"C"}},
		{Kind: updates.PatternEdgeInsert, From: 2, To: 0, Bound: 1},
	}
	steps := []struct {
		d, p      []updates.Update
		recovered int
	}{
		{d: []updates.Update{{Kind: updates.DataNodeInsert, Node: 5, Labels: []string{"B"}}}},
		{p: addC, recovered: 1},
		{d: []updates.Update{{Kind: updates.DataEdgeInsert, From: 4, To: 0}}},
	}
	for i, step := range steps {
		bs, bp := Batch{D: step.d}, Batch{D: step.d}
		if step.p != nil {
			victim.dead.Store(true) // dies idle, with no batch in flight
			bs.P = map[PatternID][]updates.Update{idS: step.p}
			bp.P = map[PatternID][]updates.Update{idP: step.p}
		}
		_, st, err := sharded.ApplyBatch(bs)
		if err != nil || st.Recovered != step.recovered {
			t.Fatalf("sharded batch %d = (err=%v, recovered=%d), want recovered %d", i, err, st.Recovered, step.recovered)
		}
		if _, _, err := plain.ApplyBatch(bp); err != nil {
			t.Fatalf("plain batch %d: %v", i, err)
		}
		ms, ok := sharded.Match(idS)
		mp, _ := plain.Match(idP)
		if !ok || !ms.Equal(mp) {
			t.Fatalf("batch %d: recovered sharded hub diverges from in-process hub", i)
		}
	}
	if res := mustResult(t, sharded, idS, 2); !res.Equal(nodeset.New(3, 4)) {
		t.Fatalf("C result = %v, want {3, 4}", res)
	}
}

// TestHubFailoverOnRegisterRead pins the read-path discovery: a worker
// that died BETWEEN batches is first noticed by the next read fan — the
// initial query of a Register — which must repair and retry instead of
// poisoning (this exact path escaped the mutation-phase protection in
// an early cut of the failover work).
func TestHubFailoverOnRegisterRead(t *testing.T) {
	healthy := newKillableHubWorker(t)
	victim := newKillableHubWorker(t)
	g := lineGraph()
	// Node 3: an isolated B. It is no bridge and no update ever touches
	// it, so neither the build's bridge-row plan nor any batch's warm
	// piggyback fetches its rows — the one guaranteed-cold row on the
	// victim's partition, which the Register below must then fetch from
	// the corpse (a register served purely from warm caches never
	// notices one — correctly so).
	g.AddNode("B")  // 3
	g.AddEdge(1, 2) // the B node reaches an A, so a B→A pattern matches it
	h, err := New(g, Config{Horizon: 3,
		Shards: []string{healthy.ts.URL, victim.ts.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	if _, _, err := h.ApplyBatch(Batch{D: []updates.Update{
		{Kind: updates.DataNodeInsert, Node: 4, Labels: []string{"B"}},
	}}); err != nil {
		t.Fatalf("healthy batch: %v", err)
	}

	victim.dead.Store(true) // dies idle, with no batch in flight

	// A B-within-1-of-A pattern needs every B node's forward row —
	// including isolated node 3's, intra state of the victim's partition
	// that no plan ever warmed — so the initial query must fetch from
	// the corpse and recover.
	ba := pattern.New(h.Graph().Labels())
	b0 := ba.AddNode("B")
	a0 := ba.AddNode("A")
	ba.AddEdge(b0, a0, 1)
	id, err := h.Register(ba)
	if err != nil {
		t.Fatalf("Register across a dead worker must recover, got %v", err)
	}
	if _, recovered := h.Status(); recovered != 1 {
		t.Fatalf("Status() recovered = %d, want 1", recovered)
	}
	res, err := h.Result(id, b0)
	if err != nil || len(res) != 1 || res[0] != 1 {
		t.Fatalf("post-recovery initial result = (%v, %v), want [1]", res, err)
	}
	// And the hub still processes batches on the survivor: wiring the
	// new B node to an A makes it match too.
	deltas, st, err := h.ApplyBatch(Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 3, To: 0},
	}})
	if err != nil || st.Recovered != 0 {
		t.Fatalf("post-recovery batch = (err=%v, recovered=%d), want clean", err, st.Recovered)
	}
	if len(deltas) != 1 || len(deltas[0].Nodes) == 0 {
		t.Fatalf("post-recovery batch delta = %+v, want node 3 added", deltas)
	}
}

// TestUnregisterPairConsistentOnPoison pins Unregister on a poisoned
// hub: on a healthy hub it removes; on a poisoned hub it refuses with
// ErrSubstrateLost and leaves the registration in place, like every
// other Service call.
func TestUnregisterPairConsistentOnPoison(t *testing.T) {
	ws := startWorker(t)
	g := lineGraph()
	h, err := New(g, Config{Horizon: 3, Shards: []string{ws.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	idA := mustRegister(t, h, abPattern(h.Graph()))
	idB := mustRegister(t, h, abPattern(h.Graph()))

	if err := h.Unregister(idA); err != nil {
		t.Fatalf("healthy Unregister: %v", err)
	}
	// Poison the hub: its only worker dies, leaving no failover target.
	ws.Close()
	if _, _, err := h.ApplyBatch(Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}}); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("batch against dead solo worker = %v, want ErrSubstrateLost", err)
	}

	if err := h.Unregister(idB); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("poisoned Unregister = %v, want ErrSubstrateLost", err)
	}
	// The registration was not silently dropped on the way down.
	if _, ok := h.regs[idB]; !ok {
		t.Fatal("poisoned Unregister must leave the registration in place")
	}
}

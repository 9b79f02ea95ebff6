package hub

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/partition"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// startWorker stands up an in-process gpnm-shard worker over HTTP.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(shard.NewServer().Handler())
}

// TestEngineShardLossReturnsError is the partition-boundary pin: a
// worker killed between batches makes ApplyDataBatch return an error
// wrapping shard.ErrSubstrateLost (with the TransportError still
// extractable) — never a panic — and the engine stays poisoned.
func TestEngineShardLossReturnsError(t *testing.T) {
	ws := startWorker(t)
	g := graph.New(nil)
	g.AddNode("A") // 0
	g.AddNode("B") // 1
	g.AddNode("A") // 2
	g.AddEdge(0, 1)

	e := partition.NewEngine(g, 3, partition.WithShards(shard.Dial(ws.URL)))
	e.Build()
	t.Cleanup(func() { _ = e.Close() })

	// Healthy batch first: the seam works end to end.
	if _, _, err := e.ApplyDataBatch([]updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}, g); err != nil {
		t.Fatalf("healthy batch errored: %v", err)
	}

	ws.Close() // the worker dies with its intra state

	_, _, err := e.ApplyDataBatch([]updates.Update{
		{Kind: updates.DataEdgeDelete, From: 2, To: 1},
	}, g)
	if err == nil {
		t.Fatal("batch against a dead worker must error")
	}
	if !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("err = %v, want ErrSubstrateLost wrap", err)
	}
	var te *shard.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want wrapped *shard.TransportError", err)
	}
	if e.Err() == nil {
		t.Fatal("engine must stay poisoned after a loss")
	}
	// Sticky: the next batch fails immediately without touching the
	// (already diverged) substrate.
	if _, _, err := e.ApplyDataBatch([]updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}, g); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("poisoned engine err = %v, want ErrSubstrateLost", err)
	}
}

// TestHubShardLossMidBatch kills the worker under a live hub and
// asserts the full Service-facing error path: ApplyBatch returns
// ErrSubstrateLost (no panic escapes internal/shard / internal/partition),
// the hub poisons itself, parked long-polls are woken with the loss,
// and every further method fails fast with the same error.
func TestHubShardLossMidBatch(t *testing.T) {
	ws := startWorker(t)
	g := graph.New(nil)
	g.AddNode("A") // 0
	g.AddNode("B") // 1
	g.AddNode("A") // 2
	g.AddEdge(0, 1)

	h, err := New(g, Config{Horizon: 3, Shards: []string{ws.URL}})
	if err != nil {
		t.Fatalf("New with live worker: %v", err)
	}
	id := mustRegister(t, h, abPattern(h.Graph()))

	if _, _, err := h.ApplyBatch(Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}}); err != nil {
		t.Fatalf("healthy batch errored: %v", err)
	}

	// Park a long-poller past the tip; the loss must wake it.
	type pollOut struct {
		err    error
		resync bool
	}
	polled := make(chan pollOut, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, resync, err := h.WaitDeltas(ctx, id, h.Seq())
		polled <- pollOut{err, resync}
	}()
	time.Sleep(50 * time.Millisecond)

	ws.Close() // kill the worker mid-session

	_, _, err = h.ApplyBatch(Batch{D: []updates.Update{
		{Kind: updates.DataEdgeDelete, From: 2, To: 1},
	}})
	if err == nil {
		t.Fatal("ApplyBatch against a dead worker must return an error, not panic")
	}
	if !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("ApplyBatch err = %v, want ErrSubstrateLost wrap", err)
	}

	got := <-polled
	if !errors.Is(got.err, shard.ErrSubstrateLost) || got.resync {
		t.Fatalf("parked poll woke with (%v, resync=%v), want ErrSubstrateLost", got.err, got.resync)
	}

	// Poisoned: every entry point reports the loss.
	if h.Err() == nil {
		t.Fatal("hub must stay poisoned")
	}
	if _, _, err := h.ApplyBatch(Batch{}); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("post-loss ApplyBatch err = %v", err)
	}
	if _, err := h.Register(abPattern(h.Graph())); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("post-loss Register err = %v", err)
	}
	if err := h.Unregister(id); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("post-loss Unregister err = %v", err)
	}
	// Read paths refuse too: the fan-out may have amended some
	// registrations and not others, so post-loss results are tainted.
	if _, err := h.Result(id, 0); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("post-loss Result err = %v", err)
	}
	if _, _, _, err := h.Snapshot(id); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("post-loss Snapshot err = %v", err)
	}
	if _, ok := h.Match(id); ok {
		t.Fatal("post-loss Match must refuse")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, _, err := h.WaitDeltas(ctx, id, h.Seq()); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("post-loss WaitDeltas err = %v", err)
	}
}

// TestHubBuildAgainstDeadWorker: constructing a hub whose worker never
// answers fails with an error, not a panic.
func TestHubBuildAgainstDeadWorker(t *testing.T) {
	ws := startWorker(t)
	ws.Close()
	g := graph.New(nil)
	g.AddNode("A")
	if _, err := New(g, Config{Horizon: 3, Shards: []string{ws.URL}}); !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("New against dead worker = %v, want ErrSubstrateLost", err)
	}
}

package hub

// Regression pins for the batched shard read plane: a sharded hub batch
// must plan its row demand into at most ONE bulk /rows call per worker
// (the per-row fallback staying a miss path, never the plan), and the
// bulk plane must actually carry traffic — otherwise a refactor could
// silently fall back to thousands of first-miss round trips per batch
// and no functional test would notice.

import (
	"testing"

	"uagpnm/internal/obs"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

func TestBulkRowsCallsPerBatchBounded(t *testing.T) {
	const shards = 2
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = startWorker(t).URL
	}
	// Sized so batches produce real amend-fan traffic.
	g, p := testkit.Shape{Nodes: 160, Edges: 520, Labels: 4, PatNodes: 3, PatEdges: 2}.Instance(11)

	reg := obs.NewRegistry()
	h, err := New(g.Clone(), Config{Horizon: 3, Shards: addrs, Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	if _, err := h.Register(t.Context(), p.Clone()); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Pre-generate batches against an evolving clone so node-insert ids
	// line up when the hub replays them.
	gw := g.Clone()
	batches := make([]updates.Batch, 3)
	for i := range batches {
		batches[i] = updates.Generate(updates.Balanced(int64(100+i), 0, 40), gw, p)
		for _, u := range batches[i].D {
			updates.ApplyGraph(u, gw)
		}
	}

	rowsCalls := func() uint64 { return reg.HistogramCounts("gpnm_rpc_seconds")["/rows"] }
	var prefetched, rpcs uint64
	for i, b := range batches {
		before := rowsCalls()
		_, st, err := h.ApplyBatch(t.Context(), Batch{D: b.D})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if got := rowsCalls() - before; got > shards {
			t.Fatalf("batch %d issued %d /rows calls, want ≤ %d (one bulk plan per shard)", i, got, shards)
		}
		prefetched += st.RowsPrefetched
		rpcs += st.RPCCalls
	}
	// The plane must be on, not vacuously bounded: across the run the
	// bulk paths (/rows + the /ops warm piggyback) installed rows, and
	// BatchStats carried the RPC traffic.
	if prefetched == 0 {
		t.Fatal("no rows were bulk-prefetched across the run — the planned read plane is off")
	}
	if rpcs == 0 {
		t.Fatal("BatchStats.RPCCalls stayed 0 on a sharded hub")
	}
	// The merged op-flush plan (bridge rows of touched partitions +
	// source rows of op endpoints) overlaps whenever an endpoint IS a
	// bridge node; those copies must be dropped before the wire, and the
	// scorecard counter must show it happened on a batch of this shape.
	if deduped := reg.Counter("gpnm_rpc_rows_deduped_total").Value(); deduped == 0 {
		t.Fatal("gpnm_rpc_rows_deduped_total = 0: bulk plans shipped duplicate row requests")
	}
}

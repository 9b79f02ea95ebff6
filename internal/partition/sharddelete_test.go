package partition

import (
	"net/http/httptest"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// httptestFleet starts n shard workers over httptest HTTP, closed with
// the test, and returns their clients.
func httptestFleet(t testing.TB, n int) []shard.Shard {
	t.Helper()
	fleet := make([]shard.Shard, n)
	for i := range fleet {
		ts := httptest.NewServer(shard.NewServer().Handler())
		t.Cleanup(ts.Close)
		fleet[i] = shard.Dial(ts.URL)
	}
	return fleet
}

// shardLayouts builds one engine per layout over clones of g: the ball
// plane, the in-process §V plane (the monolith: one shard.Local) and a
// 2-worker RPC fleet over httptest HTTP. Every layout must behave
// identically; these tests drive the delete paths the differential
// suite only hits incidentally.
func shardLayouts(t testing.TB, g *graph.Graph, horizon int) map[string]struct {
	g *graph.Graph
	e *Engine
} {
	t.Helper()
	rpc := func() []Option { return []Option{WithShards(httptestFleet(t, 2)...)} }
	out := make(map[string]struct {
		g *graph.Graph
		e *Engine
	})
	for name, opts := range map[string]func() []Option{
		"ball": func() []Option { return nil },
		"mono": func() []Option { return []Option{WithStitchedQueries()} },
		"rpc2": rpc,
	} {
		g2 := g.Clone()
		e := NewEngine(g2, horizon, opts()...)
		e.Build()
		out[name] = struct {
			g *graph.Graph
			e *Engine
		}{g2, e}
	}
	return out
}

// TestBridgeNodeDeletedMidBatch deletes bridge nodes in the middle of a
// batch — an exit (SE2) whose removal rewires the overlay, sandwiched
// between updates that depend on the partition bookkeeping staying
// coherent — and checks the full oracle against a fresh global engine,
// for every shard layout.
func TestBridgeNodeDeletedMidBatch(t *testing.T) {
	base, ids := fig4Graph()
	for name, lay := range shardLayouts(t, base, 0) {
		g, e := lay.g, lay.e
		batch := []updates.Update{
			{Kind: updates.DataEdgeInsert, From: ids["TE3"], To: ids["TE1"]},
			// SE2 is an inner bridge node of PSE (cross edge SE2→TE1):
			// deleting it mid-batch drops intra rows, bridge status and
			// overlay anchors at once.
			{Kind: updates.DataNodeDelete, Node: ids["SE2"]},
			{Kind: updates.DataEdgeInsert, From: ids["SE1"], To: ids["SE3"]},
			{Kind: updates.DataNodeInsert, Node: uint32(g.NumIDs()), Labels: []string{"SE"}},
			{Kind: updates.DataEdgeInsert, From: uint32(g.NumIDs()), To: ids["SE1"]},
		}
		changeLog, _ := e.ApplyData(batch, g)
		if changeLog.Len() == 0 {
			t.Fatalf("%s: empty change log for a destructive batch", name)
		}
		assertOracleAgrees(t, e, g, 0, -100)
		if e.Reachable(ids["SE2"], ids["SE2"]) {
			t.Fatalf("%s: deleted bridge node still alive in the oracle", name)
		}
	}
}

// TestDeleteNodeEmptiesShardPartition removes the only member of a
// partition (PM1) as a one-update batch, leaving its shard-hosted
// engine empty, then repopulates the same partition with a fresh node —
// the addToPart fast path that reuses the existing (empty) partition
// and its shard assignment.
func TestDeleteNodeEmptiesShardPartition(t *testing.T) {
	base, ids := fig4Graph()
	for name, lay := range shardLayouts(t, base, 0) {
		g, e := lay.g, lay.e
		aff := deleteNode(t, e, g, ids["PM1"])
		if aff == nil {
			t.Fatalf("%s: PM1 missing", name)
		}
		if !aff.Contains(ids["SE4"]) || !aff.Contains(ids["SE1"]) {
			t.Fatalf("%s: node delete affected set %v misses the bridge neighbourhood", name, aff)
		}
		assertOracleAgrees(t, e, g, 0, -101)

		// Repopulate the now-empty PM partition and wire it back in.
		pm2 := insertNode(t, e, g, "PM")
		insertEdge(t, e, g, ids["SE1"], pm2)
		insertEdge(t, e, g, pm2, ids["SE4"])
		assertOracleAgrees(t, e, g, 0, -102)
		if d := e.Dist(ids["SE1"], ids["SE4"]); d != 2 {
			t.Fatalf("%s: d(SE1,SE4) through the repopulated partition = %v, want 2", name, d)
		}
	}
}

// TestDirtyBridgesIntraDeletion pins the settleOp path: deleting an
// intra-partition edge that lengthens a bridge node's intra distances
// must propagate through the shard's local affected set into the
// overlay, changing cross-partition distances accordingly.
func TestDirtyBridgesIntraDeletion(t *testing.T) {
	base, ids := fig4Graph()
	for name, lay := range shardLayouts(t, base, 0) {
		g, e := lay.g, lay.e
		// Before: SE1 →(intra) SE2 →(cross) TE1, so d(SE1,TE1) = 2.
		if d := e.Dist(ids["SE1"], ids["TE1"]); d != 2 {
			t.Fatalf("%s: pre-state d(SE1,TE1) = %v, want 2", name, d)
		}
		// Deleting intra edge SE1→SE2 only touches PSE's shard engine;
		// the overlay hears about it exclusively via settleOp
		// translating the shard's local affected set (SE1 and SE2 are
		// both bridge nodes whose entry→exit hop just vanished).
		deleteEdge(t, e, g, ids["SE1"], ids["SE2"])
		if d := e.Dist(ids["SE1"], ids["TE1"]); d != shortest.Inf {
			t.Fatalf("%s: post-state d(SE1,TE1) = %v, want Inf", name, d)
		}
		assertOracleAgrees(t, e, g, 0, -103)
	}
}

// TestBatchEmptiesWholePartition drives ApplyDataBatch until one
// partition has no live members left and the batch also rewired other
// partitions — the "shard left empty" regression: stitched queries and
// the overlay must cope with a partition whose engine holds only
// tombstones.
func TestBatchEmptiesWholePartition(t *testing.T) {
	base, ids := fig4Graph()
	for name, lay := range shardLayouts(t, base, 0) {
		g, e := lay.g, lay.e
		batch := []updates.Update{
			{Kind: updates.DataNodeDelete, Node: ids["TE1"]},
			{Kind: updates.DataEdgeInsert, From: ids["SE4"], To: ids["SE1"]},
			{Kind: updates.DataNodeDelete, Node: ids["TE2"]},
			{Kind: updates.DataNodeDelete, Node: ids["TE3"]},
		}
		_, _ = e.ApplyData(batch, g)
		assertOracleAgrees(t, e, g, 0, -104)
		for _, n := range []string{"TE1", "TE2", "TE3"} {
			if e.Reachable(ids[n], ids[n]) {
				t.Fatalf("%s: %s survived the partition-emptying batch", name, n)
			}
		}
		// The emptied partition's label must accept new members again.
		te := insertNode(t, e, g, "TE")
		insertEdge(t, e, g, ids["SE2"], te)
		assertOracleAgrees(t, e, g, 0, -105)
		if d := e.Dist(ids["SE1"], te); d != 2 {
			t.Fatalf("%s: d(SE1, new TE) = %v, want 2", name, d)
		}
	}
}

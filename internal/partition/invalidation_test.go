package partition

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shard"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// churnBatch draws one data batch against g's current state: edge
// deletions and insertions, a node that joins an existing partition and
// is wired in, one node deletion, and — when founding is set — a node
// with a label no partition has yet. It returns the batch and how many
// nodes it inserts.
func churnBatch(rng *rand.Rand, g *graph.Graph, founding string) (ds []updates.Update, inserted int) {
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	pick := func() uint32 { return live[rng.Intn(len(live))] }
	victim := pick()

	var edges []graph.Edge
	g.Edges(func(e graph.Edge) { edges = append(edges, e) })
	for _, i := range rng.Perm(len(edges))[:min(3, len(edges))] {
		ds = append(ds, updates.Update{Kind: updates.DataEdgeDelete, From: edges[i].From, To: edges[i].To})
	}
	chosen := map[[2]uint32]bool{}
	for tries := 0; len(chosen) < 4 && tries < 1000; tries++ {
		u, v := pick(), pick()
		if u == v || u == victim || v == victim || g.HasEdge(u, v) || chosen[[2]uint32{u, v}] {
			continue
		}
		chosen[[2]uint32{u, v}] = true
		ds = append(ds, updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v})
	}
	next := uint32(g.NumIDs())
	join := func(label string) {
		ds = append(ds,
			updates.Update{Kind: updates.DataNodeInsert, Node: next, Labels: []string{label}},
			updates.Update{Kind: updates.DataEdgeInsert, From: next, To: pick()},
			updates.Update{Kind: updates.DataEdgeInsert, From: pick(), To: next})
		next++
		inserted++
	}
	join(g.Labels().Name(g.NodeLabels(pick())[0]))
	if founding != "" {
		join(founding)
	}
	if len(live) > 20 {
		ds = append(ds, updates.Update{Kind: updates.DataNodeDelete, Node: victim})
	}
	return ds, inserted
}

// TestAffExactInvalidation drives random batches — every update kind, a
// new partition every tenth batch — through an engine over two loopback
// workers, at a capped and at the exact horizon, re-planning the whole
// graph's row demand after each the way the hub does. After every batch
// no client may hold a row that differs from a from-scratch build of its
// partition's mirror, and the plan may have fetched only rows the flush
// invalidated or that belong to new nodes: rows of unaffected sources
// survive the batch instead of crossing the wire again.
func TestAffExactInvalidation(t *testing.T) {
	for _, horizon := range []int{3, 0} {
		t.Run(fmt.Sprintf("horizon%d", horizon), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1900 + horizon)))
			g := testkit.Shape{Nodes: 60, Edges: 200, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
			reg := obs.NewRegistry()
			fleet := make([]shard.Shard, 2)
			for i := range fleet {
				ts := httptest.NewServer(shard.NewServer().Handler())
				t.Cleanup(ts.Close)
				fleet[i] = shard.DialWith(ts.URL, reg)
			}
			e := NewEngine(g, horizon, WithShards(fleet...), WithMetrics(reg))
			e.Build()
			t.Cleanup(func() { _ = e.Close() })

			count := func(name string) uint64 { return reg.Counter(name).Value() }
			planAll := func() (demand, fetched uint64) {
				var live nodeset.Builder
				g.Nodes(live.Add)
				before := count("gpnm_rpc_rows_prefetched_total")
				e.PrefetchBallRows(live.Set())
				return 2 * uint64(live.Len()), count("gpnm_rpc_rows_prefetched_total") - before
			}
			planAll()
			parts0 := len(e.sv().part.parts)

			var demandSum, fetchedSum uint64
			for batch := 0; batch < 60; batch++ {
				founding := ""
				if batch%10 == 5 {
					founding = fmt.Sprintf("new%d", batch)
				}
				ds, inserted := churnBatch(rng, g, founding)
				dropped0 := count("gpnm_rpc_rows_invalidated_total")
				if _, _, err := e.ApplyDataBatch(ds, g); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				dropped := count("gpnm_rpc_rows_invalidated_total") - dropped0
				demand, fetched := planAll()
				if limit := dropped + 2*uint64(inserted); fetched > limit {
					t.Fatalf("batch %d: the plan refetched %d rows; the flush invalidated %d and %d nodes are new, so at most %d were missing",
						batch, fetched, dropped, inserted, limit)
				}
				demandSum, fetchedSum = demandSum+demand, fetchedSum+fetched
				if held := CheckHeldShardRows(t, e); uint64(held) < demand {
					t.Fatalf("batch %d: clients hold %d rows after a plan of %d", batch, held, demand)
				}
			}
			if fetchedSum >= demandSum {
				t.Fatalf("plans fetched %d rows for a demand of %d: nothing survived a batch", fetchedSum, demandSum)
			}
			t.Logf("plans fetched %d of %d demanded rows; %d held warm rows vouched for, %d first misses",
				fetchedSum, demandSum, count("gpnm_rpc_rows_unchanged_total"), count("gpnm_rpc_rows_missed_total"))
			if count("gpnm_rpc_rows_unchanged_total") == 0 {
				t.Error("no warm row was ever answered unchanged")
			}
			if got := len(e.sv().part.parts); got < parts0+6 {
				t.Errorf("%d partitions at the end, %d at the start: the founding inserts founded nothing", got, parts0)
			}
		})
	}
}

package partition_test

// Failover differential suite: kill one of two shard workers during a
// batch's op flush — the one phase of ApplyDataBatch that calls a worker
// — and pin that the batch still completes with results bit-for-bit
// equal to a Scratch session — the
// recovery rebuilt the lost partitions from the coordinator's mirrors,
// the epoch fence kept the survivor from double-applying, and the
// conservative anchor compensation kept the overlay exact. Run under
// -race (the tier-1 gate does): the kill switch flips on a handler
// goroutine while pool workers fan requests.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// killableWorker wraps a shard worker's handler with a kill switch: once
// dead it answers 503 to everything (/healthz included, so the failover
// probe sees a corpse, exactly like a kill -9'd process behind a closed
// port). Arm(path, skip) makes the skip+1-th request whose path matches
// the trigger — a worker serves one /ops per batch. With afterApply set
// the trigger request is served first and only its reply is lost: the
// worker dies having applied it.
type killableWorker struct {
	ts         *httptest.Server
	dead       atomic.Bool
	armed      atomic.Value // string ("" = disarmed)
	skip       atomic.Int64
	afterApply atomic.Bool
}

func newKillableWorker(t testing.TB) *killableWorker {
	t.Helper()
	k := &killableWorker{}
	k.armed.Store("")
	inner := shard.NewServer().Handler()
	k.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k.dead.Load() {
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
		if p, _ := k.armed.Load().(string); p != "" && strings.HasPrefix(r.URL.Path, p) {
			if k.skip.Add(-1) < 0 {
				if k.afterApply.Load() {
					inner.ServeHTTP(httptest.NewRecorder(), r)
				}
				k.dead.Store(true)
				http.Error(w, "killed", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(k.ts.Close)
	return k
}

func (k *killableWorker) arm(path string, skip int) {
	k.skip.Store(int64(skip))
	k.armed.Store(path)
}

// failoverInstance builds a random labelled graph and pattern (the
// shard differential suite's recipe, reproduced here because that
// helper lives in another external test package).
func failoverInstance(seed int64, n, m int) (*graph.Graph, *pattern.Graph) {
	labels := []string{"A", "B", "C", "D", "E"}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	p := pattern.New(g.Labels())
	ids := make([]pattern.NodeID, 3+rng.Intn(3))
	for i := range ids {
		ids[i] = p.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < len(ids)+1; i++ {
		p.AddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], pattern.Bound(1+rng.Intn(3)))
	}
	return g, p
}

// mixedBatch builds a deterministic data batch with at least nDel edge
// deletions and nIns insertions against g's current state. Deletions
// come first and the two sets are disjoint, so application order cannot
// interfere.
func mixedBatch(g *graph.Graph, rng *rand.Rand, nDel, nIns int) []updates.Update {
	var ds []updates.Update
	deleted := map[[2]uint32]bool{}
	var edges [][2]uint32
	g.Edges(func(e graph.Edge) { edges = append(edges, [2]uint32{e.From, e.To}) })
	for _, i := range rng.Perm(len(edges)) {
		if len(ds) >= nDel {
			break
		}
		e := edges[i]
		ds = append(ds, updates.Update{Kind: updates.DataEdgeDelete, From: e[0], To: e[1]})
		deleted[e] = true
	}
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	ins := 0
	for tries := 0; ins < nIns && tries < 10000; tries++ {
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]
		if u == v || g.HasEdge(u, v) || deleted[[2]uint32{u, v}] {
			continue
		}
		ds = append(ds, updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v})
		deleted[[2]uint32{u, v}] = true // reuse as "already chosen"
		ins++
	}
	return ds
}

// failoverFixture is one Scratch-vs-failover pairing: a reference
// Scratch session and a UA-GPNM session whose engine runs on two RPC
// workers, the second killable.
type failoverFixture struct {
	ref    *core.Session
	sess   *core.Session
	eng    *partition.Engine
	victim *killableWorker
	rng    *rand.Rand
}

// newFailoverFixture builds the pairing at pool width procs, which
// holds until t ends.
func newFailoverFixture(t *testing.T, seed int64, procs int, opts ...partition.Option) *failoverFixture {
	t.Helper()
	partition.WithProcs(t, procs)
	g, p := failoverInstance(seed, 40, 110)
	ref := core.NewSession(g.Clone(), p.Clone(), core.Config{Method: core.Scratch, Horizon: 3})

	healthy := newKillableWorker(t) // never armed
	victim := newKillableWorker(t)
	g2 := g.Clone()
	opts = append(opts,
		partition.WithShards(shard.Dial(healthy.ts.URL), shard.Dial(victim.ts.URL)))
	eng := partition.NewEngine(g2, 3, opts...)
	eng.Build()
	t.Cleanup(func() { _ = eng.Close() })
	sess := core.NewSessionWith(g2, p.Clone(), eng,
		core.Config{Method: core.UAGPNM, Horizon: 3})
	if !sess.Match.Equal(ref.Match) {
		t.Fatal("IQuery diverges from Scratch before any kill")
	}
	return &failoverFixture{ref: ref, sess: sess, eng: eng, victim: victim,
		rng: rand.New(rand.NewSource(seed * 31))}
}

// round applies one identical mixed batch to both sides and pins result
// equality.
func (fx *failoverFixture) round(t *testing.T, label string) {
	t.Helper()
	fx.roundN(t, label, 3, 3)
}

// roundN is round with a caller-chosen batch shape. Whatever the round
// went through — a healthy flush, a flush retried under its epoch after
// a loss, a survivor's rebuild, a spare built at the fence — the rows the
// surviving clients hold afterwards must be current, and the round's
// reads must have left some to check.
func (fx *failoverFixture) roundN(t *testing.T, label string, nDel, nIns int) {
	t.Helper()
	b := updates.Batch{D: mixedBatch(fx.ref.G, fx.rng, nDel, nIns)}
	want := fx.ref.SQuery(b)
	got := fx.sess.SQuery(b)
	if !got.Equal(want) {
		t.Fatalf("%s: failover session diverges from Scratch (batch %v)", label, b.D)
	}
	if partition.CheckHeldShardRows(t, fx.eng) == 0 {
		t.Fatalf("%s: no shard client holds a row after the round", label)
	}
}

// TestFailoverKillDuringPhases is the tentpole pin: killing one of two
// workers during ApplyDataBatch phase 2 (the op flush; the ball phases 1
// and 4 run on the coordinator's own graph and call no worker), at
// serial and wide pool widths, leaves the batch completed, the results
// equal to Scratch, the engine unpoisoned, and exactly one recovery
// recorded; subsequent batches run on the survivor alone and stay exact.
func TestFailoverKillDuringPhases(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run("phase2-op-flush", func(t *testing.T) {
			fx := newFailoverFixture(t, 7101, procs)
			fx.round(t, "healthy warm-up")

			fx.victim.arm("/ops", 0)
			fx.round(t, "kill mid-batch")
			if !fx.victim.dead.Load() {
				t.Fatal("trigger never fired: the batch did not exercise the armed phase")
			}
			if got := fx.eng.Recovered(); got != 1 {
				t.Fatalf("Recovered() = %d, want 1", got)
			}
			if fx.eng.Err() != nil {
				t.Fatalf("engine poisoned despite recovery: %v", fx.eng.Err())
			}
			if got := fx.eng.AliveShards(); got != 1 {
				t.Fatalf("AliveShards() = %d, want 1 (survivor only)", got)
			}

			// Life goes on: two more exact rounds on the survivor.
			fx.round(t, "post-recovery round 1")
			fx.round(t, "post-recovery round 2")
			if got := fx.eng.Recovered(); got != 1 {
				t.Fatalf("Recovered() after healthy rounds = %d, want still 1", got)
			}
		})
	}
}

// TestFailoverKillOnOpsFlush kills the victim on the batch's one /ops
// flush — before it applied the ops, and after it applied them with only
// the reply lost. Either way the coordinator sees a failed flush with the
// survivor possibly already past it: the rebuild is fenced at the flush's
// epoch (its snapshots contain the whole batch), the retry carries the
// same epoch, and the survivor answers it from its fence record instead
// of applying twice. Results stay bit-for-bit Scratch-equal.
func TestFailoverKillOnOpsFlush(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for ci, afterApply := range []bool{false, true} {
			afterApply := afterApply
			t.Run(fmt.Sprintf("workers%d-afterApply=%v", procs, afterApply), func(t *testing.T) {
				fx := newFailoverFixture(t, int64(7900+ci), procs)
				fx.roundN(t, "healthy warm-up", 5, 5)

				fx.victim.afterApply.Store(afterApply)
				fx.victim.arm("/ops", 0)
				fx.roundN(t, "kill on the flush", 5, 5)
				if !fx.victim.dead.Load() {
					t.Fatal("trigger never fired: the batch flushed no /ops")
				}
				if got := fx.eng.Recovered(); got != 1 {
					t.Fatalf("Recovered() = %d, want 1", got)
				}
				if fx.eng.Err() != nil {
					t.Fatalf("engine poisoned despite recovery: %v", fx.eng.Err())
				}
				fx.roundN(t, "post-recovery round", 5, 5)
			})
		}
	}
}

// TestFailoverPromotesSpare: with a standby worker configured, a loss
// promotes it into the dead slot (full build from the coordinator's
// mirrors) instead of packing partitions onto the survivor — the fleet
// stays at full width and results stay exact.
func TestFailoverPromotesSpare(t *testing.T) {
	spare := newKillableWorker(t)
	fx := newFailoverFixture(t, 7300, 2, partition.WithSpares(shard.Dial(spare.ts.URL)))
	fx.round(t, "healthy warm-up")

	fx.victim.arm("/ops", 0)
	fx.round(t, "kill mid-flush")
	if got := fx.eng.Recovered(); got != 1 {
		t.Fatalf("Recovered() = %d, want 1", got)
	}
	if got := fx.eng.AliveShards(); got != 2 {
		t.Fatalf("AliveShards() = %d, want 2 (spare promoted into the dead slot)", got)
	}
	fx.round(t, "post-promotion round")
}

// TestFailoverExhaustedPoisons: when every worker dies and no spare
// remains, the terminal poison path fires exactly as before the
// failover work — ApplyDataBatch returns ErrSubstrateLost with the
// transport error still extractable, and the engine stays poisoned.
func TestFailoverExhaustedPoisons(t *testing.T) {
	w1 := newKillableWorker(t)
	w2 := newKillableWorker(t)
	g, _ := failoverInstance(7500, 30, 80)
	eng := partition.NewEngine(g, 3,
		partition.WithShards(shard.Dial(w1.ts.URL), shard.Dial(w2.ts.URL)))
	eng.Build()
	t.Cleanup(func() { _ = eng.Close() })

	w1.arm("/ops", 0)
	w2.arm("/ops", 0)
	rng := rand.New(rand.NewSource(1))
	_, _, err := eng.ApplyDataBatch(mixedBatch(g, rng, 2, 2), g)
	if err == nil {
		t.Fatal("batch with every worker dead must error")
	}
	if !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("err = %v, want ErrSubstrateLost wrap", err)
	}
	var te *shard.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want wrapped *shard.TransportError", err)
	}
	if eng.Err() == nil {
		t.Fatal("engine must stay poisoned once recovery is exhausted")
	}
}

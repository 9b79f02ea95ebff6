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
	"uagpnm/internal/partition"
	"uagpnm/internal/shard"
	"uagpnm/internal/testkit"
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

// failoverShape is the failover suites' instance.
var failoverShape = testkit.Shape{Nodes: 40, Edges: 110, Labels: 5, PatNodes: 4, PatEdges: 5}

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
	testkit.WithProcs(t, procs)
	g, p := failoverShape.Instance(seed)
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
	b := updates.Generate(updates.GenConfig{Seed: fx.rng.Int63(), DataEdgeDeletes: nDel, DataEdgeInserts: nIns}, fx.ref.G, fx.ref.P)
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
// transport error still extractable, and the engine stays poisoned. A
// fork of it raises the same loss instead of starting from rows the
// failed batch may have moved.
func TestFailoverExhaustedPoisons(t *testing.T) {
	w1 := newKillableWorker(t)
	w2 := newKillableWorker(t)
	g, p := testkit.Shape{Nodes: 30, Edges: 80, Labels: 5, PatNodes: 1}.Instance(7500)
	eng := partition.NewEngine(g, 3,
		partition.WithShards(shard.Dial(w1.ts.URL), shard.Dial(w2.ts.URL)))
	eng.Build()
	t.Cleanup(func() { _ = eng.Close() })

	w1.arm("/ops", 0)
	w2.arm("/ops", 0)
	b := updates.Generate(updates.GenConfig{Seed: 1, DataEdgeDeletes: 2, DataEdgeInserts: 2}, g, p)
	_, _, err := eng.ApplyDataBatch(b.D, g)
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
	err = func() (err error) {
		defer partition.RecoverSubstrateLoss(&err)
		eng.CloneFor(g.Clone())
		return nil
	}()
	if !errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatalf("CloneFor of a poisoned engine: err = %v, want ErrSubstrateLost wrap", err)
	}
}

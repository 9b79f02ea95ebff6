package shard_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
)

// memSource is a hand-built shard.Source: explicit partition subgraphs,
// so the bulk-row suite can drive a worker without a coordinator engine
// in the loop.
type memSource struct {
	parts []*graph.Graph
}

func (s memSource) PartSnapshot(i int) shard.Snapshot { return shard.Snap(i, s.parts[i]) }

// randomSub builds one partition subgraph: n nodes, m edges, and one
// node deleted so every suite run covers dead sources.
func randomSub(rng *rand.Rand, n, m int) *graph.Graph {
	g := testkit.Shape{Nodes: n, Edges: m, Labels: 1}.Graph(rng.Int63())
	g.RemoveNode(uint32(rng.Intn(n)))
	return g
}

// pair is one row entry as a reader sees it.
type pair struct {
	v uint32
	d shortest.Dist
}

// pairsOf lists a row in visit order. Every row of this suite comes off
// an ascending engine scan, so equal rows list equal.
func pairsOf(r shard.Row) []pair {
	out := make([]pair, 0, r.Len())
	r.Visit(int(shortest.Inf), func(v uint32, d shortest.Dist) bool {
		out = append(out, pair{v, d})
		return true
	})
	return out
}

// ballOf collects one ball through the Shard Ball surface.
func ballOf(t *testing.T, sh shard.Shard, part int, src uint32, maxD int, reverse bool) []pair {
	t.Helper()
	var out []pair
	if err := sh.Ball(part, src, maxD, reverse, func(v uint32, d shortest.Dist) bool {
		out = append(out, pair{v, d})
		return true
	}); err != nil {
		t.Fatalf("Ball(%d, %d, rev=%v): %v", part, src, reverse, err)
	}
	return out
}

func rowsEqual(a, b shard.Row) bool { return slices.Equal(pairsOf(a), pairsOf(b)) }

// TestBulkRowsMatchesSingletonFetches is the bulk-read differential:
// for random partition subgraphs (dead nodes included), the bulk Rows
// answer must equal row-by-row one-element Rows calls — the first-miss
// path — and the Ball read off them, in both directions, on a fresh
// cache, a warm cache, and after a mutation invalidated the rows it
// moved — with an in-process Local over the same subgraphs as the
// ground truth for both RPC clients.
func TestBulkRowsMatchesSingletonFetches(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(40 + trial))
			n0 := 12 + rng.Intn(8)
			sub0 := randomSub(rng, n0, 3*n0)
			sub1 := randomSub(rng, 10, 24)
			src := memSource{parts: []*graph.Graph{sub0, sub1}}

			ts := httptest.NewServer(shard.NewServer().Handler())
			defer ts.Close()
			cfg := shard.Config{Horizon: 3}
			owned := []int{0, 1}

			bulk := shard.Dial(ts.URL)   // reads through one Rows call
			single := shard.Dial(ts.URL) // reads row by row
			defer bulk.Close()
			defer single.Close()
			if err := bulk.Build(cfg, 0, owned, src); err != nil {
				t.Fatalf("Build: %v", err)
			}
			oracle := shard.NewLocal()
			if err := oracle.Build(cfg, 0, owned, src); err != nil {
				t.Fatalf("oracle Build: %v", err)
			}

			var reqs []shard.RowReq
			for p, sub := range src.parts {
				for local := 0; local < sub.NumIDs(); local++ {
					for _, rev := range []bool{false, true} {
						reqs = append(reqs, shard.RowReq{Part: p, Src: uint32(local), Reverse: rev})
					}
				}
			}
			rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

			check := func(stage string) {
				t.Helper()
				got, err := bulk.Rows(reqs)
				if err != nil {
					t.Fatalf("%s: Rows: %v", stage, err)
				}
				want, err := oracle.Rows(reqs)
				if err != nil {
					t.Fatalf("%s: oracle Rows: %v", stage, err)
				}
				for i, rq := range reqs {
					if !rowsEqual(got[i], want[i]) {
						t.Fatalf("%s: bulk row (part=%d src=%d rev=%v) = %v, oracle %v",
							stage, rq.Part, rq.Src, rq.Reverse, pairsOf(got[i]), pairsOf(want[i]))
					}
					one, err := single.Rows([]shard.RowReq{rq})
					if err != nil {
						t.Fatalf("%s: one-element Rows: %v", stage, err)
					}
					if !rowsEqual(one[0], want[i]) {
						t.Fatalf("%s: one-element row (part=%d src=%d rev=%v) = %v, oracle %v",
							stage, rq.Part, rq.Src, rq.Reverse, pairsOf(one[0]), pairsOf(want[i]))
					}
					if ball := ballOf(t, single, rq.Part, rq.Src, cfg.Horizon, rq.Reverse); !slices.Equal(ball, pairsOf(want[i])) {
						t.Fatalf("%s: ball (part=%d src=%d rev=%v) = %v, oracle row %v",
							stage, rq.Part, rq.Src, rq.Reverse, ball, pairsOf(want[i]))
					}
				}
			}
			check("cold")
			check("warm") // second pass is all cache hits; must not drift

			// Mutate partition 0 (a fresh intra edge) through both clients
			// at one epoch: the first delivery applies, the second hits the
			// worker's fence and is answered its record — so both drop the
			// rows the edge moved, and the recheck reads post-mutation state
			// everywhere.
			var from, to uint32
			for {
				from, to = uint32(rng.Intn(n0)), uint32(rng.Intn(n0))
				if from != to && sub0.Alive(from) && sub0.Alive(to) && !sub0.HasEdge(from, to) {
					break
				}
			}
			op := shard.Op{Kind: shard.OpEdgeInsert, From: from, To: to,
				Part: 0, Shard: 0, LFrom: from, LTo: to}
			for _, cl := range []*shard.RPC{bulk, single} {
				if _, err := cl.ApplyOps(1, []shard.Op{op}, nil); err != nil {
					t.Fatalf("ApplyOps: %v", err)
				}
			}
			sub0.AddEdge(from, to) // keep the source current
			if _, err := oracle.ApplyOps(1, []shard.Op{op}, nil); err != nil {
				t.Fatalf("oracle ApplyOps: %v", err)
			}
			check("post-mutation")

			// Unowned partitions must refuse on both read paths, not
			// answer empty rows a cache could be poisoned with.
			if _, err := bulk.Rows([]shard.RowReq{{Part: 7, Src: 0}}); err == nil {
				t.Fatal("bulk Rows on an unowned partition must error")
			}
			if err := single.Ball(7, 0, cfg.Horizon, false, func(uint32, shortest.Dist) bool { return true }); err == nil {
				t.Fatal("first-miss Ball on an unowned partition must error")
			}
		})
	}
}

// TestRowsSingleflightUnderConcurrency hammers one worker with
// concurrent overlapping bulk and first-miss reads of the same keys.
// Run under -race (the tier-1 gate does): it proves the client cache,
// the in-flight table and the bulk resolution path hold up when many
// goroutines converge on hot rows.
func TestRowsSingleflightUnderConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sub := randomSub(rng, 16, 48)
	src := memSource{parts: []*graph.Graph{sub}}
	ts := httptest.NewServer(shard.NewServer().Handler())
	defer ts.Close()
	cfg := shard.Config{Horizon: 3}
	cl := shard.Dial(ts.URL)
	defer cl.Close()
	if err := cl.Build(cfg, 0, []int{0}, src); err != nil {
		t.Fatalf("Build: %v", err)
	}
	oracle := shard.NewLocal()
	if err := oracle.Build(cfg, 0, []int{0}, src); err != nil {
		t.Fatalf("oracle Build: %v", err)
	}

	var reqs []shard.RowReq
	for local := 0; local < sub.NumIDs(); local++ {
		reqs = append(reqs, shard.RowReq{Part: 0, Src: uint32(local)})
		reqs = append(reqs, shard.RowReq{Part: 0, Src: uint32(local), Reverse: true})
	}
	want, err := oracle.Rows(reqs)
	if err != nil {
		t.Fatalf("oracle Rows: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Even goroutines fetch the whole set in bulk (shuffled per
			// goroutine), odd ones walk it ball by ball — every key is
			// contended across both paths at once.
			local := append([]shard.RowReq(nil), reqs...)
			rand.New(rand.NewSource(int64(w))).Shuffle(len(local), func(i, j int) {
				local[i], local[j] = local[j], local[i]
			})
			if w%2 == 0 {
				got, err := cl.Rows(local)
				if err != nil {
					errs <- err
					return
				}
				for i, rq := range local {
					idx := int(rq.Src) * 2
					if rq.Reverse {
						idx++
					}
					if !rowsEqual(got[i], want[idx]) {
						errs <- fmt.Errorf("bulk row (src=%d rev=%v) diverged", rq.Src, rq.Reverse)
						return
					}
				}
				return
			}
			for _, rq := range local {
				var ball []pair
				if err := cl.Ball(rq.Part, rq.Src, cfg.Horizon, rq.Reverse, func(v uint32, d shortest.Dist) bool {
					ball = append(ball, pair{v, d})
					return true
				}); err != nil {
					errs <- err
					return
				}
				idx := int(rq.Src) * 2
				if rq.Reverse {
					idx++
				}
				if !slices.Equal(ball, pairsOf(want[idx])) {
					errs <- fmt.Errorf("first-miss ball (src=%d rev=%v) diverged", rq.Src, rq.Reverse)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

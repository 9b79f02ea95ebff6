package shard

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
)

// The shard rungs of the ladder, shaped like one batch of the repository
// benchmark's serve_sharded workload (2 000 nodes in 16 partitions,
// horizon 3): rows of about 40 entries in 4 layers.

func benchAnswers(rng *rand.Rand, n int) []rowAnswer {
	rows := make([]rowAnswer, n)
	for i := range rows {
		rows[i] = rowAnswer{state: rowFull, row: randomRow(rng, 30+rng.Intn(21), 4)}
	}
	return rows
}

// BenchmarkRowsCodec encodes and decodes one /rows answer of a cold
// plan (1 355 rows) and one /ops answer (30 affected sets and 700 warm
// rows, every other one unchanged).
func BenchmarkRowsCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rows := benchAnswers(rng, 1355)
	ops := opsResponse{aff: make([][]uint32, 30), rows: benchAnswers(rng, 700)}
	for i := range ops.aff {
		if i%3 != 0 { // a third of the ops are another worker's
			ops.aff[i] = randomIDs(rng, 5+rng.Intn(30))
		}
	}
	for i := range ops.rows {
		if i%2 == 1 {
			ops.rows[i] = rowAnswer{state: rowUnchanged}
		}
	}
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encodeRows(rows))))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := decodeRows(encodeRows(rows)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ops", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encodeOpsResponse(ops))))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := decodeOpsResponse(encodeOpsResponse(ops)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRPCBall reads warm balls through the client — the hit path
// every stitched row build takes several times — at radius 1 and 3, from
// 2 goroutines at once.
func BenchmarkRPCBall(b *testing.B) {
	const n = 125
	sub := testkit.Shape{Nodes: n, Edges: 450, Labels: 1}.Graph(4)
	src := pathSource{sub}
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	cl := Dial(ts.URL)
	defer cl.Close()
	if err := cl.Build(Config{Horizon: 3}, 0, []int{0}, src); err != nil {
		b.Fatal(err)
	}
	if _, err := cl.Rows(src.allRows()); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		b.Run(fmt.Sprintf("warm_k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var wg sync.WaitGroup
			var entries [2]int
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					seen := 0 // the goroutine's own: a shared counter would time the cache line
					visit := func(uint32, shortest.Dist) bool { seen++; return true }
					for i := w; i < b.N; i += 2 {
						if err := cl.Ball(0, uint32(i%n), k, i%4 < 2, visit); err != nil {
							b.Error(err)
							return
						}
					}
					entries[w] = seen
				}(w)
			}
			wg.Wait()
			if b.N > 1 && entries[0]+entries[1] == 0 {
				b.Fatal("the balls were empty")
			}
		})
	}
}

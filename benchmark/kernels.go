package main

// Kernel rungs for the bottom layers — nodeset, sparse, shortest — run
// under testing.Benchmark on inputs captured from the run itself, so row
// lengths and set sizes have the distribution the workload produces.

import (
	"flag"
	"math/rand"
	"testing"
	"time"

	"uagpnm"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/sparse"
	"uagpnm/internal/updates"
)

// partitionELLWidth is the ELL row width the partition engine gives its
// intra matrices (partition.NewEngine's default), so the sparse rungs
// exercise the layout the hot path uses.
const partitionELLWidth = 8

// sink keeps the compiler from discarding the measured calls.
var sink int

type rung struct {
	NsPerOp     float64
	AllocsPerOp float64
}

func bench(fn func(b *testing.B)) rung {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		return rung{}
	}
	return rung{float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N)}
}

// setBenchtime bounds how long each rung runs.
func setBenchtime(d time.Duration) {
	testing.Init() // registers test.benchtime when not under go test
	flag.Set("test.benchtime", d.String())
}

type kernelOutput struct {
	SetRow, RowScan, Get        rung
	Union, BuilderSet, BitsDiff rung
	BallUS                      float64
	ShortestBuildMS             float64
	InsertEdgeUS, DeleteEdgeUS  float64
	Rows, Sets, EdgeOps         int
}

// runKernels measures the rungs on what the replay captured.
func runKernels(rng *rand.Rand, rep *replayOutput, g0 *uagpnm.Graph, horizon int) kernelOutput {
	var out kernelOutput
	g := rep.Graph

	// Full-horizon rows of sampled sources: what the substrate stores
	// per node and the stitched read path scans.
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	sources := make([]uint32, min(1000, len(live)))
	for i := range sources {
		sources[i] = live[rng.Intn(len(live))]
	}
	gb := shortest.NewGraphBall()
	t0 := time.Now()
	for _, s := range sources {
		sink += len(gb.Ball(g, s, horizon, false))
	}
	out.BallUS = float64(time.Since(t0)) / 1e3 / float64(len(sources))

	type row struct {
		cols []uint32
		vals []sparse.Dist
	}
	var rows []row
	for _, s := range sources[:min(maxCaptured, len(sources))] {
		if cols, vals := gb.Row(g, s, horizon, false); len(cols) > 0 { // the slices alias gb's scratch
			rows = append(rows, row{append([]uint32(nil), cols...), append([]sparse.Dist(nil), vals...)})
		}
	}
	out.Rows = len(rows)
	m := sparse.NewMatrix(len(rows), partitionELLWidth)
	out.SetRow = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := rows[i%len(rows)]
			m.SetRow(uint32(i%len(rows)), r.cols, r.vals)
		}
	})
	out.RowScan = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Row(uint32(i%len(rows)), func(c sparse.Col, d sparse.Dist) bool {
				sink += int(d)
				return true
			})
		}
	})
	out.Get = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := rows[i%len(rows)]
			sink += int(m.Get(uint32(i%len(rows)), r.cols[i%len(r.cols)]))
		}
	})

	// Set algebra on the batch's affected sets and on the simulation
	// images a pass changed.
	out.Sets = len(rep.AffSets)
	if sets := rep.AffSets; len(sets) > 1 {
		out.Union = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += sets[i%len(sets)].Union(sets[(i+1)%len(sets)]).Len()
			}
		})
		out.BuilderSet = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var bl nodeset.Builder
				for j := 0; j < 8; j++ {
					bl.AddAll(sets[(i+j)%len(sets)])
				}
				sink += bl.Set().Len()
			}
		})
	}
	if n := len(rep.OldSets); n > 0 {
		olds := make([]*nodeset.Bits, n)
		news := make([]*nodeset.Bits, n)
		for i := range olds {
			olds[i], news[i] = nodeset.NewBits(rep.Capacity), nodeset.NewBits(rep.Capacity)
			olds[i].AddSet(rep.OldSets[i])
			news[i].AddSet(rep.NewSets[i])
		}
		out.BitsDiff = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += olds[i%n].DiffSet(news[i%n]).Len()
			}
		})
	}

	// The global SLen engine: build, then the replay's edge operations
	// one by one (only the engine call is timed).
	eg := g0.Clone()
	eng := shortest.NewEngine(eg, horizon)
	t0 = time.Now()
	eng.Build()
	out.ShortestBuildMS = ms(time.Since(t0))
	var ins, del []float64
	for _, u := range rep.EdgeOps {
		if !eg.Alive(u.From) || !eg.Alive(u.To) {
			continue // an endpoint the replay inserted; node operations are not replayed here
		}
		switch u.Kind {
		case updates.DataEdgeInsert:
			if eg.AddEdge(u.From, u.To) {
				t0 := time.Now()
				sink += eng.InsertEdge(u.From, u.To).Len()
				ins = append(ins, float64(time.Since(t0))/1e3)
			}
		case updates.DataEdgeDelete:
			if eg.RemoveEdge(u.From, u.To) {
				t0 := time.Now()
				sink += eng.DeleteEdge(u.From, u.To).Len()
				del = append(del, float64(time.Since(t0))/1e3)
			}
		}
	}
	out.EdgeOps = len(ins) + len(del)
	out.InsertEdgeUS, out.DeleteEdgeUS = median(ins), median(del)
	return out
}

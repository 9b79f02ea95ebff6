// Package bench implements the experiment harness of §VII: the full
// protocol (five datasets × five pattern sizes × five ΔG scales ×
// repetitions × four methods) and the report generators for every table
// and figure of the paper's evaluation — Tables XI–XIV and the series
// behind Figs. 5–9. cmd/gpnm-bench is the CLI front end; bench_test.go
// at the module root exposes the same cells as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"

	"uagpnm/internal/core"
	"uagpnm/internal/datasets"
	"uagpnm/internal/graph"
	"uagpnm/internal/partition"
	"uagpnm/internal/patgen"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// Protocol is one experiment configuration.
type Protocol struct {
	Datasets     []datasets.Spec
	PatternSizes [][2]int // (nodes, edges) per §VII-A: (6,6)…(10,10)
	Scales       [][2]int // (pattern updates, data updates): (6,200)…(10,1000)
	Reps         int      // independent runs per cell (paper: 125)
	Horizon      int      // SLen hop cap (3: the generator's max bound)
	Methods      []core.Method
	Workers      int       // engine worker pool bound (0 = default, 1 = serial)
	Progress     io.Writer // optional run log; nil silences it
}

// PaperPatternSizes are the five pattern sizes of Figs. 5–9.
var PaperPatternSizes = [][2]int{{6, 6}, {7, 7}, {8, 8}, {9, 9}, {10, 10}}

// PaperScales are the five ΔG scales of Figs. 5–9.
var PaperScales = [][2]int{{6, 200}, {7, 400}, {8, 600}, {9, 800}, {10, 1000}}

// MiniScales shrink the data-update counts for quick runs, preserving
// the growth shape.
var MiniScales = [][2]int{{6, 40}, {7, 80}, {8, 120}, {9, 160}, {10, 200}}

// ComparedMethods are the four methods of the paper's evaluation.
var ComparedMethods = []core.Method{core.INCGPNM, core.EHGPNM, core.UAGPNMNoPar, core.UAGPNM}

// Default returns the full (mini=false) or reduced (mini=true) protocol.
func Default(mini bool) Protocol {
	p := Protocol{
		PatternSizes: PaperPatternSizes,
		Scales:       PaperScales,
		Reps:         3,
		Horizon:      3,
		Methods:      ComparedMethods,
	}
	if mini {
		p.Datasets = datasets.Mini()
		p.Scales = MiniScales
		p.Reps = 2
	} else {
		p.Datasets = datasets.Sim()
	}
	return p
}

// Cell is one measured cell: a (dataset, pattern size, ΔG scale, method)
// combination averaged over the repetitions.
type Cell struct {
	Dataset       string
	PatternSize   [2]int
	Scale         [2]int
	Method        core.Method
	Runs          int
	TotalSeconds  float64
	AvgRoots      float64
	AvgEliminated float64
	AvgSeeds      float64
}

// AvgSeconds is the mean SQuery time of the cell.
func (c Cell) AvgSeconds() float64 {
	if c.Runs == 0 {
		return 0
	}
	return c.TotalSeconds / float64(c.Runs)
}

// Results collects every measured cell of one protocol run.
type Results struct {
	Protocol Protocol
	Cells    []Cell
}

// Run executes the protocol and returns the measurements.
func (pr Protocol) Run() *Results {
	res := &Results{Protocol: pr}
	logf := func(format string, args ...interface{}) {
		if pr.Progress != nil {
			fmt.Fprintf(pr.Progress, format, args...)
		}
	}
	for di, spec := range pr.Datasets {
		logf("dataset %s: generating %d nodes / %d edges\n", spec.Name, spec.Nodes, spec.Edges)
		g := datasets.GenerateSocial(spec.SocialConfig)
		baseEngines := pr.buildBaseEngines(g)
		logf("dataset %s: engines built\n", spec.Name)
		for si, size := range pr.PatternSizes {
			for rep := 0; rep < pr.Reps; rep++ {
				seedBase := int64(di*100003 + si*1009 + rep*31)
				p := patgen.Generate(patgen.Config{
					Nodes: size[0], Edges: size[1],
					BoundMin: 1, BoundMax: pr.Horizon,
					Seed:   seedBase,
					Labels: patgen.LabelsOf(g),
				}, g.Labels())
				base := make(map[core.Method]*core.Session, len(pr.Methods))
				for _, m := range pr.Methods {
					g2 := g.Clone()
					eng := baseEngines[engineKind(m)].CloneFor(g2)
					base[m] = core.NewSessionWith(g2, p.Clone(), eng,
						core.Config{Method: m, Horizon: pr.Horizon, Workers: pr.Workers})
				}
				for sci, scale := range pr.Scales {
					batch := updates.Generate(
						updates.Balanced(seedBase*7919+int64(sci), scale[0], scale[1]), g, p)
					for _, m := range pr.Methods {
						s := base[m].Fork()
						s.SQuery(batch)
						st := s.Stats
						if m == core.UAGPNM || m == core.UAGPNMNoPar {
							// The UA pass does not build the tree; its
							// columns come from the untimed analysis.
							tree := base[m].Elimination(batch)
							st.TreeRoots, st.Eliminated = len(tree.Roots), tree.EliminatedCount()
						}
						res.record(spec.Name, size, scale, m, st)
					}
				}
				logf("dataset %s: pattern (%d,%d) rep %d done\n", spec.Name, size[0], size[1], rep)
			}
		}
	}
	return res
}

// engineKind groups methods by the engine they run on.
func engineKind(m core.Method) int {
	if m == core.UAGPNM {
		return 1
	}
	return 0
}

func (pr Protocol) buildBaseEngines(g *graph.Graph) map[int]shortest.DistanceEngine {
	out := make(map[int]shortest.DistanceEngine, 2)
	needGlobal, needPart := false, false
	for _, m := range pr.Methods {
		if engineKind(m) == 1 {
			needPart = true
		} else {
			needGlobal = true
		}
	}
	if needGlobal {
		var opts []shortest.Option
		if pr.Workers > 0 {
			opts = append(opts, shortest.WithWorkers(pr.Workers))
		}
		e := shortest.NewEngine(g, pr.Horizon, opts...)
		e.Build()
		out[0] = e
	}
	if needPart {
		var opts []partition.Option
		if pr.Workers > 0 {
			opts = append(opts, partition.WithWorkers(pr.Workers))
		}
		e := partition.NewEngine(g, pr.Horizon, opts...)
		e.Build()
		out[1] = e
	}
	return out
}

func (r *Results) record(dataset string, size, scale [2]int, m core.Method, st core.QueryStats) {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Dataset == dataset && c.PatternSize == size && c.Scale == scale && c.Method == m {
			c.Runs++
			c.TotalSeconds += st.Duration.Seconds()
			c.AvgRoots += roll(c.AvgRoots, float64(st.TreeRoots), c.Runs)
			c.AvgEliminated += roll(c.AvgEliminated, float64(st.Eliminated), c.Runs)
			c.AvgSeeds += roll(c.AvgSeeds, float64(st.SeedNodes), c.Runs)
			return
		}
	}
	r.Cells = append(r.Cells, Cell{
		Dataset: dataset, PatternSize: size, Scale: scale, Method: m,
		Runs: 1, TotalSeconds: st.Duration.Seconds(),
		AvgRoots:      float64(st.TreeRoots),
		AvgEliminated: float64(st.Eliminated),
		AvgSeeds:      float64(st.SeedNodes),
	})
}

// roll computes the increment that turns a running mean over n-1 samples
// into the mean over n samples including x.
func roll(mean, x float64, n int) float64 { return (x - mean) / float64(n) }

// average computes the mean AvgSeconds over the cells selected by keep.
func (r *Results) average(keep func(Cell) bool) (float64, int) {
	sum, n := 0.0, 0
	for _, c := range r.Cells {
		if keep(c) {
			sum += c.TotalSeconds
			n += c.Runs
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// MethodAverage returns the mean query time of a method on one dataset
// ("" = all datasets) — the numbers behind Tables XI and XIII.
func (r *Results) MethodAverage(dataset string, m core.Method) float64 {
	avg, _ := r.average(func(c Cell) bool {
		return (dataset == "" || c.Dataset == dataset) && c.Method == m
	})
	return avg
}

// ScaleAverage returns the mean query time of a method at one ΔG scale.
func (r *Results) ScaleAverage(scale [2]int, m core.Method) float64 {
	avg, _ := r.average(func(c Cell) bool {
		return c.Scale == scale && c.Method == m
	})
	return avg
}

// CellAverage returns the mean query time of one figure point.
func (r *Results) CellAverage(dataset string, size, scale [2]int, m core.Method) float64 {
	avg, _ := r.average(func(c Cell) bool {
		return c.Dataset == dataset && c.PatternSize == size && c.Scale == scale && c.Method == m
	})
	return avg
}

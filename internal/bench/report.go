package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"uagpnm/internal/core"
)

// RunEnv records the hardware and concurrency context BENCH_seed.json
// was recorded under, so its absolute times can be read on another
// machine.
type RunEnv struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"` // the engines' pool width
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() RunEnv {
	return RunEnv{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// This file renders the paper's evaluation artifacts from a Results:
//
//	TableXI   — average query processing time per dataset per method
//	TableXII  — UA-GPNM's reduction vs INC-GPNM, EH-GPNM, UA-GPNM-NoPar
//	            per dataset
//	TableXIII — average query time per ΔG scale per method
//	TableXIV  — UA-GPNM's reduction per ΔG scale
//	Figure    — one of Figs. 5–9: per pattern size, the four methods'
//	            series over the five ΔG scales for one dataset
//
// Absolute numbers differ from the paper (Go vs C++, synthetic stand-in
// graphs at reduced scale); the artifact under reproduction is the shape
// — ordering and relative gaps (see EXPERIMENTS.md).

// fmtSecs renders a duration in adaptive units.
func fmtSecs(s float64) string {
	switch {
	case s == 0:
		return "-"
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}

func fmtPct(less float64) string { return fmt.Sprintf("%.2f%% less", less*100) }

// reduction returns how much faster "mine" is than "other" as a fraction
// of other (the paper's "x% less" figures).
func reduction(mine, other float64) float64 {
	if other == 0 {
		return 0
	}
	return (other - mine) / other
}

func (r *Results) datasetNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range r.Protocol.Datasets {
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	return names
}

// TableXI renders the average query processing time per dataset
// (paper Table XI).
func (r *Results) TableXI() string {
	var b strings.Builder
	b.WriteString("Table XI: average query processing time per dataset\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "Dataset")
	order := []core.Method{core.UAGPNM, core.UAGPNMNoPar, core.EHGPNM, core.INCGPNM}
	methods := r.methodsInOrder(order)
	for _, m := range methods {
		fmt.Fprintf(w, "\t%s", m)
	}
	fmt.Fprintln(w)
	totals := make([]float64, len(methods))
	for _, name := range r.datasetNames() {
		fmt.Fprint(w, name)
		for i, m := range methods {
			avg := r.MethodAverage(name, m)
			totals[i] += avg
			fmt.Fprintf(w, "\t%s", fmtSecs(avg))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "Average")
	n := len(r.datasetNames())
	for i := range methods {
		avg := 0.0
		if n > 0 {
			avg = totals[i] / float64(n)
		}
		fmt.Fprintf(w, "\t%s", fmtSecs(avg))
	}
	fmt.Fprintln(w)
	w.Flush()
	return b.String()
}

func (r *Results) methodsInOrder(order []core.Method) []core.Method {
	have := map[core.Method]bool{}
	for _, m := range r.Protocol.Methods {
		have[m] = true
	}
	var out []core.Method
	for _, m := range order {
		if have[m] {
			out = append(out, m)
		}
	}
	return out
}

// TableXII renders UA-GPNM's reduction per dataset (paper Table XII).
func (r *Results) TableXII() string {
	var b strings.Builder
	b.WriteString("Table XII: UA-GPNM query time reduction per dataset\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Dataset\tvs INC-GPNM\tvs EH-GPNM\tvs UA-GPNM-NoPar")
	baselines := []core.Method{core.INCGPNM, core.EHGPNM, core.UAGPNMNoPar}
	sums := make([]float64, len(baselines))
	names := r.datasetNames()
	for _, name := range names {
		ua := r.MethodAverage(name, core.UAGPNM)
		fmt.Fprint(w, name)
		for i, base := range baselines {
			red := reduction(ua, r.MethodAverage(name, base))
			sums[i] += red
			fmt.Fprintf(w, "\t%s", fmtPct(red))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "Average")
	for i := range baselines {
		avg := 0.0
		if len(names) > 0 {
			avg = sums[i] / float64(len(names))
		}
		fmt.Fprintf(w, "\t%s", fmtPct(avg))
	}
	fmt.Fprintln(w)
	w.Flush()
	return b.String()
}

// TableXIII renders the average query time per ΔG scale (paper Table XIII).
func (r *Results) TableXIII() string {
	var b strings.Builder
	b.WriteString("Table XIII: average query processing time per ΔG scale\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	order := []core.Method{core.UAGPNM, core.UAGPNMNoPar, core.EHGPNM, core.INCGPNM}
	methods := r.methodsInOrder(order)
	fmt.Fprint(w, "Scale of ΔG")
	for _, m := range methods {
		fmt.Fprintf(w, "\t%s", m)
	}
	fmt.Fprintln(w)
	for _, sc := range r.Protocol.Scales {
		fmt.Fprintf(w, "(%d, %d)", sc[0], sc[1])
		for _, m := range methods {
			fmt.Fprintf(w, "\t%s", fmtSecs(r.ScaleAverage(sc, m)))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// TableXIV renders UA-GPNM's reduction per ΔG scale (paper Table XIV).
func (r *Results) TableXIV() string {
	var b strings.Builder
	b.WriteString("Table XIV: UA-GPNM query time reduction per ΔG scale\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Scale of ΔG\tvs INC-GPNM\tvs EH-GPNM\tvs UA-GPNM-NoPar")
	for _, sc := range r.Protocol.Scales {
		ua := r.ScaleAverage(sc, core.UAGPNM)
		fmt.Fprintf(w, "(%d, %d)", sc[0], sc[1])
		for _, base := range []core.Method{core.INCGPNM, core.EHGPNM, core.UAGPNMNoPar} {
			fmt.Fprintf(w, "\t%s", fmtPct(reduction(ua, r.ScaleAverage(sc, base))))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// FigureNumber maps a dataset name to its figure number in the paper
// (Figs. 5–9 in Table X order), or 0.
func FigureNumber(dataset string) int {
	switch dataset {
	case "email-EU-core":
		return 5
	case "DBLP":
		return 6
	case "Amazon":
		return 7
	case "Youtube":
		return 8
	case "LiveJournal":
		return 9
	}
	return 0
}

// Figure renders the series of one of Figs. 5–9: for each pattern size,
// the average query time of every method across the ΔG scales.
func (r *Results) Figure(dataset string) string {
	var b strings.Builder
	if n := FigureNumber(dataset); n > 0 {
		fmt.Fprintf(&b, "Fig. %d: average query processing time in %s\n", n, dataset)
	} else {
		fmt.Fprintf(&b, "Figure: average query processing time in %s\n", dataset)
	}
	order := []core.Method{core.UAGPNM, core.UAGPNMNoPar, core.EHGPNM, core.INCGPNM}
	methods := r.methodsInOrder(order)
	for _, size := range r.Protocol.PatternSizes {
		fmt.Fprintf(&b, "\nThe size of pattern graph = (%d, %d)\n", size[0], size[1])
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "Method")
		for _, sc := range r.Protocol.Scales {
			fmt.Fprintf(w, "\t(%d, %d)", sc[0], sc[1])
		}
		fmt.Fprintln(w)
		for _, m := range methods {
			fmt.Fprint(w, m)
			for _, sc := range r.Protocol.Scales {
				fmt.Fprintf(w, "\t%s", fmtSecs(r.CellAverage(dataset, size, sc, m)))
			}
			fmt.Fprintln(w)
		}
		w.Flush()
	}
	return b.String()
}

// CSV dumps every cell for external plotting, sorted deterministically.
// cellLess is the canonical cell ordering shared by CSV and JSON dumps:
// dataset, then pattern size, then ΔG scale, then method.
func cellLess(a, c Cell) bool {
	if a.Dataset != c.Dataset {
		return a.Dataset < c.Dataset
	}
	if a.PatternSize != c.PatternSize {
		return a.PatternSize[0] < c.PatternSize[0] ||
			(a.PatternSize[0] == c.PatternSize[0] && a.PatternSize[1] < c.PatternSize[1])
	}
	if a.Scale != c.Scale {
		return a.Scale[1] < c.Scale[1] || (a.Scale[1] == c.Scale[1] && a.Scale[0] < c.Scale[0])
	}
	return evalOrder(a.Method) < evalOrder(c.Method)
}

// evalOrder is a method's position in core.Methods (the paper's
// evaluation order, which the constants' numeric values do not follow).
func evalOrder(m core.Method) int {
	for i, x := range core.Methods {
		if x == m {
			return i
		}
	}
	return len(core.Methods)
}

func (r *Results) CSV() string {
	var b strings.Builder
	b.WriteString("dataset,pattern_nodes,pattern_edges,scale_p,scale_d,method,runs,avg_seconds,avg_roots,avg_eliminated,avg_seeds\n")
	cells := append([]Cell(nil), r.Cells...)
	sort.Slice(cells, func(i, j int) bool { return cellLess(cells[i], cells[j]) })
	for _, c := range cells {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%s,%d,%.9f,%.2f,%.2f,%.1f\n",
			c.Dataset, c.PatternSize[0], c.PatternSize[1], c.Scale[0], c.Scale[1],
			c.Method, c.Runs, c.AvgSeconds(), c.AvgRoots, c.AvgEliminated, c.AvgSeeds)
	}
	return b.String()
}

// jsonCell mirrors Cell with stable, snake_case field names for the
// machine-readable dump (BENCH_seed.json).
type jsonCell struct {
	Dataset      string  `json:"dataset"`
	PatternNodes int     `json:"pattern_nodes"`
	PatternEdges int     `json:"pattern_edges"`
	ScaleP       int     `json:"scale_p"`
	ScaleD       int     `json:"scale_d"`
	Method       string  `json:"method"`
	Runs         int     `json:"runs"`
	AvgSeconds   float64 `json:"avg_seconds"`
	AvgRoots     float64 `json:"avg_roots"`
	AvgElim      float64 `json:"avg_eliminated"`
	AvgSeeds     float64 `json:"avg_seeds"`
}

// JSON dumps every cell plus the per-method averages, sorted like CSV.
func (r *Results) JSON() ([]byte, error) {
	cells := append([]Cell(nil), r.Cells...)
	sort.Slice(cells, func(i, j int) bool { return cellLess(cells[i], cells[j]) })
	out := struct {
		Env            RunEnv             `json:"env"`
		Horizon        int                `json:"horizon"`
		Reps           int                `json:"reps"`
		MethodAverages map[string]float64 `json:"method_averages_seconds"`
		Cells          []jsonCell         `json:"cells"`
	}{
		Env:            CaptureEnv(),
		Horizon:        r.Protocol.Horizon,
		Reps:           r.Protocol.Reps,
		MethodAverages: make(map[string]float64, len(r.Protocol.Methods)),
	}
	for _, m := range r.Protocol.Methods {
		out.MethodAverages[m.String()] = r.MethodAverage("", m)
	}
	for _, c := range cells {
		out.Cells = append(out.Cells, jsonCell{
			Dataset: c.Dataset, PatternNodes: c.PatternSize[0], PatternEdges: c.PatternSize[1],
			ScaleP: c.Scale[0], ScaleD: c.Scale[1], Method: c.Method.String(), Runs: c.Runs,
			AvgSeconds: c.AvgSeconds(), AvgRoots: c.AvgRoots, AvgElim: c.AvgEliminated, AvgSeeds: c.AvgSeeds,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

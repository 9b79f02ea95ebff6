package main

// -compare old.json new.json: the referee for a performance or
// simplicity claim. One row per (workload, end-to-end metric), judged
// by the bound BENCHMARK.json fixes for the metric.

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects one metric's values over a file's runs of one
// workload in one mode.
func (f *resultFile) series(workload, name string, traced bool) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == traced {
			if m, ok := r.Metrics[name]; ok {
				xs = append(xs, m.Value)
			} else if m, ok := r.Extra[name]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// layerNames lists what the traced runs of one workload measured.
func (f *resultFile) layerNames(workload string) []string {
	names := map[string]bool{}
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace {
			for _, group := range []map[string]metric{r.Metrics, r.Extra} {
				for name := range group {
					names[name] = true
				}
			}
		}
	}
	return sortedKeys(names)
}

func (f *resultFile) failedRatio(workload string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareFiles prints the table and returns the exit code: 1 on any
// regression beyond its bound or a higher failed-operations ratio. A
// cell whose recorded spread (interquartile range over median, either
// side) exceeds the bound is unresolved: the runs cannot tell, so it
// neither passes nor fails.
func compareFiles(specPath, oldPath, newPath string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	oldF, err := loadResults(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	newF, err := loadResults(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Printf("old: %s  commit=%s nproc=%d GOMAXPROCS=%d\n", oldPath, oldF.Env.Commit, oldF.Env.NProc, oldF.Env.GOMAXPROCS)
	fmt.Printf("new: %s  commit=%s nproc=%d GOMAXPROCS=%d\n", newPath, newF.Env.Commit, newF.Env.NProc, newF.Env.GOMAXPROCS)
	fmt.Printf("%-14s %-22s %12s %12s %8s %7s %7s %7s %3s  %s\n",
		"workload", "metric", "old", "new", "change", "bound", "spr.old", "spr.new", "n", "verdict")
	regressions, unresolved := 0, 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := oldF.series(w.Name, m.Name, false), newF.series(w.Name, m.Name, false)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			worse := (nm - om) / om
			if m.Better == "higher" {
				worse = (om - nm) / om
			}
			so, sn := spread(o), spread(n)
			verdict := "ok"
			switch {
			case max(so, sn) > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%% %6.1f%% %3d  %s\n",
				w.Name, m.Name, om, nm, 100*(nm-om)/om, 100*m.Bound, 100*so, 100*sn, min(len(o), len(n)), verdict)
		}
		if of, nf := oldF.failedRatio(w.Name), newF.failedRatio(w.Name); nf > of {
			fmt.Printf("%-14s %-22s %12.4f %12.4f  more operations fail: REGRESSION\n", w.Name, "failed_ops_ratio", of, nf)
			regressions++
		}
	}
	// Layer metrics have no bound; where both files hold traced runs
	// they are listed to show where a change sits.
	for _, w := range spec.Workloads {
		for _, name := range newF.layerNames(w.Name) {
			o, n := oldF.series(w.Name, name, true), newF.series(w.Name, name, true)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			fmt.Printf("%-14s %-36s %14.4f %14.4f %+7.1f%%  (layer, no bound)\n", w.Name, name, om, nm, 100*ratio(nm-om, om))
		}
	}
	fmt.Printf("%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

// spreadOf prints, for every (workload, metric) of one result file, the
// median over its runs and their spread: what a bound has to exceed.
func spreadOf(path string) int {
	f, err := loadResults(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	for _, traced := range []bool{false, true} {
		seen := map[string]bool{}
		for _, r := range f.Runs {
			if r.Trace != traced || seen[r.Workload] {
				continue
			}
			seen[r.Workload] = true
			for _, group := range []map[string]metric{r.Metrics, r.Extra} {
				for _, name := range sortedKeys(group) {
					xs := f.series(r.Workload, name, traced)
					fmt.Printf("%-14s %-36s median %14.4f %-5s spread %6.1f%%  n=%d\n",
						r.Workload, name, median(xs), group[name].Unit, 100*spread(xs), len(xs))
				}
			}
		}
	}
	return 0
}

// Command gpnm-bench runs the paper's evaluation protocol (§VII) and
// prints the tables and figures of the evaluation section:
//
//	gpnm-bench -mini                  # quick pass over the mini stand-ins
//	gpnm-bench                        # the reproduction-scale protocol
//	gpnm-bench -table XI -table XII   # selected tables only
//	gpnm-bench -figure 6              # the DBLP series (paper Fig. 6)
//	gpnm-bench -reps 5 -csv cells.csv # more runs per cell + raw dump
//	gpnm-bench -mini -json seed.json  # machine-readable cell dump
//	gpnm-bench -workers 1             # pin the engine pool (serial run)
//
// By default every table (XI–XIV) and every figure (5–9) is printed.
// Absolute times differ from the paper (Go vs C++, stand-in datasets at
// reduced scale — see package internal/datasets); the reproduced
// artifact is the ordering and the relative gaps. Everything that is
// not the paper protocol — hub, shards, failover, the pattern index —
// is measured by the repository benchmark under benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"uagpnm/internal/bench"
	"uagpnm/internal/datasets"
	"uagpnm/internal/version"
)

type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	mini := flag.Bool("mini", false, "use the mini datasets and scaled-down update counts")
	reps := flag.Int("reps", 0, "runs per cell (default: 3 full, 2 mini)")
	sizes := flag.Bool("all-sizes", true, "run all five pattern sizes (false = (8,8) only)")
	csvPath := flag.String("csv", "", "also dump raw cells as CSV to this file")
	jsonPath := flag.String("json", "", "also dump raw cells as JSON to this file")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	workers := flag.Int("workers", 0, "engine worker pool bound (0 = all cores, 1 = serial)")
	var tables, figures multiFlag
	flag.Var(&tables, "table", "print only this table (XI, XII, XIII, XIV); repeatable")
	flag.Var(&figures, "figure", "print only this figure (5-9); repeatable")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("gpnm-bench"))
		return
	}

	p := bench.Default(*mini)
	p.Workers = *workers
	if *reps > 0 {
		p.Reps = *reps
	}
	if !*sizes {
		p.PatternSizes = [][2]int{{8, 8}}
	}
	if !*quiet {
		p.Progress = os.Stderr
	}

	res := p.Run()

	wantTable := func(name string) bool {
		if len(tables) == 0 && len(figures) == 0 {
			return true
		}
		for _, t := range tables {
			if t == name {
				return true
			}
		}
		return false
	}
	wantFigure := func(n int) bool {
		if len(tables) == 0 && len(figures) == 0 {
			return true
		}
		for _, f := range figures {
			if v, err := strconv.Atoi(f); err == nil && v == n {
				return true
			}
		}
		return false
	}

	if wantTable("XI") {
		fmt.Println(res.TableXI())
	}
	if wantTable("XII") {
		fmt.Println(res.TableXII())
	}
	if wantTable("XIII") {
		fmt.Println(res.TableXIII())
	}
	if wantTable("XIV") {
		fmt.Println(res.TableXIV())
	}
	for _, spec := range datasets.Sim() {
		if wantFigure(bench.FigureNumber(spec.Name)) {
			fmt.Println(res.Figure(spec.Name))
		}
	}

	writeCells(*csvPath, func() ([]byte, error) { return []byte(res.CSV()), nil })
	writeCells(*jsonPath, res.JSON)
}

// writeCells renders the raw cells and writes them to path
// ("" = disabled), exiting on failure.
func writeCells(path string, render func() ([]byte, error)) {
	if path == "" {
		return
	}
	out, err := render()
	if err == nil {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpnm-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "raw cells written to %s\n", path)
}

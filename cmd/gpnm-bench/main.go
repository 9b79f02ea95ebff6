// Command gpnm-bench runs the paper's evaluation protocol (§VII) and
// prints the tables and figures of the evaluation section:
//
//	gpnm-bench -mini                  # quick pass over the mini replicas
//	gpnm-bench                        # the reproduction-scale protocol
//	gpnm-bench -table XI -table XII   # selected tables only
//	gpnm-bench -figure 6              # the DBLP series (paper Fig. 6)
//	gpnm-bench -reps 5 -csv cells.csv # more runs per cell + raw dump
//	gpnm-bench -mini -json seed.json  # machine-readable cell dump
//	gpnm-bench -scaling               # UA-GPNM worker-pool sweep (1..N)
//	gpnm-bench -workers 1             # pin the engine pool (serial run)
//	gpnm-bench -patterns 8            # standing-query hub vs 8 sessions
//	gpnm-bench -patterns 8 -shards 2  # ...with the hub substrate sharded
//	                                  # across 2 self-spawned HTTP workers
//	gpnm-bench -patterns 8 -shards host:9101,host:9102   # external workers
//	gpnm-bench -failover              # 2-worker sharded hub, one worker
//	                                  # killed mid-run: recovery latency +
//	                                  # batches/sec before/during/after
//	gpnm-bench -index                 # pattern-set index: indexed vs
//	                                  # unindexed hub fan-out on a
//	                                  # low-selectivity clustered workload
//	gpnm-bench -index -patterns 10000 # ...at the headline scale
//
// By default every table (XI–XIV) and every figure (5–9) is printed.
// Absolute times differ from the paper (Go vs C++, stand-in datasets at
// reduced scale — see DESIGN.md §4); the reproduced artifact is the
// ordering and the relative gaps.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"

	"uagpnm/internal/bench"
	"uagpnm/internal/datasets"
	"uagpnm/internal/shard"
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
	scaling := flag.Bool("scaling", false, "run the UA-GPNM worker-scaling sweep instead of the paper protocol")
	patterns := flag.Int("patterns", 0, "run the N-pattern standing-query amortisation scenario (hub vs N sessions) instead of the paper protocol")
	noVerify := flag.Bool("no-verify", false, "skip the hub-vs-sessions equality check in the -patterns scenario")
	shards := flag.String("shards", "", "shard the -patterns hub substrate: an integer N spawns N in-process HTTP shard workers, host:port,... connects to running gpnm-shard processes")
	failover := flag.Bool("failover", false, "run the shard-failover scenario (2 self-spawned workers, one killed mid-run) instead of the paper protocol")
	index := flag.Bool("index", false, "run the pattern-set index scenario (indexed vs unindexed hub fan-out; -patterns overrides the standing-query count) instead of the paper protocol")
	var tables, figures multiFlag
	flag.Var(&tables, "table", "print only this table (XI, XII, XIII, XIV); repeatable")
	flag.Var(&figures, "figure", "print only this figure (5-9); repeatable")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("gpnm-bench"))
		return
	}

	if *shards != "" && (*patterns <= 0 || *index) {
		fmt.Fprintln(os.Stderr, "gpnm-bench: -shards applies to the -patterns scenario (the paper protocol builds many short-lived engines, which one shard fleet cannot serve)")
		os.Exit(2)
	}

	if *index {
		warnDegradedEnv("-index")
		cfg := bench.IndexConfig{Workers: *workers, Verify: !*noVerify}
		if *patterns > 0 {
			cfg.Patterns = *patterns
		}
		if *mini {
			cfg.Clusters, cfg.ClusterNodes, cfg.ClusterEdges = 16, 60, 180
			cfg.Batches, cfg.Updates = 4, 15
			if cfg.Patterns == 0 {
				cfg.Patterns = 1000
			}
		}
		res := bench.RunIndex(cfg)
		fmt.Print(res.String())
		writeJSON(*jsonPath, "pattern-set index comparison", res.JSON)
		return
	}

	if *failover {
		cfg := bench.FailoverConfig{Workers: *workers, Verify: !*noVerify}
		if *patterns > 0 {
			cfg.Patterns = *patterns
		}
		if *mini {
			cfg.Nodes, cfg.Edges, cfg.Labels, cfg.Updates = 1200, 4800, 12, 80
			cfg.BatchesBefore, cfg.BatchesAfter = 2, 2
		}
		res := bench.RunFailover(cfg)
		fmt.Print(res.String())
		writeJSON(*jsonPath, "shard failover profile", res.JSON)
		return
	}

	if *patterns > 0 {
		warnDegradedEnv("-patterns")
		cfg := bench.MultiPatternConfig{Patterns: *patterns, Workers: *workers, Verify: !*noVerify}
		if *mini {
			cfg.Nodes, cfg.Edges, cfg.Labels, cfg.Batches, cfg.Updates = 1200, 4800, 12, 2, 80
		}
		addrs, stop, err := resolveShards(*shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpnm-bench:", err)
			os.Exit(1)
		}
		defer stop()
		cfg.Shards = addrs
		res := bench.RunMultiPattern(cfg)
		fmt.Print(res.String())
		writeJSON(*jsonPath, "standing-query amortisation", res.JSON)
		return
	}

	if *scaling {
		warnDegradedEnv("-scaling")
		cfg := bench.ScalingConfig{}
		if *mini {
			cfg.Nodes, cfg.Edges, cfg.Labels, cfg.Batches, cfg.Updates = 1500, 6000, 16, 2, 100
		}
		if *workers > 0 {
			// Pinned pool: sweep serial vs exactly the requested bound.
			cfg.Workers = []int{1, *workers}
		}
		res := bench.RunScaling(cfg)
		fmt.Print(res.String())
		writeJSON(*jsonPath, "scaling sweep", res.JSON)
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

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(res.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gpnm-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "raw cells written to %s\n", *csvPath)
	}
	writeJSON(*jsonPath, "raw cells", res.JSON)
}

// warnDegradedEnv prints a prominent caveat when a concurrency-
// sensitive scenario runs on a single-core budget: every worker-count
// comparison degenerates to parity there, and a recorded BENCH_*.json
// would read as "no speedup" when it means "no cores". The JSON side
// of the same caveat is env.degraded_env, stamped by bench.CaptureEnv.
func warnDegradedEnv(scenario string) {
	if runtime.GOMAXPROCS(0) > 1 {
		return
	}
	fmt.Fprintf(os.Stderr, `gpnm-bench: WARNING: %s is running with GOMAXPROCS=1 (num_cpu=%d).
gpnm-bench: WARNING: parallel speedups CANNOT manifest on a single core; worker-count
gpnm-bench: WARNING: comparisons below will show parity regardless of the implementation.
gpnm-bench: WARNING: the JSON output is stamped "degraded_env": true — do not use it as
gpnm-bench: WARNING: a scaling baseline.
`, scenario, runtime.NumCPU())
}

// resolveShards turns the -shards flag into worker addresses. An
// integer N spawns N in-process shard workers on loopback — the full
// HTTP/JSON protocol with zero orchestration, so the RPC overhead of a
// sharded deployment is measurable from one binary; anything else is
// parsed as a comma-separated address list of external gpnm-shard
// processes. stop tears the spawned listeners down.
func resolveShards(spec string) (addrs []string, stop func(), err error) {
	stop = func() {}
	if spec == "" {
		return nil, stop, nil
	}
	if n, perr := strconv.Atoi(spec); perr == nil {
		if n < 1 {
			return nil, stop, fmt.Errorf("-shards %d: need at least one worker", n)
		}
		var listeners []net.Listener
		for i := 0; i < n; i++ {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				return nil, stop, lerr
			}
			listeners = append(listeners, ln)
			go func() { _ = http.Serve(ln, shard.NewServer().Handler()) }()
			addrs = append(addrs, ln.Addr().String())
		}
		fmt.Fprintf(os.Stderr, "gpnm-bench: spawned %d in-process shard worker(s): %s\n",
			n, strings.Join(addrs, ", "))
		return addrs, func() {
			for _, ln := range listeners {
				_ = ln.Close()
			}
		}, nil
	}
	if addrs = shard.ParseAddrs(spec); len(addrs) == 0 {
		return nil, stop, fmt.Errorf("-shards %q: no addresses", spec)
	}
	return addrs, stop, nil
}

// writeJSON renders via marshal and writes to path ("" = disabled),
// exiting on failure.
func writeJSON(path, what string, marshal func() ([]byte, error)) {
	if path == "" {
		return
	}
	out, err := marshal()
	if err == nil {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpnm-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s written to %s\n", what, path)
}

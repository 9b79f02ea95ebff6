// Command benchgate holds the layer ladder's allocation counts to a
// committed record. It runs each rung below with
// `go test -run '^$' -bench <rung> -benchmem -cpu 1 -count 3
// -benchtime 200ms`, takes the median of each sub-benchmark's ns/op,
// B/op and allocs/op, and compares them with the record:
//
//   - allocs/op may exceed its record by at most max(1, 2 %);
//   - B/op may exceed its record by at most max(64 B, 10 %);
//   - ns/op is printed, not gated.
//
// A recorded rung that no longer runs fails the gate; a rung the record
// lacks is printed as new and not gated.
//
// Usage, from the repository root:
//
//	go run ./tools/benchgate [-record]
//
// -record rewrites BENCH_rungs.json from this run instead of comparing. A change
// that moves a count on purpose re-records the file in its own diff.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// rungs are the gated benchmarks: one `go test` run each.
var rungs = []struct{ pkg, bench string }{
	{"./internal/simulation", "^BenchmarkAmend$"},
	{"./internal/partition", "^BenchmarkBallRow$"},
	{"./internal/shortest", "^BenchmarkBuild$"},
	{"./internal/partition", "^BenchmarkApplyDataBatch$/^ball-plane$"},
	{"./internal/shard", "^BenchmarkRowsCodec$"},
	{"./internal/core", "^BenchmarkUAPass$"},
}

const (
	file      = "BENCH_rungs.json"
	count     = 3
	benchtime = "200ms"
)

// cell is one sub-benchmark's medians.
type cell struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op"`
	AllocsOp float64 `json:"allocs_op"`
}

type record struct {
	Command string          `json:"command"`
	Go      string          `json:"go"`
	Rungs   map[string]cell `json:"rungs"`
}

func main() {
	rec := flag.Bool("record", false, "rewrite "+file+" from this run instead of comparing")
	flag.Parse()

	got, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if *rec {
		out := record{
			Command: fmt.Sprintf("go test -run '^$' -bench <rung> -benchmem -cpu 1 -count %d -benchtime %s (medians)", count, benchtime),
			Go:      runtime.Version(),
			Rungs:   got,
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err == nil {
			err = os.WriteFile(file, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: recorded %d rungs in %s\n", len(got), file)
		return
	}
	buf, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var want record
	if err := json.Unmarshal(buf, &want); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", file, err)
		os.Exit(2)
	}
	if failed := compare(want.Rungs, got); failed > 0 {
		fmt.Printf("benchgate: %d rungs over their record in %s\n", failed, file)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d rungs within their record\n", len(want.Rungs))
}

// run executes every rung and returns the medians by benchmark name.
func run() (map[string]cell, error) {
	samples := map[string][]cell{}
	for _, r := range rungs {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", r.bench,
			"-benchmem", "-cpu", "1", "-count", strconv.Itoa(count), "-benchtime", benchtime, r.pkg)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("%s %s: %v\n%s", r.pkg, r.bench, err, out)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if name, c, ok := parseLine(sc.Text()); ok {
				samples[name] = append(samples[name], c)
			}
		}
	}
	got := make(map[string]cell, len(samples))
	for name, cs := range samples {
		got[name] = cell{
			NsOp:     median(cs, func(c cell) float64 { return c.NsOp }),
			BytesOp:  median(cs, func(c cell) float64 { return c.BytesOp }),
			AllocsOp: median(cs, func(c cell) float64 { return c.AllocsOp }),
		}
	}
	return got, nil
}

// parseLine reads one `go test -bench -benchmem` result line.
func parseLine(line string) (string, cell, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", cell{}, false
	}
	var c cell
	seen := 0
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", cell{}, false
		}
		switch f[i+1] {
		case "ns/op":
			c.NsOp, seen = v, seen+1
		case "B/op":
			c.BytesOp, seen = v, seen+1
		case "allocs/op":
			c.AllocsOp, seen = v, seen+1
		}
	}
	return f[0], c, seen == 3
}

func median(cs []cell, of func(cell) float64) float64 {
	vs := make([]float64, len(cs))
	for i, c := range cs {
		vs[i] = of(c)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// compare prints one line per rung and returns how many failed.
func compare(want, got map[string]cell) int {
	names := make([]string, 0, len(want)+len(got))
	for n := range want {
		names = append(names, n)
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	failed := 0
	fmt.Printf("%-44s %14s %20s %24s\n", "rung", "ns/op", "allocs/op rec→now", "B/op rec→now")
	for _, n := range names {
		w, inRec := want[n]
		g, ran := got[n]
		switch {
		case !ran:
			failed++
			fmt.Printf("%-44s %14s %20s %24s  FAIL: recorded rung did not run\n", n, "-", "-", "-")
			continue
		case !inRec:
			fmt.Printf("%-44s %14.0f %20.0f %24.0f  new, not gated\n", n, g.NsOp, g.AllocsOp, g.BytesOp)
			continue
		}
		var why []string
		if g.AllocsOp > w.AllocsOp+max(1, 0.02*w.AllocsOp) {
			why = append(why, "allocs/op")
		}
		if g.BytesOp > w.BytesOp+max(64, 0.10*w.BytesOp) {
			why = append(why, "B/op")
		}
		status := "ok"
		if len(why) > 0 {
			failed++
			status = "FAIL: " + strings.Join(why, ", ")
		}
		fmt.Printf("%-44s %14.0f %9.0f → %-8.0f %11.0f → %-10.0f  %s\n",
			n, g.NsOp, w.AllocsOp, g.AllocsOp, w.BytesOp, g.BytesOp, status)
	}
	return failed
}

package main

// One run of one workload: either the end-to-end metrics with tracing
// off, or the per-layer metrics of a traced run.

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"uagpnm"
	"uagpnm/internal/obs"
)

type runConfig struct {
	Workload workload
	Seed     int64
	Seconds  float64
	Trace    bool
	Quick    bool
	SpansDir string
}

// check is one validity gate: the run is only to be trusted when Value
// lies within [Lo, Hi].
type check struct {
	Value float64 `json:"value"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	OK    bool    `json:"ok"`
}

// unbounded is the Hi of a gate with no upper limit (JSON has no +Inf).
const unbounded = math.MaxFloat64

func gate(v, lo, hi float64) check { return check{v, lo, hi, v >= lo && v <= hi} }

type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick,omitempty"`
	Seconds   float64           `json:"seconds"`
	Sizes     sizes             `json:"sizes"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra"`
	Checks    map[string]check  `json:"checks"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
}

// setupReps is how often a run sets the system up — substrate build and
// the initial query of every pattern, on inputs generated beforehand;
// setup_s is the median.
const setupReps = 9

func (c runConfig) sizes() sizes {
	if c.Quick {
		return c.Workload.Quick
	}
	return c.Workload.Full
}

func (c runConfig) length(share float64) time.Duration {
	return time.Duration(c.Seconds * share * float64(time.Second))
}

func run(c runConfig) (*runResult, error) {
	if c.Trace {
		return runTraced(c)
	}
	return runEndToEnd(c)
}

func newResult(c runConfig) *runResult {
	return &runResult{Workload: c.Workload.Name, Seed: c.Seed, Trace: c.Trace, Quick: c.Quick, Seconds: c.Seconds,
		Sizes: c.sizes(), Metrics: map[string]metric{}, Extra: map[string]metric{}, Checks: map[string]check{}}
}

// finish folds a window's bookkeeping into the result and decides
// correct: every operation succeeded and every result checked equals
// the from-scratch oracle's.
func (r *runResult) finish(ws ...window) {
	mismatched, checked := 0, 0
	for _, w := range ws {
		r.Attempted += w.Attempted
		r.Failed += w.Failed
		mismatched += w.Checked.Mismatched
		checked += w.Checked.Patterns
	}
	r.Extra["mismatch_count"] = metric{float64(mismatched), "count"}
	r.Extra["results_checked"] = metric{float64(checked), "count"}
	r.Extra["failed_ops_ratio"] = metric{float64(r.Failed) / float64(max(r.Attempted, 1)), "ratio"}
	r.Checks["mismatch_count"] = gate(float64(mismatched), 0, 0)
	r.Checks["failed_ops"] = gate(float64(r.Failed), 0, 0)
	r.Correct = r.Checks["mismatch_count"].OK && r.Checks["failed_ops"].OK && checked > 0
	// JSON has no NaN. An end-to-end metric that came out undefined (not
	// one sample) fails the run: all of them apply to every workload.
	for name, m := range r.Extra {
		r.Extra[name] = metric{finite(m.Value), m.Unit}
	}
	for name, m := range r.Metrics {
		if finite(m.Value) != m.Value {
			r.Metrics[name] = metric{0, m.Unit}
			if !r.Trace {
				r.Checks["defined:"+name] = check{OK: false}
				r.Correct = false
			}
		}
	}
}

func runEndToEnd(c runConfig) (*runResult, error) {
	r := newResult(c)
	sz := c.sizes()
	in := generate(c.Seed, sz)
	var inst instance
	var setups []float64
	reps := setupReps
	if c.Quick {
		reps = 3
	}
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = c.Workload.setup(in, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	d := &driver{ref: newReference(in.G0), inst: inst, wl: c.Workload, sz: sz}
	d.warmup()
	w := d.measure(nil, c.length(1), true)

	r.Metrics = w.endToEnd(median(setups))
	r.Extra["batch_n"] = metric{float64(len(w.DurMS)), "count"}
	r.Extra["iquery_n"] = metric{float64(len(w.ProbeMS)), "count"}
	r.Extra["window_s"] = metric{w.Wall.Seconds(), "s"}
	r.Extra["drift"] = metric{w.drift(), "ratio"}
	w.raw(r.Extra)
	readSide(r.Extra, w)
	if !c.Quick { // a smoke run is too short to have a shape
		r.Checks["batch_n"] = gate(float64(len(w.DurMS)), float64(sz.MinOps), unbounded)
		r.Checks["drift"] = gate(w.drift(), 0.9, 1.1)
	}
	r.Checks["total_ratio"] = gate(float64(w.Last.Total)/float64(max(w.Last.Patterns, 1)), 0.9, 1)
	r.finish(w)
	return r, nil
}

// readSide reports what the subscriber of serve_sharded saw.
func readSide(out map[string]metric, w window) {
	if len(w.SnapMS) == 0 && len(w.LagMS) == 0 {
		return
	}
	out["snapshot_p50_ms"] = metric{byRounds(w.SnapMS, p50), "ms"}
	out["snapshot_p95_ms"] = metric{byRounds(w.SnapMS, p95), "ms"}
	out["delta_lag_p50_ms"] = metric{byRounds(w.LagMS, p50), "ms"}
	out["delta_lag_p95_ms"] = metric{byRounds(w.LagMS, p95), "ms"}
	out["snapshot_n"] = metric{float64(len(w.SnapMS)), "count"}
	out["delta_n"] = metric{float64(len(w.LagMS)), "count"}
}

// Shares of a traced run's --seconds.
const (
	shareUntraced = 0.25 // the same drivers, tracing off: base of overhead and coverage
	shareTraced   = 0.25 // the same drivers under spans and wrappers
	shareReplay   = 0.30 // layered replay
	shareCore     = 0.10 // single-session rung against Scratch; the same again bounds the hub rung
)

func runTraced(c runConfig) (*runResult, error) {
	r := newResult(c)
	sz := c.sizes()
	wire := newWiring()
	tr := newTracer()
	gen := generate(c.Seed, sz)
	inst, err := c.Workload.setup(gen, wire)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ref := newReference(gen.G0)
	d := &driver{ref: ref, inst: inst, wl: c.Workload, sz: sz}
	d.sz.MinOps = max(sz.MinOps/4, 6)
	d.warmup()
	wu := d.measure(nil, c.length(shareUntraced), false)

	phases0 := obs.Default.HistogramSums("gpnm_batch_phase_seconds")
	api0 := wire.api.snapshot()
	wt := d.measure(tr, c.length(shareTraced), true)
	phases1 := obs.Default.HistogramSums("gpnm_batch_phase_seconds")
	apiStats := minus(wire.api.snapshot(), api0)

	in := inst.replay()
	rep, err := runReplay(in, tr, ref, c.length(shareReplay))
	if err != nil {
		return nil, fmt.Errorf("layered replay: %w", err)
	}
	cr := runCoreRung(in, c.length(shareCore))
	if c.Quick {
		setBenchtime(2 * time.Millisecond)
	} else {
		setBenchtime(60 * time.Millisecond)
	}
	kern := runKernels(rand.New(rand.NewSource(c.Seed)), rep, in.G0, sz.Horizon)

	hr, err := runHubRung(in, c.length(shareCore))
	if err != nil {
		return nil, fmt.Errorf("in-process hub rung: %w", err)
	}

	lm := layerMetrics{r.Metrics, r.Extra}
	lm.api(wt, tr, apiStats)
	if len(wt.Hub) > 0 {
		lm.hub(wt.Hub, wt.ProbeMS, tr)
	} else {
		lm.hub(hr.Stats, hr.RegisterMS, tr)
	}
	lm.put("hub.inprocess_apply_ms", median(hr.ApplyMS), "ms")
	lm.shard(wt, rep)
	lm.partition(wt, tr, rep, phases0, phases1)
	lm.kernels(kern)
	lm.passes(tr, rep)
	lm.core(cr)
	// Both ratios compare windows minutes apart, so they are taken in
	// reference units like the end-to-end timings.
	base := p50(wu.DurMS)
	relBase := p50(wu.RelDur)
	var relSums []float64
	for k, sum := range tr.childSum("replay.batch") {
		relSums = append(relSums, sum/rep.RefMS[k])
	}
	lm.put("trace.coverage", median(relSums)/relBase, "ratio")
	lm.put("trace.overhead_ratio", p50(wt.RelDur)/relBase, "ratio")

	r.Extra["batch_n"] = metric{float64(len(wt.DurMS)), "count"}
	r.Extra["replay_batches"] = metric{float64(rep.Batches), "count"}
	r.Extra["replay_passes"] = metric{float64(rep.Passes), "count"}
	r.Extra["replay_mismatched"] = metric{float64(rep.Mismatched), "count"}
	r.Extra["core_mismatched"] = metric{float64(cr.Mismatched), "count"}
	r.Extra["kernel_rows"] = metric{float64(kern.Rows), "count"}
	r.Extra["kernel_sets"] = metric{float64(kern.Sets), "count"}
	r.Extra["kernel_edge_ops"] = metric{float64(kern.EdgeOps), "count"}
	r.Extra["spans"] = metric{float64(len(tr.spans)), "count"}
	readSide(r.Extra, wu)
	r.finish(wu, wt)
	// The replay must deliver the end-to-end run's matches, and the
	// single-session rung Scratch's.
	r.Checks["replay_mismatched"] = gate(float64(rep.Mismatched+cr.Mismatched), 0, 0)
	r.Correct = r.Correct && r.Checks["replay_mismatched"].OK
	if !c.Quick {
		separation(r, c.Workload.Name, base)
	}

	if c.SpansDir != "" {
		path := filepath.Join(c.SpansDir, fmt.Sprintf("spans-%s-%d.json", c.Workload.Name, c.Seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return r, nil
}

// separation gates what each workload exists to stress: the replay must
// account for the batch on session_mixed, the substrate must own the
// batch on hub_sync and stay out of the way on hub_fan, and the wires
// must cost something on serve_sharded.
func separation(r *runResult, name string, untracedP50 float64) {
	v := func(metric string) float64 { return r.Metrics[metric].Value }
	switch name {
	case "session_mixed":
		r.Checks["trace.coverage"] = gate(v("trace.coverage"), 0.85, 1.15)
		r.Checks["core.speedup_vs_scratch"] = gate(v("core.speedup_vs_scratch"), 1, unbounded)
	case "hub_sync":
		r.Checks["partition_share"] = gate(v("hub.slen_sync_ms")/v("hub.apply_ms"), 0.5, 1)
	case "hub_fan":
		r.Checks["partition_share"] = gate(v("hub.slen_sync_ms")/v("hub.apply_ms"), 0, 0.25)
		r.Checks["fan_share"] = gate(v("hub.fan_out_ms")/v("hub.apply_ms"), 0.6, 1)
	case "serve_sharded":
		r.Checks["wire_cost"] = gate(untracedP50/v("hub.inprocess_apply_ms"), 1.5, unbounded)
	}
}

// ---- single-session rung ----

type coreRung struct {
	SQueryMS, ScratchMS []float64
	IQueryMS            float64
	Mismatched          int
}

// runCoreRung answers the replay's batches for its first pattern with
// one UA-GPNM session and one Scratch session: the paper's claim (the
// incremental answer is faster than recomputing) as a validity check.
func runCoreRung(in *replayInput, budget time.Duration) coreRung {
	var out coreRung
	start := time.Now()
	opts := uagpnm.Options{Method: uagpnm.UAGPNM, Horizon: in.Horizon}
	g, p := in.G0.Clone(), in.Patterns[0].Clone()
	t0 := time.Now()
	ua := uagpnm.NewSession(g, p, opts)
	out.IQueryMS = ms(time.Since(t0))
	defer ua.Close()
	opts.Method = uagpnm.Scratch
	sc := uagpnm.NewSession(in.G0.Clone(), in.Patterns[0].Clone(), opts)
	for k := 0; k < len(in.Batches) || in.Fork; k++ {
		if k >= 2 && time.Since(start) > budget {
			break
		}
		rb := in.Batches[k%len(in.Batches)]
		b := uagpnm.Batch{D: rb.D}
		if len(rb.P) > 0 {
			b.P = rb.P[0]
		}
		s1, s2 := ua, sc
		if in.Fork {
			s1, s2 = ua.Fork(), sc.Fork()
		}
		t0 := time.Now()
		m1 := s1.SQuery(b)
		out.SQueryMS = append(out.SQueryMS, ms(time.Since(t0)))
		t0 = time.Now()
		m2 := s2.SQuery(b)
		out.ScratchMS = append(out.ScratchMS, ms(time.Since(t0)))
		if !m1.Equal(m2) {
			out.Mismatched++
		}
	}
	return out
}

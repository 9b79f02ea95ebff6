package main

import (
	"hash/fnv"
	"time"

	"uagpnm"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
)

// result is one delivered answer: a pattern and its match (both nil
// when the system failed to deliver one).
type result struct {
	P *uagpnm.Pattern
	M *uagpnm.Match
}

func (v verdict) add(o verdict) verdict {
	return verdict{v.Patterns + o.Patterns, v.Mismatched + o.Mismatched, v.Total + o.Total}
}

// checkAgainstOracle recomputes every result from nothing — a freshly
// built global SLen matrix over g and the bounded-simulation fixpoint —
// and compares. This is what Method Scratch does, with the matrix built
// once for all patterns of the graph.
func checkAgainstOracle(g *uagpnm.Graph, horizon int, rs []result) verdict {
	eng := shortest.NewEngine(g, horizon)
	eng.Build()
	v := verdict{Patterns: len(rs)}
	for _, r := range rs {
		if r.M == nil {
			v.Mismatched++
			continue
		}
		if !simulation.Run(r.P, g, eng).Equal(r.M) {
			v.Mismatched++
		}
		if r.M.Total() {
			v.Total++
		}
	}
	return v
}

// matchHash fingerprints a match so that the end-to-end run and the
// layered replay can be compared without keeping every match alive.
func matchHash(p *uagpnm.Pattern, m *uagpnm.Match) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:])
	}
	p.Nodes(func(u uagpnm.PatternNodeID) {
		put(^uint32(0))
		put(u)
		for _, id := range m.SimulationSet(u) {
			put(id)
		}
	})
	return h.Sum64()
}

// window is what one measuring window recorded.
type window struct {
	DurMS     []float64 // per timed operation
	CPUMS     []float64
	AllocMB   []float64
	Updates   []float64
	ProbeMS   []float64
	Hub       []uagpnm.HubBatchStats
	Attempted int
	Failed    int
	Checked   verdict // accumulated over every oracle check of the window
	Last      verdict // the final check
	Wall      time.Duration
	HeapMB    float64

	// The same, as multiples of the reference kernel timed right after
	// the operation (see reference).
	RelDur, RelCPU, RelProbe []float64
	RefMS                    []float64

	// Read side (serve_sharded only).
	LagMS, SnapMS, WakeMS []float64
}

// driver runs one instance's operations; next is the index of the next
// operation, so consecutive windows continue one stream.
type driver struct {
	ref  *reference
	inst instance
	wl   workload
	sz   sizes
	next int
}

// drive runs the closed loop — one operation in flight, the next sent
// when it returns — until stop says so, timing only run and probe.
func (d *driver) drive(tr *tracer, stop func(ops int, elapsed time.Duration) bool) window {
	var w window
	if sub := d.inst.readers(); sub != nil {
		sub.reset(tr)
	}
	start := time.Now()
	for ops := 0; !stop(ops, time.Since(start)); ops++ {
		i := d.next
		d.next++
		d.inst.prepare(i)
		sp := tr.begin(d.wl.Span, noSpan, i)
		c0 := cpuNow()
		a0, _ := allocNow()
		t0 := time.Now()
		res, err := d.inst.run(i)
		dur := time.Since(t0)
		a1, _ := allocNow()
		c1 := cpuNow()
		tr.end(sp)
		w.Attempted++
		if err != nil {
			w.Failed++
			continue
		}
		w.DurMS = append(w.DurMS, ms(dur))
		w.CPUMS = append(w.CPUMS, ms(c1-c0))
		w.AllocMB = append(w.AllocMB, float64(a1-a0)/(1<<20))
		w.Updates = append(w.Updates, float64(res.Updates))
		ref := d.ref.sample()
		w.RefMS = append(w.RefMS, ref)
		w.RelDur = append(w.RelDur, ms(dur)/ref)
		w.RelCPU = append(w.RelCPU, ms(c1-c0)/ref)
		if res.Hub != nil {
			w.Hub = append(w.Hub, *res.Hub)
		}
		d.inst.post(i)
		if (ops+1)%probeEvery == 0 {
			sp := tr.begin("iquery", noSpan, i)
			pd, err := d.inst.probe(i)
			tr.end(sp)
			w.Attempted++
			if err != nil {
				w.Failed++
			} else {
				w.ProbeMS = append(w.ProbeMS, ms(pd))
				w.RelProbe = append(w.RelProbe, ms(pd)/ref)
			}
		}
		if (ops+1)%verifyEvery == 0 {
			w.Checked = w.Checked.add(d.inst.verify(false))
		}
	}
	w.Wall = time.Since(start)
	if sub := d.inst.readers(); sub != nil {
		sub.take(&w)
	}
	return w
}

// warmup lets caches fill and lazy set-up finish; nothing is kept.
func (d *driver) warmup() {
	d.drive(nil, func(ops int, _ time.Duration) bool { return ops >= d.sz.Warmup })
	d.inst.warm()
}

// measure runs a window of the given length, extended by up to a third
// (two seconds for a short one) until it holds MinOps operations —
// percentiles need them; the cap keeps a run on a slow host inside the
// referee's time limit — and ends it with the complete oracle check when
// final is set.
func (d *driver) measure(tr *tracer, length time.Duration, final bool) window {
	limit := length + max(length/3, 2*time.Second)
	w := d.drive(tr, func(ops int, elapsed time.Duration) bool {
		return elapsed >= length && ops >= d.sz.MinOps || elapsed >= limit
	})
	w.HeapMB = heapLiveMB()
	if final {
		w.Last = d.inst.verify(true)
		w.Checked = w.Checked.add(w.Last)
	}
	return w
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// drift is the median of the last third of the window's operations over
// that of the first third, in reference units so that the host's own
// wandering is not mistaken for the workload's: a stationary workload
// stays near 1.
func (w window) drift() float64 {
	n := len(w.RelDur) / 3
	if n == 0 {
		return 1
	}
	return median(w.RelDur[len(w.RelDur)-n:]) / median(w.RelDur[:n])
}

// endToEnd derives the metrics the referee bounds. The timings are in
// reference units (unit "x"): each operation's duration divided by the
// duration of the reference kernel run right after it. On the 2-vCPU
// virtual machine this benchmark was calibrated on, the host's speed
// wanders by 30 % for minutes at a time, wall and CPU time alike, so
// that ten runs of one commit spread up to 18 % on the raw batch_p50_ms
// and 30 % on batch_p95_ms; see README.md for the same in reference
// units.
func (w window) endToEnd(setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"batch_p50_rel":      {byRounds(w.RelDur, p50), "x"},
		"batch_p95_rel":      {byRounds(w.RelDur, p95), "x"},
		"iquery_p50_rel":     {median(w.RelProbe), "x"},
		"cpu_per_batch_rel":  {byRounds(w.RelCPU, mean), "x"},
		"alloc_mb_per_batch": {byRounds(w.AllocMB, mean), "MB"},
		"heap_live_mb":       {w.HeapMB, "MB"},
	}
}

// raw adds the same timings as the clock read them, and the closed-loop
// throughput.
func (w window) raw(out map[string]metric) {
	// Throughput per round: the round's updates over the round's timed
	// wall, so the three values share no sample.
	rate := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		var ups, wall float64
		for i := r; i < len(w.DurMS); i += rounds {
			ups += w.Updates[i]
			wall += w.DurMS[i]
		}
		if wall > 0 {
			rate = append(rate, ups/(wall/1e3))
		}
	}
	out["batch_p50_ms"] = metric{byRounds(w.DurMS, p50), "ms"}
	out["batch_p95_ms"] = metric{byRounds(w.DurMS, p95), "ms"}
	out["updates_per_s"] = metric{median(rate), "1/s"}
	out["iquery_p50_ms"] = metric{median(w.ProbeMS), "ms"}
	out["cpu_ms_per_batch"] = metric{byRounds(w.CPUMS, mean), "ms"}
	out["reference_ms"] = metric{median(w.RefMS), "ms"}
}

// reference is the benchmark's yardstick for the host's speed: a fixed
// computation that depends on the host and on nothing in the system
// under test. It walks the dataset graph breadth-first from fixed
// sources, four hops deep, with its own stamp array and queue — memory
// bound like the system's work, but single-threaded and free of
// allocation, so neither the scheduler nor the state of the process's
// heap moves it.
type reference struct {
	g     *uagpnm.Graph
	stamp []uint32
	queue []uagpnm.NodeID
	epoch uint32
	nodes int // keeps the walks observable
}

func newReference(g *uagpnm.Graph) *reference {
	return &reference{g: g, stamp: make([]uint32, g.NumIDs()), queue: make([]uagpnm.NodeID, 0, g.NumIDs())}
}

// referenceWalks sizes one pass of the kernel (about 0.7 ms on the
// calibration host).
const referenceWalks = 400

func (r *reference) pass() time.Duration {
	t0 := time.Now()
	for i := 0; i < referenceWalks; i++ {
		r.epoch++
		src := uagpnm.NodeID((i*37 + 11) % r.g.NumIDs())
		r.queue = append(r.queue[:0], src)
		r.stamp[src] = r.epoch
		head, levelEnd := 0, 1
		for depth := 0; depth < 4 && head < len(r.queue); depth++ {
			for ; head < levelEnd; head++ {
				for _, v := range r.g.Out(r.queue[head]) {
					if r.stamp[v] != r.epoch {
						r.stamp[v] = r.epoch
						r.queue = append(r.queue, v)
					}
				}
			}
			levelEnd = len(r.queue)
		}
		r.nodes += len(r.queue)
	}
	return time.Since(t0)
}

// sample is the faster of two passes back to back, in milliseconds: a
// preemption of one pass does not pass for a slow host, a slow host
// slows both.
func (r *reference) sample() float64 { return ms(min(r.pass(), r.pass())) }

// Package obs is the repository's zero-dependency telemetry plane: a
// race-clean metrics registry (atomic counters, gauges, fixed-bucket
// latency histograms) plus a bounded ring of per-batch phase traces,
// reported into by every layer of the stack — the §V partition engine's
// batch phases and failover controller, the shard RPC client, the
// worker-side shard server, and the standing-query hub — and read out
// by the HTTP front end (GET /v1/metrics, GET /v1/trace), the shard
// worker (GET /metrics) and the repository benchmark (benchmark/).
//
// Design constraints, in order: no dependencies beyond the standard
// library (the exposition format is hand-rolled Prometheus text), safe
// for unsynchronised concurrent use on every hot-path method (writes
// are single atomic ops once a handle exists), and allocation-free
// after the first get-or-create of a handle — instrumented code keeps
// handles or re-looks them up under a mutex that is uncontended off
// the hot path.
//
// Metric identity is (name, label pairs). Handles are get-or-create:
// two callers asking for the same identity share one metric. A name
// re-registered as a different kind panics — that is a programming
// error, not an operational condition.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-global registry: one process is one telemetry
// domain (a gpnm-serve coordinator, a gpnm-shard worker, a CLI run), so
// instrumented packages report here unless a caller wires its own
// registry through (the telemetry tests do, to read one hub's phases
// apart from another's in the same process).
var Default = NewRegistry()

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go down).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the histogram's fixed latency bucket bounds in
// seconds: 100µs .. 10s, roughly logarithmic. One fixed layout keeps
// every histogram two cache lines of atomics and the exposition
// deterministic; the RPC and batch-phase latencies this package exists
// to measure all land comfortably inside the range.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram: atomic per-bucket
// counts plus an atomic float sum, observed in seconds.
type Histogram struct {
	counts []atomic.Uint64 // len(DefBuckets)+1; last is +Inf
	sum    atomic.Uint64   // math.Float64bits of the running sum (seconds)
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(DefBuckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveSeconds(d.Seconds()) }

// ObserveSeconds records one observation in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	i := sort.SearchFloat64s(DefBuckets, s) // first bound >= s
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+s)) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reads the sum of all observations in seconds.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Span is one timed phase inside a Trace.
type Span struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Trace is the phase breakdown of one hub batch: every instrumented
// span the batch crossed, in completion order — the engine's
// ApplyData phases (pre_balls and post_balls, the change logs' sweeps
// of the pre- and post-batch graph; oplog_flush; overlay_sync), any
// recovery spans a shard loss inserted,
// and the hub's own phases (slen_sync, wake_plan, amend_fan). A Trace
// is built single-threaded by the batch's single writer and becomes
// immutable once recorded into a registry's ring.
type Trace struct {
	Seq   uint64    `json:"seq"`
	Start time.Time `json:"start"`
	// Batch shape: updates in, registrations standing, and the wake
	// decision's outcome (Woken + Skipped == Patterns).
	DataUpdates int `json:"data_updates"`
	Patterns    int `json:"patterns"`
	Woken       int `json:"woken"`
	Skipped     int `json:"skipped"`
	// Recovered counts shard losses absorbed by failover inside this
	// batch; its cost shows up as recovery* spans.
	Recovered int    `json:"recovered,omitempty"`
	Spans     []Span `json:"spans"`
}

// AddSpan appends one completed span. Not safe for concurrent use: a
// trace has exactly one writer (the batch goroutine).
func (t *Trace) AddSpan(name string, d time.Duration) {
	t.Spans = append(t.Spans, Span{Name: name, Seconds: d.Seconds()})
}

// SpanSeconds sums the trace's spans with the given name (0 when absent).
func (t *Trace) SpanSeconds(name string) float64 {
	var s float64
	for _, sp := range t.Spans {
		if sp.Name == name {
			s += sp.Seconds
		}
	}
	return s
}

// traceRingCap bounds the per-registry trace ring: enough history for
// GET /v1/trace, small enough to never matter.
const traceRingCap = 64

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered (name, labels) identity.
type metric struct {
	name   string
	labels []string // alternating key, value
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds a process's (or component's) metrics and its trace
// ring. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric

	traceMu sync.Mutex
	traces  []Trace // ring: oldest first, bounded by traceRingCap
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// key builds the identity key. Label pairs are used in given order —
// call sites are the only writers of a family and use one order.
func key(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "\x00" + strings.Join(labels, "\x00")
}

func (r *Registry) get(name string, k kind, labels []string) *metric {
	if len(labels)%2 != 0 {
		panic("obs: odd label pairs for " + name)
	}
	id := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[id]
	if !ok {
		m = &metric{name: name, labels: append([]string(nil), labels...), kind: k}
		switch k {
		case kindCounter:
			m.c = &Counter{}
		case kindGauge:
			m.g = &Gauge{}
		case kindHistogram:
			m.h = newHistogram()
		}
		r.metrics[id] = m
	}
	if m.kind != k {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, m.kind, k))
	}
	return m
}

// Counter returns (creating on first use) the counter with the given
// name and alternating label key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.get(name, kindCounter, labels).c
}

// Gauge returns (creating on first use) the gauge with the given name
// and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.get(name, kindGauge, labels).g
}

// Histogram returns (creating on first use) the fixed-bucket latency
// histogram with the given name and label pairs.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.get(name, kindHistogram, labels).h
}

// HistogramSums reports, for a histogram family with exactly one label
// key, the per-label-value sum of observations in seconds — the
// repository benchmark reads the per-phase breakdown of
// gpnm_batch_phase_seconds through this instead of keeping ad-hoc timers.
func (r *Registry) HistogramSums(name string) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, m := range r.metrics {
		if m.name == name && m.kind == kindHistogram && len(m.labels) == 2 {
			out[m.labels[1]] = m.h.Sum()
		}
	}
	return out
}

// HistogramCounts is HistogramSums' companion for observation counts:
// per-label-value Count() of a single-label histogram family. The hub's
// health report and the RPC-count regression tests read per-endpoint
// call counts out of gpnm_rpc_seconds through this.
func (r *Registry) HistogramCounts(name string) map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64)
	for _, m := range r.metrics {
		if m.name == name && m.kind == kindHistogram && len(m.labels) == 2 {
			out[m.labels[1]] = m.h.Count()
		}
	}
	return out
}

// RecordTrace appends one completed batch trace to the bounded ring.
func (r *Registry) RecordTrace(t Trace) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	r.traces = append(r.traces, t)
	if over := len(r.traces) - traceRingCap; over > 0 {
		r.traces = append(r.traces[:0], r.traces[over:]...)
	}
}

// Traces returns the retained batch traces, oldest first.
func (r *Registry) Traces() []Trace {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return append([]Trace(nil), r.traces...)
}

// LastTrace returns the most recent batch trace (ok=false before the
// first recorded batch).
func (r *Registry) LastTrace() (Trace, bool) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if len(r.traces) == 0 {
		return Trace{}, false
	}
	return r.traces[len(r.traces)-1], true
}

// escapeLabel escapes a label value for the text exposition.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...}, with extra pairs appended (the
// histogram "le" bound).
func labelString(labels []string, extra ...string) string {
	all := append(append([]string(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(all); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, all[i], escapeLabel(all[i+1]))
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatFloat renders a float the way Prometheus text exposition
// expects (shortest round-trip representation).
func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered: one
// "# TYPE" header per family, samples sorted by identity.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ids := make([]string, 0, len(r.metrics))
	for id := range r.metrics {
		ids = append(ids, id)
	}
	snapshot := make(map[string]*metric, len(r.metrics))
	for id, m := range r.metrics {
		snapshot[id] = m
	}
	r.mu.Unlock()
	sort.Strings(ids)

	lastFamily := ""
	for _, id := range ids {
		m := snapshot[id]
		if m.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
			lastFamily = m.name
		}
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, labelString(m.labels), m.c.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, labelString(m.labels), m.g.Value()); err != nil {
				return err
			}
		case kindHistogram:
			var cum uint64
			for i, bound := range DefBuckets {
				cum += m.h.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					m.name, labelString(m.labels, "le", formatFloat(bound)), cum); err != nil {
					return err
				}
			}
			cum += m.h.counts[len(DefBuckets)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				m.name, labelString(m.labels, "le", "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
				m.name, labelString(m.labels), formatFloat(m.h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
				m.name, labelString(m.labels), cum); err != nil {
				return err
			}
		}
	}
	return nil
}

// ServeHTTP makes a registry mountable as the /metrics (or
// /v1/metrics) endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

package main

// Per-layer instruments of a traced run. Everything here measures the
// program from outside: spans around calls into the layers' public
// functions, http.Handler wrappers the benchmark owns, a timing
// shard.Shard decorator, a metered shortest.Oracle, and a replay that
// re-composes one batch by hand from the layers, as core's runUA and the
// hub's applyBatch compose it.

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"uagpnm"
	"uagpnm/internal/ehtree"
	"uagpnm/internal/elim"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// ---- http.Handler wrappers ----

type endpointStats struct {
	Calls     int
	NS        int64
	ReqBytes  int64
	RespBytes int64
}

// httpMeter wraps handlers and accumulates, per endpoint, calls,
// handler time and request/response bytes. A nil meter wraps nothing.
type httpMeter struct {
	mu   sync.Mutex
	by   map[string]*endpointStats
	done func(endpoint string, at time.Time) // called after each request
}

var idSegment = regexp.MustCompile(`/\d+`)

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Flush keeps long-poll handlers that flush working through the wrapper.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (m *httpMeter) wrap(h http.Handler) http.Handler {
	if m == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := idSegment.ReplaceAllString(r.URL.Path, "/{id}")
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		m.mu.Lock()
		if m.by == nil {
			m.by = map[string]*endpointStats{}
		}
		st := m.by[endpoint]
		if st == nil {
			st = &endpointStats{}
			m.by[endpoint] = st
		}
		st.Calls++
		st.NS += int64(end.Sub(t0))
		st.ReqBytes += body.n
		st.RespBytes += cw.n
		m.mu.Unlock()
		if m.done != nil {
			m.done(endpoint, end)
		}
	})
}

// snapshot copies the accumulators; minus subtracts an earlier copy.
func (m *httpMeter) snapshot() map[string]endpointStats {
	out := map[string]endpointStats{}
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.by {
		out[k] = *v
	}
	return out
}

func minus(a, b map[string]endpointStats) map[string]endpointStats {
	out := map[string]endpointStats{}
	for k, v := range a {
		o := b[k]
		out[k] = endpointStats{v.Calls - o.Calls, v.NS - o.NS, v.ReqBytes - o.ReqBytes, v.RespBytes - o.RespBytes}
	}
	return out
}

func totals(m map[string]endpointStats) endpointStats {
	var t endpointStats
	for _, v := range m {
		t.Calls += v.Calls
		t.NS += v.NS
		t.ReqBytes += v.ReqBytes
		t.RespBytes += v.RespBytes
	}
	return t
}

// wiring is what a traced run puts between the workload's processes. A
// nil *wiring is the tracing-off state: nothing is wrapped.
type wiring struct {
	api httpMeter

	mu       sync.Mutex
	applies  uint64               // apply requests answered == hub sequence number
	applyEnd map[uint64]time.Time // hub sequence number → apply response written
}

func newWiring() *wiring {
	w := &wiring{applyEnd: map[uint64]time.Time{}}
	w.api.done = func(endpoint string, at time.Time) {
		if endpoint == "/v1/apply" {
			w.mu.Lock()
			w.applies++
			w.applyEnd[w.applies] = at
			w.mu.Unlock()
		}
	}
	return w
}

func (w *wiring) apiHandler(h http.Handler) http.Handler {
	if w == nil {
		return h
	}
	return w.api.wrap(h)
}

// applyDone reports when the apply request that produced hub sequence
// number seq was answered.
func (w *wiring) applyDone(seq uint64) (time.Time, bool) {
	if w == nil {
		return time.Time{}, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.applyEnd[seq]
	return t, ok
}

// ---- shard.Shard decorator ----

// shardCalls accumulates the client side of one shard method.
type shardCalls struct {
	calls atomic.Int64
	ns    atomic.Int64
	items atomic.Int64 // rows / ops / requests carried
}

func (c *shardCalls) observe(t0 time.Time, items int) {
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(t0)))
	c.items.Add(int64(items))
}

// shardMeter is shared by the decorators of one fleet.
type shardMeter struct {
	rows, ops, affected shardCalls
}

func (m *shardMeter) reset() {
	for _, c := range []*shardCalls{&m.rows, &m.ops, &m.affected} {
		c.calls.Store(0)
		c.ns.Store(0)
		c.items.Store(0)
	}
}

// timedShard decorates a shard with client-side timing of the three
// calls a batch makes; everything else passes through.
type timedShard struct {
	shard.Shard
	m *shardMeter
}

func (s timedShard) Rows(reqs []shard.RowReq) ([]shard.Row, error) {
	defer s.m.rows.observe(time.Now(), len(reqs))
	return s.Shard.Rows(reqs)
}

func (s timedShard) ApplyOps(epoch uint64, ops []shard.Op, warm []shard.RowReq) ([][]uint32, error) {
	defer s.m.ops.observe(time.Now(), len(ops))
	return s.Shard.ApplyOps(epoch, ops, warm)
}

func (s timedShard) Affected(reqs []shard.AffectedReq) ([]nodeset.Set, error) {
	defer s.m.affected.observe(time.Now(), len(reqs))
	return s.Shard.Affected(reqs)
}

// ---- metered shortest.Oracle ----

// meteredOracle counts and times every read the matcher and the
// elimination detectors make of the distance substrate.
type meteredOracle struct {
	shortest.Oracle
	calls atomic.Int64
	ns    atomic.Int64
}

func (o *meteredOracle) observe(t0 time.Time) {
	o.calls.Add(1)
	o.ns.Add(int64(time.Since(t0)))
}

func (o *meteredOracle) Dist(u, v uint32) shortest.Dist {
	defer o.observe(time.Now())
	return o.Oracle.Dist(u, v)
}

func (o *meteredOracle) WithinHops(u, v uint32, k int) bool {
	defer o.observe(time.Now())
	return o.Oracle.WithinHops(u, v, k)
}

func (o *meteredOracle) Reachable(u, v uint32) bool {
	defer o.observe(time.Now())
	return o.Oracle.Reachable(u, v)
}

func (o *meteredOracle) ForwardBall(u uint32, k int, fn func(v uint32, d shortest.Dist) bool) {
	defer o.observe(time.Now())
	o.Oracle.ForwardBall(u, k, fn)
}

func (o *meteredOracle) ReverseBall(v uint32, k int, fn func(x uint32, d shortest.Dist) bool) {
	defer o.observe(time.Now())
	o.Oracle.ReverseBall(v, k, fn)
}

// ---- layered replay ----

// replayBatch is one batch in replayable form: the data side and the
// pattern side by pattern index.
type replayBatch struct {
	D []uagpnm.Update
	P [][]uagpnm.Update
}

// hubBatch addresses the pattern side by the ids a hub handed out.
func (b replayBatch) hubBatch(ids []uagpnm.PatternID) uagpnm.HubBatch {
	out := uagpnm.HubBatch{D: b.D}
	for i, ups := range b.P {
		if len(ups) > 0 {
			if out.P == nil {
				out.P = map[uagpnm.PatternID][]uagpnm.Update{}
			}
			out.P[ids[i]] = ups
		}
	}
	return out
}

// replayInput is the start state and the first batches of an
// end-to-end run, with the hash of every result it delivered.
type replayInput struct {
	G0       *uagpnm.Graph
	Horizon  int
	Patterns []*uagpnm.Pattern
	Batches  []replayBatch
	Want     [][]uint64 // [batch][pattern] result hash of the end-to-end run
	Fork     bool       // every batch applies to the start state (session_mixed)
	Shards   int        // serve the substrate from this many loopback workers
}

// replayOutput is what the replay counted; its timings are spans.
type replayOutput struct {
	Batches    int
	Passes     int
	Mismatched int // passes whose match differs from the end-to-end run's
	BuildMS    float64

	ChangeLogNodes []float64 // per batch
	TreeSize       []float64 // per pass
	TreeRoots      []float64
	Eliminated     []float64
	SeedNodes      []float64
	AmendAllocs    []float64
	OracleCalls    []float64 // per metered pass
	OracleMS       []float64
	AmendMS, RunMS []float64 // paired, per pass that also ran from scratch
	BallColdUS     []float64
	BallWarmUS     []float64
	RefMS          []float64 // reference kernel after each batch, by batch index

	Shard   shardMeter
	Workers map[string]endpointStats // worker-side wrapper totals

	// Inputs captured for the kernel rungs.
	Graph    *uagpnm.Graph
	AffSets  []nodeset.Set
	OldSets  []nodeset.Set // simulation images before …
	NewSets  []nodeset.Set // … and after a pass, paired
	EdgeOps  []uagpnm.Update
	Capacity int
}

const (
	sampledPassesPerBatch = 4   // passes repeated through the metered oracle and from scratch
	ballProbesPerBatch    = 8   // change-log nodes probed cold and warm
	maxCaptured           = 256 // sets kept for the kernel rungs
)

// runReplay re-composes batches from the layers' public functions:
// elim.CanSets → partition.Engine.ApplyDataBatch →
// elim.AffSetsFromApplication → ehtree.Build with a timed
// elim.CrossEliminates callback → simulation.AmendN → simulation.Delta.
// It stops after budget (but replays at least two batches).
func runReplay(in *replayInput, tr *tracer, ref *reference, budget time.Duration) (out *replayOutput, err error) {
	defer partition.RecoverSubstrateLoss(&err)
	out = &replayOutput{Capacity: in.G0.NumIDs()}
	start := time.Now()

	var opts []partition.Option
	var workers httpMeter
	if in.Shards > 0 {
		var fleet []shard.Shard
		for i := 0; i < in.Shards; i++ {
			addr, stop, err := serve(workers.wrap(shard.NewServer().Handler()))
			if err != nil {
				return nil, err
			}
			defer stop()
			fleet = append(fleet, timedShard{shard.Dial(addr), &out.Shard})
		}
		opts = append(opts, partition.WithShards(fleet...))
	}

	g := in.G0.Clone()
	eng := partition.NewEngine(g, in.Horizon, opts...)
	defer eng.Close()
	t0 := time.Now()
	eng.Build()
	out.BuildMS = ms(time.Since(t0))

	ps := make([]*uagpnm.Pattern, len(in.Patterns))
	ms0 := make([]*uagpnm.Match, len(in.Patterns))
	eng.WithReadFailover(func() {
		for i, p := range in.Patterns {
			ps[i] = p.Clone()
			ms0[i] = simulation.Run(ps[i], g, eng)
		}
	})
	// The shard layer is counted per replayed batch: leave the build and
	// the initial queries out.
	out.Shard.reset()
	built := workers.snapshot()
	defer func() { out.Workers = minus(workers.snapshot(), built) }()

	for k := 0; k < len(in.Batches) || in.Fork; k++ {
		if k >= 2 && time.Since(start) > budget {
			break
		}
		b := in.Batches[k%len(in.Batches)]
		var want []uint64
		if k%len(in.Batches) < len(in.Want) {
			want = in.Want[k%len(in.Batches)]
		}
		bg, beng, bps, bms := g, eng, ps, ms0
		if in.Fork {
			bg = g.Clone()
			beng = eng.CloneFor(bg).(*partition.Engine)
			bps = make([]*uagpnm.Pattern, len(ps))
			bms = make([]*uagpnm.Match, len(ps))
			for i := range ps {
				bps[i] = ps[i].Clone()
				bms[i] = ms0[i].Clone(bps[i])
			}
		}
		if err := replayOne(out, tr, k, b, want, bg, beng, bps, bms, in.Fork); err != nil {
			return out, err
		}
		out.RefMS = append(out.RefMS, ref.sample())
		out.Batches++
	}
	out.Graph = g
	return out, nil
}

// replayOne replays batch k on (g, eng) and advances ps and ms in place.
func replayOne(out *replayOutput, tr *tracer, k int, b replayBatch, want []uint64,
	g *uagpnm.Graph, eng *partition.Engine, ps []*uagpnm.Pattern, ms []*uagpnm.Match, session bool) error {
	root := tr.begin("replay.batch", noSpan, k)

	// DER-I against the pre-batch state.
	can := make([][]elim.Info, len(ps))
	for i := range ps {
		if i < len(b.P) && len(b.P[i]) > 0 {
			sp := tr.begin("elim.can_sets", root, k)
			eng.WithReadFailover(func() { can[i] = elim.CanSets(b.P[i], ms[i], ps[i], g, eng) })
			tr.end(sp)
		}
	}

	// ΔGD into graph and substrate, DER-II fused with the maintenance.
	sp := tr.begin("partition.apply_batch", root, k)
	affSets, changeLog, err := eng.ApplyDataBatch(b.D, g)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return fmt.Errorf("replay batch %d: %w", k, err)
	}
	out.ChangeLogNodes = append(out.ChangeLogNodes, float64(changeLog.Len()))
	affInfos := elim.AffSetsFromApplication(b.D, affSets)
	for _, s := range affSets {
		if len(out.AffSets) < maxCaptured && s.Len() > 0 {
			out.AffSets = append(out.AffSets, s)
		}
	}
	for _, u := range b.D {
		if len(out.EdgeOps) < 4*maxCaptured && (u.Kind == updates.DataEdgeInsert || u.Kind == updates.DataEdgeDelete) {
			out.EdgeOps = append(out.EdgeOps, u)
		}
	}

	// First and second read of a few change-log nodes' balls: what the
	// batch's cache invalidation costs the first reader.
	for i := 0; i < min(ballProbesPerBatch, changeLog.Len()); i++ {
		x := changeLog[i*changeLog.Len()/ballProbesPerBatch%changeLog.Len()]
		for _, dst := range []*[]float64{&out.BallColdUS, &out.BallWarmUS} {
			t0 := time.Now()
			eng.ForwardBall(x, eng.Horizon(), func(uint32, shortest.Dist) bool { return true })
			*dst = append(*dst, float64(time.Since(t0))/1e3)
		}
	}

	if eng.Remote() {
		// The hub plans the fan's row demand into one bulk call per worker.
		var demand nodeset.Builder
		for _, s := range affSets {
			demand.AddAll(s)
		}
		for _, p := range ps {
			p.Nodes(func(u uagpnm.PatternNodeID) {
				for _, v := range g.NodesWithLabel(p.Label(u)) {
					demand.Add(v)
				}
			})
		}
		sp := tr.begin("partition.prefetch_rows", root, k)
		eng.PrefetchBallRows(demand.Set())
		tr.end(sp)
	}

	sampleStep := max(1, len(ps)/sampledPassesPerBatch)
	workers := 1
	if session {
		workers = eng.Workers() // a lone session's pass gets the whole pool
	}
	for i := range ps {
		pass := tr.begin("core.pass", root, k)
		newP := ps[i]
		if i < len(b.P) && len(b.P[i]) > 0 {
			newP = ps[i].Clone()
			updates.ApplyPatternBatch(b.P[i], newP)
			if bound := newP.MaxFiniteBound(); bound > 0 {
				eng.EnsureHorizon(bound)
			}
		}
		old := ms[i]
		var tree *ehtree.Tree
		var seeds nodeset.Set
		var next *uagpnm.Match
		var delta []uagpnm.NodeDelta
		var amendMS float64
		var amendObjs uint64
		eng.WithReadFailover(func() {
			sp := tr.begin("ehtree.build", pass, k)
			tree = ehtree.Build(affInfos, can[i], func(up, ud elim.Info) bool {
				c := tr.begin("elim.cross", sp, k)
				defer tr.end(c)
				return elim.CrossEliminates(up, ud, old, eng)
			})
			tr.end(sp)
			seeds = changeLog
			for _, r := range tree.RootInfos() {
				seeds = seeds.Union(r.Set)
			}
			sp = tr.begin("simulation.amend", pass, k)
			_, o0 := allocNow()
			t0 := time.Now()
			next = simulation.AmendN(old, newP, g, eng, seeds, workers)
			amendMS = float64(time.Since(t0)) / 1e6
			_, o1 := allocNow()
			amendObjs = o1 - o0
			tr.end(sp)
			sp = tr.begin("simulation.delta", pass, k)
			delta = simulation.Delta(old, next)
			tr.end(sp)
		})
		tr.end(pass)
		if session {
			sp := tr.begin("core.clone", root, k) // SQuery's defensive copy
			next.Clone(newP)
			tr.end(sp)
		}
		out.Passes++
		out.TreeSize = append(out.TreeSize, float64(tree.Size()))
		out.TreeRoots = append(out.TreeRoots, float64(len(tree.Roots)))
		out.Eliminated = append(out.Eliminated, float64(tree.EliminatedCount()))
		out.SeedNodes = append(out.SeedNodes, float64(seeds.Len()))
		out.AmendAllocs = append(out.AmendAllocs, float64(amendObjs))
		if i < len(want) && matchHash(newP, next) != want[i] {
			out.Mismatched++
		}
		if len(delta) > 0 && len(out.OldSets) < maxCaptured {
			u := delta[0].Node
			out.OldSets = append(out.OldSets, old.SimulationSet(u))
			out.NewSets = append(out.NewSets, next.SimulationSet(u))
		}
		if i%sampleStep == 0 {
			// The same pass again through the metered oracle, and the
			// same result from scratch on the post-batch state. Both sit
			// outside core.pass, so they are not part of the replay's sum.
			mo := &meteredOracle{Oracle: eng}
			var scratchMS float64
			eng.WithReadFailover(func() {
				mo.calls.Store(0)
				mo.ns.Store(0)
				t := ehtree.Build(affInfos, can[i], func(up, ud elim.Info) bool {
					return elim.CrossEliminates(up, ud, old, mo)
				})
				s := changeLog
				for _, r := range t.RootInfos() {
					s = s.Union(r.Set)
				}
				simulation.AmendN(old, newP, g, mo, s, workers)
				sp := tr.begin("simulation.run", noSpan, k)
				t0 := time.Now()
				simulation.Run(newP, g, eng)
				scratchMS = float64(time.Since(t0)) / 1e6
				tr.end(sp)
			})
			out.OracleCalls = append(out.OracleCalls, float64(mo.calls.Load()))
			out.OracleMS = append(out.OracleMS, float64(mo.ns.Load())/1e6)
			out.AmendMS = append(out.AmendMS, amendMS)
			out.RunMS = append(out.RunMS, scratchMS)
		}
		ps[i], ms[i] = newP, next
	}
	tr.end(root)
	return nil
}

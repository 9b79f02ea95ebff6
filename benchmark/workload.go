package main

// The four workloads and the instances that drive them. An instance is
// one set-up system plus its pre-generated inputs; the measuring loop in
// measure.go owns the clock.
//
// Every call into the system uses default options only. The one option
// that is set is Method on Session, because the zero value of
// uagpnm.Options.Method is Scratch (despite its doc comment).

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"uagpnm"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
)

// sizes is every number a workload's inputs are made from.
type sizes struct {
	Graph    graphSpec `json:"graph"`
	Horizon  int       `json:"horizon"`
	Patterns int       `json:"patterns"`
	PatNodes int       `json:"pattern_nodes"`
	PatEdges int       `json:"pattern_edges"`
	DeltaD   int       `json:"delta_d"` // data updates per batch
	DeltaP   int       `json:"delta_p"` // pattern updates per batch
	Cycle    int       `json:"cycle"`   // session: batches pre-generated against the base state and cycled
	Shards   int       `json:"shards"`
	Warmup   int       `json:"warmup"`
	MinOps   int       `json:"min_ops"`
}

type workload struct {
	Name  string
	Why   string
	Span  string // name of the span around the timed unit of work
	Full  sizes
	Quick sizes
	setup func(in *inputs, w *wiring) (instance, error)
}

// datasetSeed generates the data graph and the patterns queried on it.
// They are the dataset: like the paper's SNAP graphs and query sets they
// are the same in every run, so that a run's cost does not depend on
// which graph and which queries its seed happened to draw (measured:
// that choice alone moved batch_p50_ms by 15-20 % between seeds). The
// update streams, data and pattern side, are what --seed varies.
const datasetSeed = 2020

// inputs is what a run generates from its seed before anything is
// timed.
type inputs struct {
	Sz      sizes
	Seed    int64
	G0      *uagpnm.Graph  // the dataset; instances work on clones
	Queries []*witnessed   // the standing patterns
	Probes  []*witnessed   // patterns for the timed initial queries
	Batches []uagpnm.Batch // session_mixed: generated against the base state and cycled
}

// minSupport is the least number of matches every node of a generated
// pattern must have on the dataset: a pattern hanging on one or two
// witnesses loses its total match to the first unlucky delete, and an
// untotal match delivers an empty result.
const minSupport = 4

func generate(seed int64, sz sizes) *inputs {
	in := &inputs{Sz: sz, Seed: seed}
	dataset := rand.New(rand.NewSource(datasetSeed))
	in.G0 = genGraph(dataset, sz.Graph)
	eng := shortest.NewEngine(in.G0, sz.Horizon)
	eng.Build()
	queries := func(n int) []*witnessed {
		var out []*witnessed
		for len(out) < n {
			w := genWitnessed(dataset, in.G0, sz.PatNodes, sz.PatEdges)
			m, supported := simulation.Run(w.P, in.G0, eng), true
			w.P.Nodes(func(u uagpnm.PatternNodeID) {
				supported = supported && m.SimulationSet(u).Len() >= minSupport
			})
			if supported {
				out = append(out, w)
			}
		}
		return out
	}
	in.Queries = queries(sz.Patterns)
	in.Probes = queries(probePatterns)
	// Each session batch is generated against the base state, so the
	// cycle leaves graph and pattern stationary by construction.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sz.Cycle; i++ {
		c := newChurn(in.G0.Clone(), rng)
		in.Batches = append(in.Batches, uagpnm.Batch{D: c.batch(sz.DeltaD), P: patternDelta(rng, in.G0, in.Queries[0])})
	}
	return in
}

// probeEvery is how often the initial query of a new pattern is timed
// beside the batch loop; verifyEvery how often results are checked
// against the from-scratch oracle outside the timed window.
const (
	probeEvery    = 5
	verifyEvery   = 50
	probePatterns = 8 // patterns registered per timed initial-query sample
)

var workloads = []workload{
	{
		Name: "session_mixed",
		Why:  "only workload where pattern and data updates meet in one pattern: DER-I/III, EH-Tree and single-pattern amendment do real work",
		Span: "core.squery",
		Full: sizes{Graph: graphSpec{4000, 17000, 15, 0.95}, Horizon: 3, Patterns: 1, PatNodes: 8, PatEdges: 8,
			DeltaD: 60, DeltaP: 8, Cycle: 32, Warmup: 16, MinOps: 200},
		Quick: sizes{Graph: graphSpec{400, 1700, 6, 0.9}, Horizon: 3, Patterns: 1, PatNodes: 5, PatEdges: 5,
			DeltaD: 24, DeltaP: 8, Cycle: 4, Warmup: 2, MinOps: 12},
		setup: setupSession,
	},
	{
		Name: "hub_sync",
		Why:  "substrate-bound: few patterns, large data batches, so partition overlay sync and shortest/sparse/nodeset below it do most of the work",
		Span: "hub.apply",
		Full: sizes{Graph: graphSpec{4000, 16000, 24, 0.8}, Horizon: 3, Patterns: 4, PatNodes: 6, PatEdges: 6,
			DeltaD: 60, Warmup: 20, MinOps: 200},
		Quick: sizes{Graph: graphSpec{500, 2000, 8, 0.8}, Horizon: 3, Patterns: 2, PatNodes: 4, PatEdges: 4,
			DeltaD: 20, Warmup: 2, MinOps: 12},
		setup: setupHub,
	},
	{
		Name: "hub_fan",
		Why:  "fan-bound mirror of hub_sync: many patterns, small batches, toggled pattern edges, so simulation/elim/ehtree, the pattern index and the worker fan dominate",
		Span: "hub.apply",
		Full: sizes{Graph: graphSpec{2000, 8000, 16, 0.9}, Horizon: 3, Patterns: 96, PatNodes: 6, PatEdges: 6,
			DeltaD: 8, DeltaP: 12, Warmup: 20, MinOps: 200},
		Quick: sizes{Graph: graphSpec{400, 1600, 6, 0.9}, Horizon: 3, Patterns: 16, PatNodes: 4, PatEdges: 4,
			DeltaD: 6, DeltaP: 2, Warmup: 2, MinOps: 12},
		setup: setupHub,
	},
	{
		Name: "serve_sharded",
		Why:  "both wires: hub over two loopback shard workers behind the HTTP API, one writer and one subscriber, so shard and api codecs and the hub lock carry weight",
		Span: "api.apply",
		Full: sizes{Graph: graphSpec{2000, 8000, 16, 0.9}, Horizon: 3, Patterns: 8, PatNodes: 6, PatEdges: 6,
			DeltaD: 30, Shards: 2, Warmup: 20, MinOps: 200},
		Quick: sizes{Graph: graphSpec{400, 1600, 6, 0.9}, Horizon: 3, Patterns: 3, PatNodes: 4, PatEdges: 4,
			DeltaD: 10, Shards: 2, Warmup: 2, MinOps: 12},
		setup: setupHub,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opResult is what one timed unit of work returned.
type opResult struct {
	Updates int
	Hub     *uagpnm.HubBatchStats // nil on session_mixed
}

// verdict is the outcome of checking results against the oracle.
type verdict struct {
	Patterns   int // results checked
	Mismatched int // results that differ from the from-scratch oracle
	Total      int // results that are totally matched
}

// instance is one set-up system under test.
type instance interface {
	// prepare makes operation i's inputs; it is not timed.
	prepare(i int)
	// run is the workload's timed unit of work.
	run(i int) (opResult, error)
	// post runs untimed after operation i.
	post(i int)
	// probe times the initial query of a new pattern.
	probe(i int) (time.Duration, error)
	// verify checks current results against the from-scratch oracle;
	// final asks for the most complete check the workload has.
	verify(final bool) verdict
	// replay describes the first operations for the layered replay.
	replay() *replayInput
	// warm is called once, when warm-up is over.
	warm()
	// readers is the read side running beside the writer, or nil.
	readers() *subscriber
	close()
}

// keepFirst is how many operations an instance remembers (inputs and
// result hashes) for the layered replay of a traced run.
const keepFirst = 24

// ---- session_mixed ----

type sessionInst struct {
	sz      sizes
	g0      *uagpnm.Graph // pristine copy of the data graph
	w       *witnessed
	base    *uagpnm.Session
	batches []uagpnm.Batch
	cur     *uagpnm.Session
	record  bool       // traced run: keep result hashes for the layered replay
	hashes  [][]uint64 // result hash per cycled batch
}

func sessionOptions(sz sizes) uagpnm.Options {
	return uagpnm.Options{Method: uagpnm.UAGPNM, Horizon: sz.Horizon}
}

func setupSession(in *inputs, wire *wiring) (instance, error) {
	w := in.Queries[0]
	s := &sessionInst{sz: in.Sz, g0: in.G0, w: w, batches: in.Batches, record: wire != nil, hashes: make([][]uint64, len(in.Batches))}
	s.base = uagpnm.NewSession(in.G0.Clone(), w.P.Clone(), sessionOptions(in.Sz))
	if !s.base.Matches().Total() {
		return nil, fmt.Errorf("session_mixed: witnessed pattern is not totally matched at registration")
	}
	return s, nil
}

func (s *sessionInst) prepare(int) { s.cur = s.base.Fork() }

func (s *sessionInst) run(i int) (opResult, error) {
	b := s.batches[i%len(s.batches)]
	s.cur.SQuery(b)
	return opResult{Updates: len(b.D) + len(b.P)}, nil
}

func (s *sessionInst) post(i int) {
	if k := i % len(s.batches); s.record && s.hashes[k] == nil {
		s.hashes[k] = []uint64{matchHash(s.cur.Pattern(), s.cur.Matches())}
	}
}

func (s *sessionInst) probe(int) (time.Duration, error) {
	g, p := s.g0.Clone(), s.w.P.Clone()
	t0 := time.Now()
	uagpnm.NewSession(g, p, sessionOptions(s.sz))
	return time.Since(t0), nil
}

func (s *sessionInst) verify(final bool) verdict {
	check := func(f *uagpnm.Session) verdict {
		return checkAgainstOracle(f.Graph(), s.sz.Horizon, []result{{f.Pattern(), f.Matches()}})
	}
	if !final {
		if s.cur == nil {
			return verdict{}
		}
		return check(s.cur)
	}
	var v verdict
	for _, b := range s.batches {
		f := s.base.Fork()
		f.SQuery(b)
		v = v.add(check(f))
	}
	return v
}

func (s *sessionInst) replay() *replayInput {
	in := &replayInput{G0: s.g0, Horizon: s.sz.Horizon, Patterns: []*uagpnm.Pattern{s.w.P}, Fork: true, Want: s.hashes}
	for _, b := range s.batches {
		in.Batches = append(in.Batches, replayBatch{D: b.D, P: [][]uagpnm.Update{b.P}})
	}
	return in
}

func (s *sessionInst) warm()                {}
func (s *sessionInst) readers() *subscriber { return nil }
func (s *sessionInst) close()               { s.base.Close() }

// ---- hub_sync, hub_fan, serve_sharded ----

type hubInst struct {
	sz      sizes
	ctx     context.Context
	hub     *uagpnm.Hub
	svc     uagpnm.Service // the hub itself, or a client dialled to it
	g0      *uagpnm.Graph  // pristine copy of the data graph
	ws      []*witnessed
	ids     []uagpnm.PatternID
	on      []bool // ws[i].Toggle is currently part of pattern i
	churn   *churn
	queue   []replayBatch
	next    uagpnm.HubBatch
	applied int   // batches sent so far == the hub's sequence number
	changed []int // batches that changed pattern i's result
	probes  []*witnessed
	sub     *subscriber
	closers []func()

	// The first batches and the hash of every result they produced,
	// kept by traced runs for the layered replay.
	record  bool
	history []replayBatch
	hashes  [][]uint64
}

func setupHub(in *inputs, wire *wiring) (inst instance, err error) {
	sz := in.Sz
	h := &hubInst{sz: sz, ctx: context.Background(), g0: in.G0, ws: in.Queries, probes: in.Probes, record: wire != nil}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	h.on = make([]bool, len(h.ws))
	h.changed = make([]int, len(h.ws))
	h.churn = newChurn(h.g0.Clone(), rand.New(rand.NewSource(in.Seed)))

	opts := uagpnm.HubOptions{Horizon: sz.Horizon}
	for i := 0; i < sz.Shards; i++ {
		addr, stop, err := serve(shard.NewServer().Handler())
		if err != nil {
			return nil, err
		}
		h.closers = append(h.closers, stop)
		opts.Shards = append(opts.Shards, addr)
	}
	if h.hub, err = uagpnm.NewHub(h.g0.Clone(), opts); err != nil {
		return nil, fmt.Errorf("new hub: %w", err)
	}
	h.closers = append(h.closers, func() { h.hub.Close() })
	h.svc = h.hub
	if sz.Shards > 0 {
		addr, stop, err := serve(wire.apiHandler(uagpnm.NewHandler(h.hub, uagpnm.HandlerOptions{})))
		if err != nil {
			return nil, err
		}
		h.closers = append(h.closers, stop)
		writer, err := uagpnm.Dial(addr)
		if err != nil {
			return nil, err
		}
		h.closers = append(h.closers, func() { writer.Close() })
		h.svc = writer
		reader, err := uagpnm.Dial(addr)
		if err != nil {
			return nil, err
		}
		h.closers = append(h.closers, func() { reader.Close() })
		h.sub = &subscriber{svc: reader, wire: wire}
	}
	for i, w := range h.ws {
		id, err := h.svc.Register(h.ctx, w.P.Clone())
		if err != nil {
			return nil, fmt.Errorf("register pattern %d: %w", i, err)
		}
		h.ids = append(h.ids, id)
		if m, ok := h.hub.Match(id); !ok || !m.Total() {
			return nil, fmt.Errorf("witnessed pattern %d is not totally matched at registration", i)
		}
	}
	return h, nil
}

// warm starts the read side on the standing query whose result changed
// most often during warm-up, because only a batch that changes a result
// is a subscriber event.
func (h *hubInst) warm() {
	if h.sub == nil {
		return
	}
	best := 0
	for i, n := range h.changed {
		if n > h.changed[best] {
			best = i
		}
	}
	h.sub.start(h.ctx, h.ids[best])
	h.closers = append(h.closers, h.sub.stop)
}

// serve runs handler on a loopback listener of its own and returns the
// address and a stop function that waits for the server to end.
func serve(handler http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns once Close is called
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// generate appends batches to the queue: the churn stream's next ΔGD
// and, when the workload has pattern updates, the toggle of the
// held-back witnessed edge of a rotating group of patterns (inserted in
// one visit, deleted in the next).
func (h *hubInst) generate(n int) {
	for ; n > 0; n-- {
		b := replayBatch{D: h.churn.batch(h.sz.DeltaD)}
		if h.sz.DeltaP > 0 {
			b.P = make([][]uagpnm.Update, len(h.ws))
			k := h.applied + len(h.queue)
			groups := (len(h.ws) + h.sz.DeltaP - 1) / h.sz.DeltaP
			for i := (k % groups) * h.sz.DeltaP; i < min(len(h.ws), (k%groups+1)*h.sz.DeltaP); i++ {
				e := h.ws[i].Toggle
				if h.on[i] {
					b.P[i] = []uagpnm.Update{uagpnm.DeletePatternEdge(e.From, e.To)}
				} else {
					b.P[i] = []uagpnm.Update{uagpnm.InsertPatternEdge(e.From, e.To, e.Bound)}
				}
				h.on[i] = !h.on[i]
			}
		}
		h.queue = append(h.queue, b)
	}
}

func (h *hubInst) prepare(int) {
	if len(h.queue) == 0 {
		h.generate(32)
	}
	b := h.queue[0]
	h.queue = h.queue[1:]
	h.next = b.hubBatch(h.ids)
	if h.record && len(h.history) < keepFirst {
		h.history = append(h.history, b)
	}
}

func (h *hubInst) run(int) (opResult, error) {
	h.applied++
	if h.sub.running() {
		h.sub.sent(uint64(h.applied))
	}
	ds, st, err := h.svc.ApplyBatch(h.ctx, h.next)
	for i, d := range ds {
		if i < len(h.changed) && len(d.Nodes) > 0 {
			h.changed[i]++
		}
	}
	n := len(h.next.D)
	for _, ups := range h.next.P {
		n += len(ups)
	}
	return opResult{Updates: n, Hub: &st}, err
}

func (h *hubInst) post(int) {
	if len(h.hashes) < len(h.history) {
		row := make([]uint64, len(h.ids))
		for i, id := range h.ids {
			p, m, _, err := h.hub.Snapshot(h.ctx, id)
			if err == nil {
				row[i] = matchHash(p, m)
			}
		}
		h.hashes = append(h.hashes, row)
	}
}

// probe registers every probe pattern in turn (and unregisters it
// again) and reports the mean: one sample always covers the same set of
// patterns, so the samples have one mode and their median is steady.
func (h *hubInst) probe(int) (time.Duration, error) {
	var total time.Duration
	for _, w := range h.probes {
		p := w.P.Clone()
		t0 := time.Now()
		id, err := h.svc.Register(h.ctx, p)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := h.svc.Unregister(h.ctx, id); err != nil {
			return 0, err
		}
	}
	return total / time.Duration(len(h.probes)), nil
}

func (h *hubInst) verify(bool) verdict {
	rs := make([]result, 0, len(h.ids))
	for _, id := range h.ids {
		// The match as the service delivers it (over the wire on
		// serve_sharded), against the hub's own copy of the pattern: a
		// client rebuilds patterns on a label table of its own.
		_, m, _, err := h.svc.Snapshot(h.ctx, id)
		p, ok := h.hub.PatternGraph(id)
		if err != nil || !ok {
			rs = append(rs, result{})
			continue
		}
		rs = append(rs, result{p, m})
	}
	return checkAgainstOracle(h.hub.Graph(), h.sz.Horizon, rs)
}

func (h *hubInst) replay() *replayInput {
	ps := make([]*uagpnm.Pattern, len(h.ws))
	for i, w := range h.ws {
		ps[i] = w.P
	}
	return &replayInput{G0: h.g0, Horizon: h.sz.Horizon, Patterns: ps, Batches: h.history, Want: h.hashes, Shards: h.sz.Shards}
}

func (h *hubInst) readers() *subscriber {
	if !h.sub.running() {
		return nil
	}
	return h.sub
}

func (h *hubInst) close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
	h.closers = nil
}

// ---- the read side of serve_sharded ----

// subscriber is the second connection of serve_sharded: it long-polls
// one standing query and, every time a delta arrives, waits for the
// writer to send its next batch and takes a Snapshot readLead later — a
// consistent read that lands while a batch is in flight and has to wait
// for the rest of the hub's lock hold.
type subscriber struct {
	svc  uagpnm.Service
	wire *wiring

	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	newBatch  *sync.Cond // signalled by sent and stop
	lastSent  uint64
	tr        *tracer
	sentAt    map[uint64]time.Time // batch sent by the writer, by sequence number
	wokeAt    map[uint64]time.Time // its delta received
	lagMS     []float64
	snapMS    []float64
	attempted int
	failed    int
}

// readLead is how long after the writer sent a batch the subscriber
// issues its read: long enough for the batch to have taken the hub's
// lock, short against the batch itself.
const readLead = time.Millisecond

func (s *subscriber) start(ctx context.Context, id uagpnm.PatternID) {
	ctx, s.cancel = context.WithCancel(ctx)
	s.done = make(chan struct{})
	s.newBatch = sync.NewCond(&s.mu)
	s.sentAt, s.wokeAt = map[uint64]time.Time{}, map[uint64]time.Time{}
	go func() {
		defer close(s.done)
		s.loop(ctx, id)
	}()
}

func (s *subscriber) running() bool { return s != nil && s.done != nil }

func (s *subscriber) stop() {
	s.cancel()
	s.mu.Lock()
	s.newBatch.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// sent is called by the writer just before it sends batch seq.
func (s *subscriber) sent(seq uint64) {
	s.mu.Lock()
	s.sentAt[seq] = time.Now()
	s.lastSent = seq
	s.newBatch.Broadcast()
	s.mu.Unlock()
}

// reset starts a fresh measuring window recorded into tr.
func (s *subscriber) reset(tr *tracer) {
	s.mu.Lock()
	s.tr = tr
	s.lagMS, s.snapMS, s.wokeAt = nil, nil, map[uint64]time.Time{}
	s.attempted, s.failed = 0, 0
	s.mu.Unlock()
}

// take hands the window's samples to w. The wake samples pair each
// delta's arrival with the moment the wrapper around the API handler
// saw the apply response written (traced runs only); a delta may well
// arrive first.
func (s *subscriber) take(w *window) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.LagMS, w.SnapMS = s.lagMS, s.snapMS
	w.Attempted += s.attempted
	w.Failed += s.failed
	for seq, woke := range s.wokeAt {
		if done, ok := s.wire.applyDone(seq); ok {
			w.WakeMS = append(w.WakeMS, ms(woke.Sub(done)))
		}
	}
}

func (s *subscriber) tracer() *tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tr
}

func (s *subscriber) loop(ctx context.Context, id uagpnm.PatternID) {
	var since uint64
	for ctx.Err() == nil {
		tr := s.tracer()
		sp := tr.begin("api.wait_deltas", noSpan, int(since))
		ds, resync, err := s.svc.WaitDeltas(ctx, id, since)
		woke := time.Now()
		tr.end(sp)
		if ctx.Err() != nil {
			return
		}
		s.mu.Lock()
		s.attempted++
		if err != nil {
			s.failed++
		}
		for _, d := range ds {
			if t, ok := s.sentAt[d.Seq]; ok {
				s.lagMS = append(s.lagMS, ms(woke.Sub(t)))
				s.wokeAt[d.Seq] = woke
			}
			since = max(since, d.Seq)
		}
		for seq := range s.sentAt {
			if seq <= since {
				delete(s.sentAt, seq)
			}
		}
		s.mu.Unlock()
		if err != nil {
			time.Sleep(10 * time.Millisecond) // do not spin on a failing server
			continue
		}
		if !resync && len(ds) == 0 {
			continue
		}
		s.mu.Lock()
		for s.lastSent <= since && ctx.Err() == nil {
			s.newBatch.Wait()
		}
		s.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		time.Sleep(readLead)
		sp = tr.begin("api.snapshot", noSpan, int(since))
		t0 := time.Now()
		_, _, seq, err := s.svc.Snapshot(ctx, id)
		d := time.Since(t0)
		tr.end(sp)
		if ctx.Err() != nil {
			return
		}
		s.mu.Lock()
		s.attempted++
		if err != nil {
			s.failed++
		} else {
			s.snapMS = append(s.snapMS, ms(d))
			if resync {
				since = seq
			}
		}
		s.mu.Unlock()
	}
}

// Package hub implements the multi-pattern standing-query hub: one data
// graph and one SLen substrate serving many registered patterns at once.
//
// The paper's cost analysis says SLen maintenance dominates GPNM — and
// SLen depends only on the data graph, never on the pattern. A server
// holding n standing patterns over one evolving graph therefore wastes
// (n-1)/n of its maintenance budget if every pattern runs its own
// Session: each would redo the identical substrate synchronisation per
// batch. The hub amortises it. ApplyBatch advances the shared substrate
// exactly once per batch — one structural application, one change log
// (and behind a fleet one overlay reconciliation) — and only the
// per-pattern work (the single amendment pass) is repeated, fanned
// across the worker pool.
//
// Epoch-snapshot discipline: a batch is processed in two phases and a
// fan under the hub's lock. Both phases are the single writer: the first
// validates the batch, applies ΔGP to clones of the updated patterns and
// widens the horizon to their bounds; the second applies ΔGD and
// synchronises the substrate. The fan then runs one amendment pass per
// woken pattern across the pool, seeded by the batch change log, every
// worker reading the frozen post-batch state. This is exactly the
// read-epoch contract documented on partition.Engine; each pattern's
// pass is the UA-GPNM pass of core.Session.SQuery, so a hub pattern's
// result after every batch equals an independent session's (the
// differential suite enforces it against Scratch sessions).
//
// Subscribers see changes, not result dumps: every batch yields a
// per-pattern Delta (Added/Removed per pattern node, BGS-projected),
// sequence-numbered for at-least-once delivery, with a bounded history
// for long-polling (WaitDeltas) and a resync signal when a subscriber
// falls further behind than the history reaches.
package hub

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"sync"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
	"uagpnm/internal/workpool"
)

// PatternID identifies a registered standing pattern.
type PatternID uint64

// Config parameterises a Hub; the public package re-exports it as
// uagpnm.HubOptions. The shared substrate is a partition.Engine — the
// ball plane in-process, §V's label partition behind Shards — and every
// registered pattern runs the fused UA-GPNM pipeline on it. The
// substrate's phases and the per-pattern fan-out share one pool as wide
// as GOMAXPROCS; each woken pattern's amendment pass is itself
// sequential, so the fan is where a batch's parallelism lives.
type Config struct {
	// Horizon caps SLen at this many hops (0 = exact distances). It is
	// widened automatically to cover every registered pattern's largest
	// finite bound.
	Horizon int
	// Shards, when non-empty, serves the UA-GPNM substrate's
	// per-partition intra state from remote shard workers (cmd/gpnm-shard
	// at these host:port addresses). The hub's phase discipline is
	// unchanged: the single writer flushes each batch's ops to the
	// workers once, and the per-pattern readers of the fan query the
	// frozen post-batch shard state through the coordinator's caches.
	Shards []string
	// SpareShards are standby gpnm-shard workers the substrate promotes
	// when a serving worker is lost: the dead shard's partitions are
	// rebuilt on the spare from the coordinator's data graph before the
	// in-flight batch retries. Without spares, survivors absorb the
	// lost partitions instead.
	SpareShards []string
	// History bounds the per-pattern delta log retained for long-polling
	// (default 256 non-empty deltas). Subscribers further behind than
	// the log reaches receive a resync signal instead of deltas.
	History int
	// disableIndex turns the pattern-set index off: every batch fans
	// amendment over every registration. It is the reference
	// side of this package's index differential suites and nothing
	// outside the package can set it.
	disableIndex bool
	// Metrics, when non-nil, receives the hub's telemetry — batch phase
	// histograms (shared with the substrate's, under one
	// gpnm_batch_phase_seconds family), wake counters, per-batch traces,
	// and the sharded substrate's RPC histograms — instead of the
	// process-global obs.Default. Servers leave it nil.
	Metrics *obs.Registry
}

// Batch is one epoch's worth of updates for the whole hub: a shared
// data-side sequence ΔGD and, optionally, per-pattern ΔGP sequences.
type Batch struct {
	D []updates.Update               // data updates, applied once for all patterns
	P map[PatternID][]updates.Update // pattern updates, per standing query
}

// Delta is the subscriber-visible change of one pattern's result after
// one batch: Added/Removed per pattern node (BGS-projected; empty Nodes
// means the batch left this pattern's result untouched), tagged with the
// hub sequence number of the batch that produced it.
type Delta struct {
	Pattern PatternID
	Seq     uint64
	Nodes   []simulation.NodeDelta
}

// BatchStats records the shared work of the last ApplyBatch.
type BatchStats struct {
	Seq         uint64
	DataUpdates int
	Patterns    int
	// SLenSync is the wall time of the one shared substrate
	// synchronisation; SLenSyncs the data updates synchronised. n
	// independent sessions would pay both n times for the same batch.
	SLenSync  time.Duration
	SLenSyncs int
	// FanOut is the wall time of the per-pattern amendment fan-out;
	// Duration the whole ApplyBatch.
	FanOut   time.Duration
	Duration time.Duration
	// Recovered counts the shard losses this batch absorbed through
	// failover: the dead workers' partitions were rebuilt from the
	// coordinator's data graph and the batch completed normally. It is the
	// only subscriber-visible trace of a recovered loss.
	Recovered int
	// Woken counts the registrations the fan actually ran over;
	// Skipped those the pattern-set index proved untouchable by this
	// batch (their matches are unchanged by construction, so they got
	// an empty delta without entering the fan). Woken + Skipped ==
	// Patterns.
	Woken   int
	Skipped int
	// IndexBypassed records that this batch's wake decision did not
	// come from the pattern-set index, so Woken == Patterns says nothing
	// about selectivity. Only Config.disableIndex sets it.
	IndexBypassed bool
	// RPCCalls / RowsPrefetched / RowsMissed summarise this batch's use
	// of the sharded read plane (deltas of the registry's cumulative
	// counters across ApplyBatch): coordinator→worker RPCs issued, rows
	// installed client-side by the bulk paths (/rows + the /ops warm
	// piggyback), and rows that fell through to first-miss fetches.
	// All zero when the substrate is in-process.
	RPCCalls       uint64
	RowsPrefetched uint64
	RowsMissed     uint64
}

// ErrUnknownPattern reports an id that is not (or no longer) registered.
var ErrUnknownPattern = errors.New("hub: unknown pattern")

// registration is one standing query: its evolving pattern, its current
// match, the stats of its last per-pattern pass and its delta log.
type registration struct {
	id    PatternID
	p     *pattern.Graph
	match *simulation.Match
	stats core.QueryStats
	// sig is what the pattern-set index files p under, kept in lockstep
	// with p (re-extracted whenever ΔGP mutates the pattern).
	sig []pattern.LabelReach
	// wokenSeq is the last batch sequence whose fan included
	// this registration — the observable trace of the index's wake
	// decision, which the fuzz oracle checks against actual deltas.
	wokenSeq uint64

	deltas       []packedDelta // most recent non-empty deltas, ascending seq
	trimmedBelow uint64        // deltas with Seq ≤ this were dropped from the log
}

// Hub owns one data graph and one distance engine and hosts many
// registered patterns as standing queries. It is the in-process
// implementation of the public uagpnm.Service (the public package
// aliases it as uagpnm.Hub). All methods are safe for concurrent use
// (an HTTP front end calls them from many handlers); the hub serialises
// writers internally and ApplyBatch is the only method that advances
// the epoch. Methods that take a context run synchronously and ignore
// it — a batch abandoned halfway would leave the substrate
// half-advanced — except WaitDeltas, the one method that blocks on
// something other than the hub's lock.
//
// mu is the hub's only lock: it guards every field below and the
// engine's single-writer contract. It is also what lets every read fan
// run under eng.WithReadFailover (a shard worker lost between batches
// surfaces on the next read, and that turns it into a rebuild-and-retry
// instead of a poison): the caller holds mu, so the fan is the engine's
// only reader, and each fan overwrites its outputs wholesale, so a retry
// is idempotent.
//
// A substrate loss beyond repair (the engine's failover found no
// surviving or spare worker, or its budget was spent) is the engine's
// sticky Err: a batch that died mid-flight may have advanced the
// substrate for some patterns and not others, so every method that
// touches results returns that error from then on, and parked
// long-polls are woken with it so front ends can drain cleanly.
// Recoverable losses surface only as BatchStats.Recovered.
type Hub struct {
	mu   sync.Mutex
	cond *sync.Cond

	g     *graph.Graph
	eng   *partition.Engine
	cfg   Config
	regs  map[PatternID]*registration
	order []PatternID // registration order, for deterministic iteration
	idx   patternIndex
	next  PatternID
	seq   uint64
	last  BatchStats
	obs   *obs.Registry
}

// New builds the shared substrate over g and returns an empty hub. The
// hub owns g afterwards. With Config.Shards set, building the remote
// intra engines can fail (a worker is unreachable); New then closes the
// shard clients it dialled and returns a nil hub with an error wrapping
// shard.ErrSubstrateLost. An in-process build never errors.
func New(g *graph.Graph, cfg Config) (_ *Hub, err error) {
	if cfg.History <= 0 {
		cfg.History = 256
	}
	h := &Hub{g: g, cfg: cfg, regs: make(map[PatternID]*registration), idx: make(patternIndex), next: 1}
	h.obs = cfg.Metrics
	if h.obs == nil {
		h.obs = obs.Default
	}
	h.cond = sync.NewCond(&h.mu)
	h.eng = partition.NewEngine(g, cfg.Horizon,
		partition.WithShards(h.dial(cfg.Shards)...),
		partition.WithSpares(h.dial(cfg.SpareShards)...),
		partition.WithMetrics(h.obs))
	defer func() {
		if err != nil {
			_ = h.eng.Close()
		}
	}()
	defer partition.RecoverSubstrateLoss(&err)
	h.eng.Build()
	return h, nil
}

// dial returns a client for each gpnm-shard worker address, reporting
// its RPC telemetry to the hub's registry.
func (h *Hub) dial(addrs []string) []shard.Shard {
	shs := make([]shard.Shard, len(addrs))
	for i, addr := range addrs {
		shs[i] = shard.DialWith(addr, h.obs)
	}
	return shs
}

// wakeOnLoss wakes every parked long-poll once the engine is lost, so
// each returns the loss. Deferred by the methods that can lose the
// substrate, with h.mu held.
func (h *Hub) wakeOnLoss() {
	if h.eng.Err() != nil {
		h.cond.Broadcast()
	}
}

// Register adds p as a standing query, answers its initial query
// (IQuery) against the current graph state, and returns its id. The hub
// owns p afterwards (pass a Clone to keep an independent copy). The
// substrate horizon is widened to cover p's largest finite bound.
//
// p must share the data graph's label table, and building it intern-ed
// any new labels into that shared table — an unsynchronised write when
// the hub is already processing batches. Construct patterns before
// concurrent hub use, or parse them under the hub's lock with
// RegisterScript.
//
// It errors on an empty pattern, and when the substrate is (or becomes)
// lost: the initial query widens the horizon and reads the engine, both
// of which can hit a dead remote shard. ctx is ignored.
func (h *Hub) Register(_ context.Context, p *pattern.Graph) (PatternID, error) {
	return h.RegisterFunc(func(*graph.Labels) (*pattern.Graph, error) { return p, nil })
}

// RegisterScript parses the textual pattern format ("node <name>
// <label>" / "edge <from> <to> <bound>" lines) against the hub graph's
// label table and registers the result — parsing happens under the
// hub's lock, so label interning can never race a concurrent batch
// (the HTTP front end's register path). Empty patterns are rejected.
func (h *Hub) RegisterScript(r io.Reader) (PatternID, error) {
	return h.RegisterFunc(func(labels *graph.Labels) (*pattern.Graph, error) {
		return pattern.Parse(r, labels)
	})
}

// RegisterFunc builds a pattern against the hub graph's label table —
// under the hub's lock, so label interning can never race a concurrent
// batch — and registers the result. The API front end's typed register
// path (internal/api) materialises its wire pattern through this; the
// DSL path is RegisterScript. It is the one registration path: it
// rejects an empty pattern, widens the horizon and answers the initial
// query.
func (h *Hub) RegisterFunc(build func(labels *graph.Labels) (*pattern.Graph, error)) (id PatternID, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.eng.Err(); err != nil {
		return 0, err
	}
	defer h.wakeOnLoss()
	defer partition.RecoverSubstrateLoss(&err)
	p, err := build(h.g.Labels())
	if err != nil {
		return 0, err
	}
	if p.NumNodes() == 0 {
		return 0, errors.New("hub: empty pattern")
	}
	if b := p.MaxFiniteBound(); b > 0 {
		h.eng.EnsureHorizon(b)
	}
	// The initial simulation queries the balls of every label candidate
	// of the pattern; on a sharded substrate, plan that row demand into
	// one bulk RPC per worker up front so the fixpoint below runs
	// against a warm row cache instead of a per-row round trip per miss.
	if h.eng.Remote() {
		var cand nodeset.Builder
		h.addLabelCandidates(&cand, p)
		h.eng.PrefetchBallRows(cand.Set()) // self-repairing; terminal loss unwinds to the recover above
	}
	var m *simulation.Match
	h.eng.WithReadFailover(func() { m = simulation.Run(p, h.g, h.eng) })
	id = h.next
	h.next++
	r := &registration{
		id:           id,
		p:            p,
		match:        m,
		sig:          pattern.SignatureOf(p),
		trimmedBelow: h.seq, // nothing to long-poll before registration
	}
	h.regs[id] = r
	h.order = append(h.order, id)
	h.idx.add(id, r.sig)
	return id, nil
}

// addLabelCandidates adds the data nodes carrying a label some node of
// the given patterns asks for: the distinct labels are collected first,
// so each label's node list goes in once however many pattern nodes
// share it.
func (h *Hub) addLabelCandidates(b *nodeset.Builder, ps ...*pattern.Graph) {
	seen := make(map[graph.LabelID]struct{})
	for _, p := range ps {
		p.Nodes(func(u pattern.NodeID) {
			l := p.Label(u)
			if _, dup := seen[l]; !dup {
				seen[l] = struct{}{}
				b.AddAll(h.g.NodesWithLabel(l))
			}
		})
	}
}

// Unregister removes a standing query, waking any long-pollers on it
// (they observe ErrUnknownPattern). It errors with ErrUnknownPattern for
// an unregistered id, and with the sticky substrate loss on a poisoned
// hub: once the substrate is terminally lost every mutation — even one
// a loss cannot corrupt, like forgetting a query — surfaces the loss,
// because the process is draining for a supervisor restart and partial
// bookkeeping on the way down only confuses the postmortem. ctx is
// ignored.
func (h *Hub) Unregister(_ context.Context, id PatternID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.eng.Err(); err != nil {
		return err
	}
	r, ok := h.regs[id]
	if !ok {
		return ErrUnknownPattern
	}
	delete(h.regs, id)
	h.idx.remove(id, r.sig)
	for i, o := range h.order {
		if o == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
	// Drop the registration's bulky state eagerly. The *registration
	// can outlive removal — an ApplyBatch return value, a driver-held
	// handle, a parked long-poll mid-wake all still reference it — and
	// with a large History the delta log alone pins History × |delta|
	// node sets until the last reference dies. Post-removal readers
	// re-lookup h.regs and observe ErrUnknownPattern, never these
	// fields.
	r.deltas = nil
	r.match = nil
	h.cond.Broadcast()
	return nil
}

// Patterns returns the registered ids in registration order.
func (h *Hub) Patterns() []PatternID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]PatternID(nil), h.order...)
}

// Seq returns the hub's batch sequence number (0 before any batch).
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// Graph returns the hub's (evolving) data graph. Treat it as read-only
// while the hub is live — every structural change must flow through
// ApplyBatch or the substrate diverges — and do not read it
// concurrently with ApplyBatch (use GraphStats for a synchronised
// summary).
func (h *Hub) Graph() *graph.Graph { return h.g }

// GraphStats summarises the data graph under the hub's lock — the
// race-free way for a front end to report graph size while batches are
// being applied.
func (h *Hub) GraphStats() graph.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.g.ComputeStats()
}

// Close releases the hub's substrate shards (remote shard clients drop
// their caches and idle connections; in-process substrates are a
// no-op). Call once the hub is done serving: Close takes the hub's
// lock, which ApplyBatch holds end to end, so it waits for an in-flight
// batch to finish and does not interrupt it.
func (h *Hub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.eng.Close()
}

// Err reports the engine's sticky substrate-loss error (nil while
// healthy) without taking the hub's lock — what a serving process checks
// after its drain to decide whether to exit for a supervisor restart.
// Front ends surface it from health endpoints so load balancers stop
// routing to a poisoned process.
func (h *Hub) Err() error { return h.eng.Err() }

// Status reports the substrate's failover state without taking the
// hub's lock: recovering is true while a shard loss is being repaired
// inside an in-flight batch (degraded, not dead — health endpoints
// answer 200 from this instead of blocking on the batch), recovered
// counts the losses absorbed over the hub's lifetime. Both are zero
// for in-process substrates.
func (h *Hub) Status() (recovering bool, recovered uint64) {
	// h.eng is assigned once in New and never replaced, so the
	// lock-free read is safe; the engine's own counters are atomics.
	return h.eng.Recovering(), h.eng.Recovered()
}

// LastBatch reports the shared work of the most recent ApplyBatch.
func (h *Hub) LastBatch() BatchStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// Match returns a defensive deep copy of pattern id's current match
// (nil, false when id is unknown — or when the hub is poisoned, since
// a loss mid-fan-out can leave some registrations amended and others
// not; check Err to distinguish). Like Session.SQuery's return, the
// copy is the caller's to keep and stays frozen as batches proceed.
func (h *Hub) Match(id PatternID) (*simulation.Match, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.regs[id]
	if !ok || h.eng.Err() != nil {
		return nil, false
	}
	return r.match.Clone(r.p), true
}

// Result returns the GPNM node matching result Npi for pattern node u
// of standing query id — freshly materialised, never aliasing hub state.
// It errors with ErrUnknownPattern for an unregistered id, and with the
// sticky substrate loss on a poisoned hub — a loss mid-fan-out can leave
// some registrations amended and others not, so post-loss reads must
// not be served. ctx is ignored.
func (h *Hub) Result(_ context.Context, id PatternID, u pattern.NodeID) (nodeset.Set, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.eng.Err(); err != nil {
		return nil, err
	}
	r, ok := h.regs[id]
	if !ok {
		return nil, ErrUnknownPattern
	}
	return r.match.Nodes(u), nil
}

// PatternGraph returns a defensive clone of standing query id's current
// pattern graph (nil, false when id is unknown, or on a poisoned hub —
// check Err) — front ends use it to render results with node names
// after ΔGP batches evolved the pattern.
func (h *Hub) PatternGraph(id PatternID) (*pattern.Graph, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.regs[id]
	if !ok || h.eng.Err() != nil {
		return nil, false
	}
	return r.p.Clone(), true
}

// Snapshot returns a mutually consistent view of one standing query —
// pattern, match (both defensive clones) and the hub sequence they
// correspond to — taken under one lock acquisition, so a batch landing
// between calls can never pair a stale match with a newer pattern or
// sequence number. It errors with ErrUnknownPattern for an
// unregistered id, and with the sticky substrate loss on a poisoned
// hub (post-loss state may be half-amended and must not be served).
// ctx is ignored.
func (h *Hub) Snapshot(_ context.Context, id PatternID) (p *pattern.Graph, m *simulation.Match, seq uint64, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.eng.Err(); err != nil {
		return nil, nil, 0, err
	}
	r, ok := h.regs[id]
	if !ok {
		return nil, nil, 0, ErrUnknownPattern
	}
	p = r.p.Clone()
	return p, r.match.Clone(p), h.seq, nil
}

// Stats reports the per-pattern pass statistics of id's last
// amendment (zero before the first batch after registration). It errors
// with ErrUnknownPattern for an unregistered id, and with the sticky
// substrate loss on a poisoned hub, like Match and Snapshot: a loss
// mid-fan-out can leave some registrations' stats updated and others
// not.
func (h *Hub) Stats(id PatternID) (core.QueryStats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.eng.Err(); err != nil {
		return core.QueryStats{}, err
	}
	r, ok := h.regs[id]
	if !ok {
		return core.QueryStats{}, ErrUnknownPattern
	}
	return r.stats, nil
}

// Metrics returns the hub's telemetry registry (Config.Metrics, or the
// process-global default). The API front end serves it at /v1/metrics;
// it also holds the per-batch phase traces behind /v1/trace.
func (h *Hub) Metrics() *obs.Registry { return h.obs }

// LastTrace returns the phase trace of the most recent batch (ok=false
// before the first batch): one span per instrumented phase the batch
// crossed, in completion order.
func (h *Hub) LastTrace() (obs.Trace, bool) { return h.obs.LastTrace() }

// rpcPlane is one snapshot of the registry's cumulative sharded-read
// counters; ApplyBatch takes one before and one after to report the
// batch's own RPC traffic in BatchStats.
type rpcPlane struct {
	calls, prefetched, missed uint64
}

func (h *Hub) rpcPlaneSnapshot() rpcPlane {
	var p rpcPlane
	for _, n := range h.obs.HistogramCounts("gpnm_rpc_seconds") {
		p.calls += n
	}
	p.prefetched = h.obs.Counter("gpnm_rpc_rows_prefetched_total").Value()
	p.missed = h.obs.Counter("gpnm_rpc_rows_missed_total").Value()
	return p
}

// span records one hub-side batch phase into the same histogram family
// the substrate's phases land in, and into the batch's trace.
func (h *Hub) span(tr *obs.Trace, name string, start time.Time) {
	d := time.Since(start)
	h.obs.Histogram("gpnm_batch_phase_seconds", "phase", name).Observe(d)
	tr.AddSpan(name, d)
}

// ApplyBatch processes one update batch for every standing query and
// returns one Delta per registered pattern, in registration order
// (possibly with empty Nodes), together with this batch's shared-work
// stats (returned rather than re-read so concurrent callers never see
// another batch's numbers). The shared SLen synchronisation and
// change-log construction run once; only per-pattern amendment fans
// out. It errors without touching anything when the
// batch references an unknown pattern, puts an update on the wrong
// side, or carries a node insert with a mispredicted id or a pattern
// node insert without exactly one label.
//
// Losing a substrate shard mid-batch is first handled by failover: the
// substrate quarantines the dead worker, rebuilds its partitions from
// the coordinator's data graph on survivors or spares, and retries the
// in-flight work — invisible here except for BatchStats.Recovered.
// Parked WaitDeltas long-polls simply stay parked through the recovery
// window (the batch is still in flight) and wake with the batch's
// deltas as usual. Only when recovery is exhausted — no surviving
// capacity, or the failover budget spent — does ApplyBatch return an
// error wrapping shard.ErrSubstrateLost and poison the hub: the shared
// substrate may then be half-advanced relative to some patterns'
// matches, so every further call fails with the same error and parked
// long-polls are woken with it. Front ends drain and restart into a
// fresh build. ctx is ignored: the batch runs to completion.
func (h *Hub) ApplyBatch(_ context.Context, b Batch) (ds []Delta, st BatchStats, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.eng.Err(); err != nil {
		return nil, BatchStats{}, err
	}
	defer h.wakeOnLoss()
	defer partition.RecoverSubstrateLoss(&err)
	start := time.Now()
	_, recovered0 := h.Status()
	rpc0 := h.rpcPlaneSnapshot()
	h.obs.Counter("gpnm_hub_batches_total").Inc()

	// One trace per batch: hub phases append to it directly, and the
	// partition substrate's ApplyData phases flow into it through
	// the trace sink. Safe because ApplyBatch is the single writer (h.mu
	// held) and the sink is detached before returning.
	tr := &obs.Trace{Start: start}
	h.eng.SetTraceSink(tr)
	defer h.eng.SetTraceSink(nil)

	// Validate fully before touching anything: the appliers panic on
	// malformed batches, and a panic mid-batch — worse, inside a pooled
	// worker — would leave the hub's substrate half-advanced.
	if err := (updates.Batch{D: b.D}).Check(uint32(h.g.NumIDs()), 0); err != nil {
		return nil, BatchStats{}, fmt.Errorf("hub: %v", err)
	}
	for pid, ups := range b.P {
		r, ok := h.regs[pid]
		if !ok {
			return nil, BatchStats{}, fmt.Errorf("%w: %d", ErrUnknownPattern, pid)
		}
		if err := (updates.Batch{P: ups}).Check(0, uint32(r.p.NumIDs())); err != nil {
			return nil, BatchStats{}, fmt.Errorf("hub: pattern %d: %v", pid, err)
		}
	}

	// Apply ΔGP to a clone of each updated pattern while still
	// single-threaded (pattern.AddNode interns into the label table the
	// data graph and every pattern share), and widen the horizon to what
	// the updated patterns ask for — not to what the batch text says: an
	// insert AddEdge refuses (self-loop, duplicate) changes no bound. The
	// fan's workers read newPs; registrations commit after the fan.
	regs := make([]*registration, len(h.order))
	newPs := make([]*pattern.Graph, len(h.order))
	maxBound := 0
	for i, id := range h.order {
		r := h.regs[id]
		regs[i], newPs[i] = r, r.p
		if ups := b.P[id]; len(ups) > 0 {
			newPs[i] = r.p.Clone()
			updates.ApplyPatternBatch(ups, newPs[i])
			maxBound = max(maxBound, newPs[i].MaxFiniteBound())
		}
	}
	if maxBound > 0 {
		h.eng.EnsureHorizon(maxBound) // rebuilds substrate state: single writer only
	}

	// The substrate phase — the single writer advances the epoch: one
	// structural application, one substrate reconciliation, one change
	// log — regardless of how many patterns are standing.
	slenStart := time.Now()
	changeLog, err := h.eng.ApplyData(b.D, h.g)
	if err != nil {
		return nil, BatchStats{}, err
	}
	slen := time.Since(slenStart)
	h.span(tr, "slen_sync", slenStart)

	// Wake planning — the pattern-set index routes the labels of the
	// change log's nodes, each at its smallest depth, to the registrations
	// carrying them within reach and prunes the fan to that subset. A
	// skipped registration's amendment would provably be the identity
	// (see index.go), so its match, pattern and stats stay put and it gets
	// an empty delta — exactly what running the pass would have produced,
	// minus the work.
	seq := h.seq + 1
	wakeStart := time.Now()
	woken := h.planWake(regs, b, changeLog)
	h.span(tr, "wake_plan", wakeStart)
	wokenIdx := make([]int, 0, len(regs))
	deltas := make([]Delta, len(regs))
	for i, r := range regs {
		deltas[i] = Delta{Pattern: r.id, Seq: seq}
		if woken[i] {
			wokenIdx = append(wokenIdx, i)
		}
	}

	// The fan — one amendment pass per woken registration, seeded by the
	// change log, across the worker pool; every worker reads the frozen
	// post-batch epoch. Workers write
	// into outs/deltas rather than the registrations, and the commit
	// happens only after the whole fan has joined: that makes the fan
	// idempotent, so a shard worker lost mid-amendment is repaired by
	// read failover and the fan simply re-runs against the same
	// pre-commit state.
	// Row-demand plan for the fan: the amendment passes below read the
	// balls of the batch's change log, and their removal cascades
	// recheck the woken patterns' label candidates. On a sharded
	// substrate, fetch those source rows in one bulk RPC per worker now
	// (timed as row_plan) so the fan's stitched ball builds resolve from
	// the warm client row cache. The candidate demand is mostly cached
	// already — the bulk client refetches only rows whose source the
	// batch's op flush reported moved — and whatever the cascade reaches
	// beyond the plan is still fetched row by row, as a first miss.
	if len(wokenIdx) > 0 {
		if h.eng.Remote() {
			var demand nodeset.Builder
			demand.AddAll(changeLog.Nodes)
			wokenPatterns := make([]*pattern.Graph, len(wokenIdx))
			for i, k := range wokenIdx {
				wokenPatterns[i] = regs[k].p
			}
			h.addLabelCandidates(&demand, wokenPatterns...)
			h.eng.PrefetchBallRows(demand.Set()) // spans itself as row_plan via the trace sink
		}
	}

	fanStart := time.Now()
	type patternPass struct {
		match *simulation.Match
		stats core.QueryStats
	}
	outs := make([]patternPass, len(regs))
	h.eng.WithReadFailover(func() {
		workpool.ForEach(len(wokenIdx), func(k int) {
			i := wokenIdx[k]
			r := regs[i]
			passStart := time.Now()
			m, seedPairs := simulation.Amend(r.match, newPs[i], h.g, h.eng, changeLog)
			deltas[i] = Delta{Pattern: r.id, Seq: seq, Nodes: simulation.Delta(r.match, m)}
			outs[i] = patternPass{match: m, stats: core.QueryStats{
				Duration:       time.Since(passStart),
				Passes:         1,
				DataUpdates:    len(b.D),
				PatternUpdates: len(b.P[r.id]),
				SeedNodes:      changeLog.Len(),
				SeedPairs:      seedPairs,
			}}
		})
	})
	h.span(tr, "amend_fan", fanStart)
	for _, i := range wokenIdx {
		r := regs[i]
		r.p, r.match, r.stats = newPs[i], outs[i].match, outs[i].stats
		r.wokenSeq = seq
		if len(b.P[r.id]) > 0 {
			// ΔGP moved the pattern's labels: refile it.
			h.idx.remove(r.id, r.sig)
			r.sig = pattern.SignatureOf(r.p)
			h.idx.add(r.id, r.sig)
		}
	}

	h.seq = seq
	for i, r := range regs {
		r.appendDelta(deltas[i], h.cfg.History)
	}
	_, recovered1 := h.Status()
	rpc1 := h.rpcPlaneSnapshot()
	h.last = BatchStats{
		Seq:            seq,
		DataUpdates:    len(b.D),
		Patterns:       len(regs),
		SLenSync:       slen,
		SLenSyncs:      len(b.D),
		FanOut:         time.Since(fanStart),
		Duration:       time.Since(start),
		Recovered:      int(recovered1 - recovered0),
		Woken:          len(wokenIdx),
		Skipped:        len(regs) - len(wokenIdx),
		IndexBypassed:  h.cfg.disableIndex,
		RPCCalls:       rpc1.calls - rpc0.calls,
		RowsPrefetched: rpc1.prefetched - rpc0.prefetched,
		RowsMissed:     rpc1.missed - rpc0.missed,
	}
	h.obs.Counter("gpnm_hub_woken_total").Add(uint64(h.last.Woken))
	h.obs.Counter("gpnm_hub_skipped_total").Add(uint64(h.last.Skipped))
	h.obs.Gauge("gpnm_hub_seq").Set(int64(seq))
	h.obs.Gauge("gpnm_hub_patterns").Set(int64(len(regs)))
	tr.Seq = seq
	tr.DataUpdates = len(b.D)
	tr.Patterns = len(regs)
	tr.Woken = h.last.Woken
	tr.Skipped = h.last.Skipped
	tr.Recovered = h.last.Recovered
	h.obs.RecordTrace(*tr)
	h.cond.Broadcast()
	return deltas, h.last, nil
}

// packedDelta is one retained delta in the history's storage form: the
// batch sequence plus, per changed pattern node, the run
// `node, nAdded, nRemoved, added…, removed…` in a single []uint32 — one
// allocation per delta where a []NodeDelta with its two sets per node
// costs several times the bytes. The history holds up to
// Config.History of these per registration, which on a many-pattern hub
// is most of the live heap.
type packedDelta struct {
	seq  uint64
	data []uint32
}

func packDelta(d Delta) packedDelta {
	size := 0
	for _, nd := range d.Nodes {
		size += 3 + len(nd.Added) + len(nd.Removed)
	}
	data := make([]uint32, 0, size)
	for _, nd := range d.Nodes {
		data = append(data, nd.Node, uint32(len(nd.Added)), uint32(len(nd.Removed)))
		data = append(data, nd.Added...)
		data = append(data, nd.Removed...)
	}
	return packedDelta{seq: d.Seq, data: data}
}

// unpack rebuilds the subscriber-visible delta of pattern id. Every set
// is freshly allocated: deltas cross the hub boundary twice — returned
// from ApplyBatch and served from the poll history — and the
// defensive-copy contract holds on both: neither copy shares backing
// storage with the other or with hub state.
func (p packedDelta) unpack(id PatternID) Delta {
	d := Delta{Pattern: id, Seq: p.seq}
	for w := p.data; len(w) > 0; {
		added, removed := int(w[1]), int(w[2])
		d.Nodes = append(d.Nodes, simulation.NodeDelta{
			Node:    w[0],
			Added:   append(nodeset.Set(nil), w[3:3+added]...),
			Removed: append(nodeset.Set(nil), w[3+added:3+added+removed]...),
		})
		w = w[3+added+removed:]
	}
	return d
}

// appendDelta records a non-empty delta in the bounded log (packed — the
// original is returned to ApplyBatch's caller). It trims before it
// appends and grows the log by hand — append's growth overshoots any
// bound — so neither the log nor its backing array exceeds history.
func (r *registration) appendDelta(d Delta, history int) {
	if len(d.Nodes) == 0 {
		return // no-change batches are not subscriber events
	}
	if over := len(r.deltas) + 1 - history; over > 0 {
		r.trimmedBelow = r.deltas[over-1].seq
		r.deltas = append(r.deltas[:0], r.deltas[over:]...)
	} else if len(r.deltas) == cap(r.deltas) {
		grown := make([]packedDelta, len(r.deltas), min(2*cap(r.deltas)+1, history))
		copy(grown, r.deltas)
		r.deltas = grown
	}
	r.deltas = append(r.deltas, packDelta(d))
}

// WaitDeltas long-polls pattern id: it blocks until at least one delta
// with Seq > since exists, then returns every retained one in ascending
// Seq order. resync reports that the subscriber is further behind than
// the bounded history reaches (or predates registration) and must fetch
// the full result instead. It unblocks with ctx's error on timeout or
// cancellation, and with ErrUnknownPattern when the query is (or
// becomes) unregistered.
func (h *Hub) WaitDeltas(ctx context.Context, id PatternID, since uint64) (ds []Delta, resync bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop()
	for {
		if err := h.eng.Err(); err != nil {
			// Substrate loss closes every long-poll: there will never be
			// another delta, and the front end needs its handlers back to
			// drain.
			return nil, false, err
		}
		r, ok := h.regs[id]
		if !ok {
			return nil, false, ErrUnknownPattern
		}
		if since < r.trimmedBelow {
			return nil, true, nil
		}
		i := sort.Search(len(r.deltas), func(i int) bool { return r.deltas[i].seq > since })
		if i < len(r.deltas) {
			out := make([]Delta, len(r.deltas)-i)
			for j, d := range r.deltas[i:] {
				out[j] = d.unpack(id)
			}
			return out, false, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		h.cond.Wait()
	}
}

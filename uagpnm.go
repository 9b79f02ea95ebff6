// Package uagpnm is a Go implementation of Updates-Aware Graph Pattern
// based Node Matching (UA-GPNM) — Sun, Liu, Wang, Zhou, ICDE 2020 —
// together with every substrate the paper builds on: a dynamic labelled
// data graph, pattern graphs with bounded path lengths, incremental
// all-pairs shortest-path-length (SLen) maintenance, bounded graph
// simulation matching, elimination-relationship detection (DER-I/II/III),
// the EH-Tree index, the label-based graph partition, and the paper's
// baselines (INC-GPNM, EH-GPNM) for comparison.
//
// # Quick start
//
//	g := uagpnm.NewGraph()
//	alice := g.AddNode("PM")
//	bob := g.AddNode("SE")
//	g.AddEdge(alice, bob)
//
//	p := uagpnm.NewPattern(g)
//	pm := p.AddNode("PM")
//	se := p.AddNode("SE")
//	p.AddEdge(pm, se, 3) // a PM within 3 hops of an SE
//
//	s := uagpnm.NewSession(g, p, uagpnm.Options{}) // UA-GPNM, the default method
//	fmt.Println(s.Result(pm)) // matching data nodes for the PM role
//
//	// Later: process a batch of updates without recomputing.
//	batch := uagpnm.Batch{D: []uagpnm.Update{uagpnm.InsertEdge(bob, alice)}}
//	s.SQuery(batch)
//
// Sessions answer the initial query on construction (the paper's IQuery)
// and process update batches incrementally (SQuery), using the method
// selected in Options. All five methods produce identical results; they
// differ in how much work a batch costs. See README.md for the
// architecture and EXPERIMENTS.md for the reproduction results.
package uagpnm

import (
	"context"
	"io"
	"net/http"
	"time"

	"uagpnm/internal/api"
	"uagpnm/internal/core"
	"uagpnm/internal/datasets"
	"uagpnm/internal/ehtree"
	"uagpnm/internal/graph"
	"uagpnm/internal/hub"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/patgen"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// Graph is a directed data graph with labelled nodes (GD in the paper).
type Graph = graph.Graph

// Pattern is a pattern graph with bounded path lengths (GP).
type Pattern = pattern.Graph

// Bound is a pattern edge's bounded path length: a positive hop count or
// Star.
type Bound = pattern.Bound

// Star is the "*" bound: any finite path length matches.
const Star = pattern.Star

// NodeID identifies a data-graph node.
type NodeID = graph.NodeID

// PatternNodeID identifies a pattern node.
type PatternNodeID = pattern.NodeID

// NodeSet is a sorted set of data-graph node ids.
type NodeSet = nodeset.Set

// Match is a matching result: the simulation image per pattern node.
type Match = simulation.Match

// Update is one update to either graph; Batch is one query's worth.
type (
	Update = updates.Update
	Batch  = updates.Batch
)

// Method selects the query-processing algorithm of a Session.
type Method = core.Method

// The five methods of the paper's evaluation.
const (
	// Scratch recomputes everything per batch (the naive baseline).
	Scratch = core.Scratch
	// INCGPNM is the incremental baseline [13]: one pass per update.
	INCGPNM = core.INCGPNM
	// EHGPNM adds Type II elimination over data updates [14].
	EHGPNM = core.EHGPNM
	// UAGPNMNoPar is UA-GPNM without the label partition (ablation).
	UAGPNMNoPar = core.UAGPNMNoPar
	// UAGPNM is the paper's algorithm as served: one amendment pass per
	// batch on the label-partitioned SLen (its elimination detection is
	// Session.Elimination, an analysis). It is the zero Method.
	UAGPNM = core.UAGPNM
)

// NewGraph returns an empty data graph.
func NewGraph() *Graph { return graph.New(nil) }

// LoadGraph parses a SNAP-style edge list ("from<TAB>to" lines, '#'
// comments); every node receives defaultLabel. Use Graph.ApplyLabels to
// attach a label file afterwards.
func LoadGraph(r io.Reader, defaultLabel string) (*Graph, error) {
	g, _, err := graph.ReadEdgeList(r, nil, defaultLabel)
	return g, err
}

// LoadGraphWithIDs is LoadGraph plus the file-id → graph-id mapping.
// Edge-list node ids are remapped densely in order of first appearance,
// so a label file keyed by the original file ids must be applied through
// the map (Graph.ApplyLabelsMapped) rather than Graph.ApplyLabels.
func LoadGraphWithIDs(r io.Reader, defaultLabel string) (*Graph, map[int64]NodeID, error) {
	return graph.ReadEdgeList(r, nil, defaultLabel)
}

// NewPattern returns an empty pattern sharing g's label table (labels
// must be shared for matching to align).
func NewPattern(g *Graph) *Pattern { return pattern.New(g.Labels()) }

// ParsePattern reads the textual pattern format ("node <name> <label>" /
// "edge <from> <to> <bound>" lines) against g's label table.
func ParsePattern(r io.Reader, g *Graph) (*Pattern, error) {
	return pattern.Parse(r, g.Labels())
}

// Options configures a Session. The SLen substrate fans its work across
// one pool as wide as GOMAXPROCS (with Method UAGPNM: per-partition
// builds, overlay maintenance and batch affected-set computation); set
// GOMAXPROCS=1 for a fully serial run.
type Options struct {
	// Method selects the algorithm. The zero value is UAGPNM, the paper's
	// method; the four baselines (Scratch, INCGPNM, EHGPNM, UAGPNMNoPar)
	// exist for comparison and are selected by name.
	Method Method
	// Horizon caps SLen at this many hops; 0 keeps exact distances
	// (suitable for small graphs and patterns with "*" bounds). It is
	// raised automatically to the pattern's largest finite bound.
	Horizon int
	// Shards, when non-empty, serves the UAGPNM partition engine's
	// per-partition intra SLen state from remote gpnm-shard workers at
	// these host:port addresses; the session process remains the
	// coordinator (bridge overlay, stitching, caches). Empty = fully
	// in-process.
	Shards []string
}

// Session is an evolving GPNM query over one graph and pattern. The
// session owns both after construction; it answers the initial query
// immediately and processes update batches incrementally.
type Session struct {
	inner *core.Session
}

// NewSession builds the SLen substrate for g, runs the initial query of
// p (IQuery), and returns the live session.
func NewSession(g *Graph, p *Pattern, opts Options) *Session {
	return &Session{inner: core.NewSession(g, p, core.Config{
		Method:     opts.Method,
		Horizon:    opts.Horizon,
		ShardAddrs: opts.Shards,
	})}
}

// SQuery processes one update batch and returns the new match. The
// returned match is a defensive deep copy — the caller's to keep,
// mutate or compare, frozen at this query's result no matter how many
// further batches the session processes.
func (s *Session) SQuery(b Batch) *Match { return s.inner.SQuery(b).Clone(s.inner.P) }

// Result returns the node matching result Npi for pattern node u; empty
// unless every pattern node has a match (BGS semantics). The set is
// freshly materialised on every call and never aliases session state —
// callers may sort, slice or overwrite it freely.
func (s *Session) Result(u PatternNodeID) NodeSet { return s.inner.Result(u) }

// Matches returns a defensive deep copy of the full current match (see
// SQuery).
func (s *Session) Matches() *Match { return s.inner.Match.Clone(s.inner.P) }

// Graph returns the session's (evolving) data graph.
func (s *Session) Graph() *Graph { return s.inner.G }

// Pattern returns the session's (evolving) pattern graph.
func (s *Session) Pattern() *Pattern { return s.inner.P }

// Stats reports the work of the last SQuery: amendment passes, seed
// size, SLen synchronisation, duration — and, for EH-GPNM only, the tree
// its passes were grouped by.
func (s *Session) Stats() core.QueryStats { return s.inner.Stats }

// Elimination analyses b against the session's current state without
// advancing it and returns the paper's EH-Tree (Fig. 3): the DER-I/II/III
// elimination relationships among the batch's updates, with Size, Roots
// and EliminatedCount. Call it before the SQuery that processes b. No
// method's SQuery depends on it: UA-GPNM runs one amendment pass whatever
// the tree says.
func (s *Session) Elimination(b Batch) *ehtree.Tree { return s.inner.Elimination(b) }

// Fork returns an independent copy of the session (deep copies of graph,
// pattern, substrate and match).
func (s *Session) Fork() *Session { return &Session{inner: s.inner.Fork()} }

// Close releases the session's substrate shards (remote gpnm-shard
// clients drop their caches and idle connections). Only needed when
// Options.Shards was set; harmless otherwise.
func (s *Session) Close() error { return s.inner.Close() }

// Update constructors — data graph side.

// InsertEdge inserts data edge u→v.
func InsertEdge(u, v NodeID) Update {
	return Update{Kind: updates.DataEdgeInsert, From: u, To: v}
}

// DeleteEdge deletes data edge u→v.
func DeleteEdge(u, v NodeID) Update {
	return Update{Kind: updates.DataEdgeDelete, From: u, To: v}
}

// InsertNode inserts a data node with the given labels. id must be the
// id the graph will assign (Graph.NumIDs() at application time, offset
// by earlier inserts in the same batch).
func InsertNode(id NodeID, labels ...string) Update {
	return Update{Kind: updates.DataNodeInsert, Node: id, Labels: labels}
}

// DeleteNode deletes data node id with its incident edges.
func DeleteNode(id NodeID) Update {
	return Update{Kind: updates.DataNodeDelete, Node: id}
}

// Update constructors — pattern side.

// InsertPatternEdge inserts pattern edge u→v with bound b.
func InsertPatternEdge(u, v PatternNodeID, b Bound) Update {
	return Update{Kind: updates.PatternEdgeInsert, From: u, To: v, Bound: b}
}

// DeletePatternEdge deletes pattern edge u→v.
func DeletePatternEdge(u, v PatternNodeID) Update {
	return Update{Kind: updates.PatternEdgeDelete, From: u, To: v}
}

// InsertPatternNode inserts a pattern node with the given label (id as
// for InsertNode, against the pattern's id sequence).
func InsertPatternNode(id PatternNodeID, label string) Update {
	return Update{Kind: updates.PatternNodeInsert, Node: id, Labels: []string{label}}
}

// DeletePatternNode deletes pattern node id with its incident edges.
func DeletePatternNode(id PatternNodeID) Update {
	return Update{Kind: updates.PatternNodeDelete, Node: id}
}

// GenerateBatch builds a random, replayable update batch consistent with
// g and p: pTotal pattern updates and dTotal data updates balanced
// across the four kinds on each side (the experiment protocol §VII-A).
func GenerateBatch(seed int64, pTotal, dTotal int, g *Graph, p *Pattern) Batch {
	return updates.Generate(updates.Balanced(seed, pTotal, dTotal), g, p)
}

// ApplyDataUpdates applies a batch's data-side updates structurally to
// g — graph mutation only, no substrate maintenance. A driver feeding a
// remote hub through the client SDK uses it to keep a local graph
// mirror consistent for generating the next batch (the hub applies the
// same updates to its own graph inside ApplyBatch).
func ApplyDataUpdates(g *Graph, ds []Update) { updates.ApplyDataStructural(ds, g) }

// SocialGraphConfig parameterises the synthetic social graph generator.
type SocialGraphConfig = datasets.SocialConfig

// GenerateSocialGraph builds a synthetic label-homophilous social graph
// with heavy-tailed degrees — the stand-in for the paper's SNAP datasets.
func GenerateSocialGraph(cfg SocialGraphConfig) *Graph {
	return datasets.GenerateSocial(cfg)
}

// Standing-query serving — one Service interface for local and remote
// hubs.

// Service is the serving surface of a standing-query hub: register
// patterns, apply update batches, read results, subscribe to deltas.
// Two implementations exist and answer identically batch for batch
// (the differential suite pins it):
//
//   - *Hub — the in-process hub: NewHub(g, opts).
//   - *Client — a remote hub over the versioned HTTP/JSON protocol:
//     Dial(addr) against a gpnm-serve process (or any handler from
//     NewHandler).
//
// Every method is context-aware and error-returning. The in-process
// implementation runs synchronously and consults ctx only where it
// blocks (WaitDeltas); the remote one honours ctx on every round trip.
// Operational failure surfaces as errors, never panics: a hub whose
// sharded distance substrate died returns ErrSubstrateLost (check with
// errors.Is) from every method until the process is rebuilt.
type Service interface {
	// Register adds p as a standing query, answers its initial query,
	// and returns its id.
	Register(ctx context.Context, p *Pattern) (PatternID, error)
	// Unregister removes a standing query (ErrUnknownPattern if absent).
	Unregister(ctx context.Context, id PatternID) error
	// ApplyBatch processes one update batch for every standing query,
	// returning one delta per pattern in registration order plus the
	// batch's shared-work stats.
	ApplyBatch(ctx context.Context, b HubBatch) ([]HubDelta, HubBatchStats, error)
	// Result returns the node matching result Npi for pattern node u of
	// standing query id (empty unless the match is total).
	Result(ctx context.Context, id PatternID, u PatternNodeID) (NodeSet, error)
	// Snapshot returns a mutually consistent (pattern, match, sequence)
	// view of one standing query.
	Snapshot(ctx context.Context, id PatternID) (*Pattern, *Match, uint64, error)
	// WaitDeltas long-polls for deltas with Seq > since; resync reports
	// the subscriber fell behind the retained history.
	WaitDeltas(ctx context.Context, id PatternID, since uint64) (ds []HubDelta, resync bool, err error)
	// Close releases the service's resources (remote connections,
	// substrate shards). The service is unusable afterwards.
	Close() error
}

// ErrSubstrateLost reports that a hub's sharded distance substrate
// died (a gpnm-shard worker became unreachable or diverged) beyond
// repair — failover found no surviving or spare worker, or the
// configured retry budget was spent: results can no longer be trusted,
// every Service call fails with this error, and the serving process
// should drain and rebuild. Detect it with errors.Is; the causing
// shard transport error stays wrapped inside.
var ErrSubstrateLost = shard.ErrSubstrateLost

// PatternID identifies a pattern registered with a Hub.
type PatternID = hub.PatternID

// HubBatch is one epoch's worth of updates for a whole Hub: a shared
// data-side sequence plus optional per-pattern ΔGP sequences.
type HubBatch = hub.Batch

// HubDelta is the change of one registered pattern's result after one
// batch: Added/Removed per pattern node, tagged with the hub sequence
// number (see Hub.ApplyBatch and Hub.WaitDeltas).
type HubDelta = hub.Delta

// NodeDelta is one pattern node's Added/Removed sets within a HubDelta.
type NodeDelta = simulation.NodeDelta

// HubBatchStats records the shared (once-per-batch) work of the last
// Hub.ApplyBatch — the SLen synchronisation n independent sessions
// would each repeat.
type HubBatchStats = hub.BatchStats

// ErrUnknownPattern reports a Hub pattern id that is not (or no longer)
// registered.
var ErrUnknownPattern = hub.ErrUnknownPattern

// Telemetry — the observability plane of internal/obs, re-exported so
// embedders can read the metrics a hub or sharded substrate reports.
// See README.md's Observability section.

// MetricsRegistry is a zero-dependency metrics registry: atomic
// counters, gauges, fixed-bucket latency histograms, and a bounded ring
// of per-batch phase traces. Serve one over HTTP (it implements
// http.Handler with the Prometheus text exposition) or read it
// programmatically.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry, for callers that want a
// hub's telemetry isolated from the process-global default.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// BatchTrace is the phase breakdown of one hub batch: every
// instrumented span the batch crossed (substrate phases, recovery
// spans, hub phases), in completion order.
type BatchTrace = obs.Trace

// TraceSpan is one timed phase inside a BatchTrace.
type TraceSpan = obs.Span

// HubOptions configures a Hub: Horizon, Shards, SpareShards, History
// and Metrics (see internal/hub's Config for each). The shared
// substrate is the label-partitioned engine and every registered
// pattern is processed with the fused UA-GPNM pipeline; there is no
// method to choose. The substrate and the per-pattern fan share one
// pool as wide as GOMAXPROCS.
type HubOptions = hub.Config

// Hub hosts many registered patterns as standing queries over one data
// graph and one shared SLen substrate: each update batch pays the
// substrate synchronisation once, then amends every pattern's result in
// parallel. Unlike Session, a Hub is safe for concurrent use; it is the
// in-process Service implementation (Dial returns the remote one). See
// internal/hub for the phase/epoch discipline.
//
// Hub methods run synchronously under the hub's internal locking and do
// not abort mid-batch on context cancellation (a half-applied batch
// would corrupt the substrate); ctx is consulted where the hub blocks —
// WaitDeltas — matching the Service contract.
type Hub struct {
	inner *hub.Hub
}

var _ Service = (*Hub)(nil)

// NewHub builds the shared substrate for g and returns an empty hub.
// The hub owns g afterwards. With HubOptions.Shards set the build talks
// to remote workers and can fail with ErrSubstrateLost; an in-process
// build never errors.
func NewHub(g *Graph, opts HubOptions) (*Hub, error) {
	inner, err := hub.New(g, opts)
	if err != nil {
		return nil, err
	}
	return &Hub{inner: inner}, nil
}

// Register adds p as a standing query, answers its initial query, and
// returns its id. The hub owns p afterwards. Build p before using the
// hub concurrently (its construction interns labels into the shared
// table); front ends registering patterns while batches fly should use
// RegisterScript, which parses under the hub's lock.
func (h *Hub) Register(ctx context.Context, p *Pattern) (PatternID, error) {
	return h.inner.Register(p)
}

// RegisterScript parses a pattern in the textual format against the hub
// graph's label table — atomically with respect to concurrent batches —
// and registers it.
func (h *Hub) RegisterScript(r io.Reader) (PatternID, error) { return h.inner.RegisterScript(r) }

// Unregister removes a standing query; ErrUnknownPattern if id is not
// (or no longer) registered, ErrSubstrateLost on a poisoned hub.
func (h *Hub) Unregister(ctx context.Context, id PatternID) error {
	return h.inner.Unregister(id)
}

// Patterns lists the registered ids in registration order.
func (h *Hub) Patterns() []PatternID { return h.inner.Patterns() }

// ApplyBatch processes one update batch for every standing query — the
// shared SLen work once, the per-pattern amendments fanned in parallel —
// and returns one delta per pattern in registration order, plus this
// batch's own shared-work stats (use these rather than LastBatch when
// other goroutines may be applying batches concurrently).
func (h *Hub) ApplyBatch(ctx context.Context, b HubBatch) ([]HubDelta, HubBatchStats, error) {
	return h.inner.ApplyBatch(b)
}

// Result returns the node matching result Npi of pattern node u within
// standing query id (freshly materialised; empty unless the pattern's
// match is total). ErrUnknownPattern if id is not registered.
func (h *Hub) Result(ctx context.Context, id PatternID, u PatternNodeID) (NodeSet, error) {
	return h.inner.Result(id, u)
}

// Match returns a defensive deep copy of standing query id's current
// match.
func (h *Hub) Match(id PatternID) (*Match, bool) { return h.inner.Match(id) }

// PatternGraph returns a defensive clone of standing query id's current
// pattern graph.
func (h *Hub) PatternGraph(id PatternID) (*Pattern, bool) { return h.inner.PatternGraph(id) }

// Snapshot returns a mutually consistent (pattern, match, sequence)
// view of one standing query, taken under a single hub lock
// acquisition; both graphs are defensive clones. ErrUnknownPattern if
// id is not registered.
func (h *Hub) Snapshot(ctx context.Context, id PatternID) (*Pattern, *Match, uint64, error) {
	return h.inner.Snapshot(id)
}

// GraphStats summarises the hub's data graph race-free (Graph() itself
// must not be read concurrently with ApplyBatch).
func (h *Hub) GraphStats() graph.Stats { return h.inner.GraphStats() }

// Seq returns the hub's batch sequence number (0 before any batch).
func (h *Hub) Seq() uint64 { return h.inner.Seq() }

// Graph returns the hub's (evolving) data graph; treat it as read-only
// while the hub is live.
func (h *Hub) Graph() *Graph { return h.inner.Graph() }

// LastBatch reports the shared work of the most recent ApplyBatch.
func (h *Hub) LastBatch() HubBatchStats { return h.inner.LastBatch() }

// Close releases the hub's substrate shards (remote gpnm-shard clients
// drop their caches and idle connections). Call once the hub is done
// serving.
func (h *Hub) Close() error { return h.inner.Close() }

// Err reports the hub's sticky ErrSubstrateLost (nil while healthy) —
// what a serving process checks after its drain to decide whether to
// exit for a supervisor restart.
func (h *Hub) Err() error { return h.inner.Err() }

// Status reports the sharded substrate's failover state without
// blocking on in-flight batches: recovering is true while a lost shard
// worker's partitions are being rebuilt on survivors or spares
// (degraded, not dead), recovered counts the losses absorbed over the
// hub's lifetime. Both are zero for in-process substrates.
func (h *Hub) Status() (recovering bool, recovered uint64) { return h.inner.Status() }

// Stats reports the per-pattern pass statistics of id's last amendment
// (false for an unknown id, and on a poisoned hub — check Err).
func (h *Hub) Stats(id PatternID) (core.QueryStats, bool) {
	st, err := h.inner.PatternStats(id)
	return st, err == nil
}

// Metrics returns the hub's telemetry registry (HubOptions.Metrics, or
// the process-global default): phase histograms, wake counters, and —
// for sharded substrates — per-endpoint RPC latency and byte counters.
func (h *Hub) Metrics() *MetricsRegistry { return h.inner.Metrics() }

// LastTrace returns the phase trace of the most recent batch (ok=false
// before the first batch): one TraceSpan per instrumented phase the
// batch crossed, in completion order.
func (h *Hub) LastTrace() (BatchTrace, bool) { return h.inner.Metrics().LastTrace() }

// WaitDeltas long-polls standing query id for deltas with Seq > since:
// it blocks until one exists (returning all retained ones in order),
// ctx expires, or the pattern is unregistered. resync = true means the
// subscriber is further behind than the delta history reaches and must
// refetch the full result.
func (h *Hub) WaitDeltas(ctx context.Context, id PatternID, since uint64) (ds []HubDelta, resync bool, err error) {
	return h.inner.WaitDeltas(ctx, id, since)
}

// Remote client — the Service implementation over the wire.

// Client is a remote hub: the same Service surface as *Hub over the
// versioned HTTP/JSON protocol (see internal/api's Client for its
// differences from *Hub). Safe for concurrent use.
type Client = api.Client

var _ Service = (*Client)(nil)

// Dial connects to the hub server at addr ("host:port" or a full
// http:// URL), verifying it is alive and healthy. A server that has
// lost its substrate refuses the dial.
func Dial(addr string) (*Client, error) {
	return api.Dial(context.Background(), addr)
}

// DialContext is Dial under a caller-controlled context.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	return api.Dial(ctx, addr)
}

// HandlerOptions parameterises NewHandler.
type HandlerOptions struct {
	// PollTimeout caps the delta long-poll wait (0 = 30s).
	PollTimeout time.Duration
	// OnSubstrateLoss, when set, is called exactly once the first time
	// the hub reports ErrSubstrateLost — the hook a server uses to start
	// draining (gpnm-serve wires it to its graceful-shutdown path).
	OnSubstrateLoss func(error)
}

// NewHandler mounts h behind the versioned HTTP/JSON protocol —
// exactly what gpnm-serve serves and Dial speaks — so any program can
// embed a hub server in its own mux. See README.md for the /v1
// endpoint table.
func NewHandler(h *Hub, opts HandlerOptions) http.Handler {
	return api.NewServer(h.inner, api.ServerConfig{
		PollTimeout:     opts.PollTimeout,
		OnSubstrateLoss: opts.OnSubstrateLoss,
	}).Routes()
}

// PatternConfig parameterises random pattern generation.
type PatternConfig = patgen.Config

// GeneratePattern builds a random weakly-connected pattern whose labels
// come from g (the socnetv stand-in of §VII-A).
func GeneratePattern(cfg PatternConfig, g *Graph) *Pattern {
	if len(cfg.Labels) == 0 {
		cfg.Labels = patgen.LabelsOf(g)
	}
	return patgen.Generate(cfg, g.Labels())
}

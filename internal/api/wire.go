// Package api is the versioned HTTP/JSON serving surface of the
// standing-query hub: one set of wire types and error codes shared by
// the server (mounted by cmd/gpnm-serve) and the client (behind
// uagpnm.Dial), so the two sides can never drift apart the way the
// old hand-rolled handler structs could.
//
// Routes live under /v1/ (see Server.Routes for the endpoint table).
// Errors are rendered as
//
//	{"error": "<human message>", "code": "<machine code>"}
//
// — the client maps "code" back onto sentinel errors
// (ErrUnknownPattern, ErrSubstrateLost) with errors.Is.
package api

import (
	"fmt"
	"time"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/hub"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// Machine-readable error codes carried in ErrorBody.Code.
const (
	// CodeBadRequest: malformed JSON, ids, query parameters.
	CodeBadRequest = "bad_request"
	// CodeBadPattern: a pattern that does not parse or is empty.
	CodeBadPattern = "bad_pattern"
	// CodeBadBatch: a structurally invalid update batch (wrong-side
	// updates, mispredicted node-insert ids, bad scripts).
	CodeBadBatch = "bad_batch"
	// CodeUnknownPattern: the pattern id is not (or no longer) registered.
	CodeUnknownPattern = "unknown_pattern"
	// CodeSubstrateLost: the hub lost part of its distance substrate
	// (a shard worker died) beyond repair; the process is draining and
	// every further request will fail the same way.
	CodeSubstrateLost = "substrate_lost"
)

// ErrorBody is the uniform error envelope of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// HealthBody answers GET /v1/healthz.
type HealthBody struct {
	OK   bool   `json:"ok"`
	Lost string `json:"lost,omitempty"` // substrate-loss message when poisoned
	// Recovering marks the degraded-not-dead state: a shard failover is
	// in flight and the detailed stats below are omitted (they would
	// block on the batch absorbing the loss). Recovered counts the
	// shard losses absorbed over the process lifetime.
	Recovering bool   `json:"recovering,omitempty"`
	Recovered  uint64 `json:"recovered,omitempty"`
	Seq        uint64 `json:"seq"`
	Patterns   int    `json:"patterns"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Labels     int    `json:"labels"`
	// Version/Commit identify the serving build (ldflags-stamped, or the
	// module's VCS stamp); UptimeSeconds the time since the front end
	// started. Omitted on the recovering fast path.
	Version       string  `json:"version,omitempty"`
	Commit        string  `json:"commit,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	// LastBatch carries the phase timings of the most recent ApplyBatch
	// (absent before the first batch), so a scrape of /v1/healthz alone
	// answers "what did the last batch cost".
	LastBatch *BatchStatsBody `json:"last_batch,omitempty"`
}

// RegisterRequest registers a standing pattern: either the textual DSL
// ("node <name> <label>" / "edge <from> <to> <bound>" lines) in
// Pattern, or the typed Graph body (which survives duplicate display
// names and non-dense id spaces the DSL cannot express). Exactly one
// must be set.
type RegisterRequest struct {
	Pattern string       `json:"pattern,omitempty"`
	Graph   *PatternBody `json:"graph,omitempty"`
}

// PatternBody is the typed wire form of a pattern graph. Node ids are
// explicit so an evolved pattern (with tombstoned ids after ΔGP node
// deletes) round-trips with the id space intact — deltas and results
// are keyed by these ids.
type PatternBody struct {
	NumIDs int           `json:"num_ids"`
	Nodes  []PatternNode `json:"nodes"`
	Edges  []PatternEdge `json:"edges,omitempty"`
}

// PatternNode is one alive pattern node.
type PatternNode struct {
	ID    uint32 `json:"id"`
	Name  string `json:"name"`
	Label string `json:"label"`
}

// PatternEdge is one pattern edge; Bound is a positive integer or "*".
type PatternEdge struct {
	From  uint32 `json:"from"`
	To    uint32 `json:"to"`
	Bound string `json:"bound"`
}

// EncodePattern captures p as its typed wire form.
func EncodePattern(p *pattern.Graph) PatternBody {
	b := PatternBody{NumIDs: p.NumIDs(), Nodes: []PatternNode{}}
	p.Nodes(func(u pattern.NodeID) {
		b.Nodes = append(b.Nodes, PatternNode{ID: u, Name: p.Name(u), Label: p.LabelName(u)})
	})
	p.Edges(func(e pattern.Edge) {
		b.Edges = append(b.Edges, PatternEdge{From: e.From, To: e.To, Bound: e.B.String()})
	})
	return b
}

// Materialise rebuilds the pattern against the given label table,
// reproducing the exact id space: ids absent from Nodes but below
// NumIDs are created and tombstoned so edge/delta ids keep meaning.
func (b PatternBody) Materialise(labels *graph.Labels) (*pattern.Graph, error) {
	if b.NumIDs < 0 || b.NumIDs > 1<<20 {
		return nil, fmt.Errorf("pattern body: implausible num_ids %d", b.NumIDs)
	}
	byID := make(map[uint32]PatternNode, len(b.Nodes))
	for _, n := range b.Nodes {
		if int(n.ID) >= b.NumIDs {
			return nil, fmt.Errorf("pattern body: node id %d beyond num_ids %d", n.ID, b.NumIDs)
		}
		if _, dup := byID[n.ID]; dup {
			return nil, fmt.Errorf("pattern body: duplicate node id %d", n.ID)
		}
		byID[n.ID] = n
	}
	// Tombstoned ids get a placeholder carrying an existing label (the
	// first node's), so materialising never interns labels the pattern
	// does not use. A fully-tombstoned pattern (every node deleted by
	// ΔGP — legal, and what the hub then holds) has no label to borrow;
	// its placeholders intern one sentinel name so Snapshot round-trips
	// it instead of erroring (registering such a body is still rejected,
	// by the hub's empty-pattern check).
	fillLabel := "__dead"
	if len(b.Nodes) > 0 {
		fillLabel = b.Nodes[0].Label
	}
	p := pattern.New(labels)
	var dead []uint32
	for id := uint32(0); int(id) < b.NumIDs; id++ {
		n, ok := byID[id]
		if !ok {
			n = PatternNode{ID: id, Name: fmt.Sprintf("__dead_%d", id), Label: fillLabel}
			dead = append(dead, id)
		}
		if got := p.AddNamedNode(n.Name, n.Label); got != id {
			return nil, fmt.Errorf("pattern body: id assignment diverged at %d", id)
		}
	}
	for _, d := range dead {
		p.RemoveNode(d)
	}
	for _, e := range b.Edges {
		bound, err := pattern.ParseBound(e.Bound)
		if err != nil {
			return nil, fmt.Errorf("pattern body: edge %d->%d: %v", e.From, e.To, err)
		}
		if !p.Alive(e.From) || !p.Alive(e.To) {
			return nil, fmt.Errorf("pattern body: edge %d->%d references a missing node", e.From, e.To)
		}
		if !p.AddEdge(e.From, e.To, bound) {
			return nil, fmt.Errorf("pattern body: edge %d->%d rejected (duplicate or self loop)", e.From, e.To)
		}
	}
	return p, nil
}

// Update is the typed wire form of one update: updates.Raw with JSON
// tags, so op is a mnemonic of the update grammar (+e -e +n -n on the
// data side, +pe -pe +pn -pn on the pattern side) and the operands are
// the ones the script spells.
type Update struct {
	Op     string   `json:"op"`
	From   uint32   `json:"from,omitempty"`
	To     uint32   `json:"to,omitempty"`
	Node   uint32   `json:"node,omitempty"`
	Labels []string `json:"labels,omitempty"`
	Bound  string   `json:"bound,omitempty"` // pattern edge insert only: positive integer or "*"
}

// EncodeUpdate converts one update to its wire form.
func EncodeUpdate(u updates.Update) Update { return Update(u.Raw()) }

// EncodeUpdates converts a whole sequence.
func EncodeUpdates(us []updates.Update) []Update {
	if len(us) == 0 {
		return nil
	}
	out := make([]Update, len(us))
	for i, u := range us {
		out[i] = EncodeUpdate(u)
	}
	return out
}

// Decode converts the wire form back to an update under the grammar's
// per-kind rules (updates.Raw.Build).
func (w Update) Decode() (updates.Update, error) { return updates.Raw(w).Build() }

// DecodeUpdates converts a whole wire sequence.
func DecodeUpdates(ws []Update) ([]updates.Update, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	out := make([]updates.Update, len(ws))
	for i, w := range ws {
		u, err := w.Decode()
		if err != nil {
			return nil, fmt.Errorf("update %d: %v", i, err)
		}
		out[i] = u
	}
	return out, nil
}

// ApplyRequest is POST /v1/apply: one epoch's worth of typed updates —
// a shared data-side sequence plus per-pattern ΔGP sequences keyed by
// decimal pattern id (JSON object keys are strings).
type ApplyRequest struct {
	Updates  []Update            `json:"updates,omitempty"`
	Patterns map[string][]Update `json:"patterns,omitempty"`
}

// BatchStatsBody mirrors hub.BatchStats over the wire.
type BatchStatsBody struct {
	Seq            uint64  `json:"seq"`
	DataUpdates    int     `json:"data_updates"`
	Patterns       int     `json:"patterns"`
	SLenSyncMillis float64 `json:"slen_sync_millis"`
	SLenSyncs      int     `json:"slen_syncs"`
	FanOutMillis   float64 `json:"fan_out_millis"`
	DurationMillis float64 `json:"duration_millis"`
	// Recovered counts the shard losses this batch absorbed through
	// failover (0 on every healthy batch).
	Recovered int `json:"recovered,omitempty"`
	// Woken/Skipped partition the registrations by the pattern-set
	// index's wake decision (Woken + Skipped == Patterns);
	// IndexBypassed flags batches whose decision did not come from the
	// index (never set by a served hub).
	Woken         int  `json:"woken"`
	Skipped       int  `json:"skipped"`
	IndexBypassed bool `json:"index_bypassed,omitempty"`
	// Sharded read-plane traffic of this batch (all zero in-process):
	// RPCs issued, rows bulk-installed, rows fetched one at a time.
	RPCCalls       uint64 `json:"rpc_calls,omitempty"`
	RowsPrefetched uint64 `json:"rows_prefetched,omitempty"`
	RowsMissed     uint64 `json:"rows_missed,omitempty"`
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// EncodeBatchStats converts hub batch stats to the wire form.
func EncodeBatchStats(st hub.BatchStats) BatchStatsBody {
	return BatchStatsBody{
		Seq:            st.Seq,
		DataUpdates:    st.DataUpdates,
		Patterns:       st.Patterns,
		SLenSyncMillis: millis(st.SLenSync),
		SLenSyncs:      st.SLenSyncs,
		FanOutMillis:   millis(st.FanOut),
		DurationMillis: millis(st.Duration),
		Recovered:      st.Recovered,
		Woken:          st.Woken,
		Skipped:        st.Skipped,
		IndexBypassed:  st.IndexBypassed,
		RPCCalls:       st.RPCCalls,
		RowsPrefetched: st.RowsPrefetched,
		RowsMissed:     st.RowsMissed,
	}
}

// Decode converts the wire stats back to hub.BatchStats.
func (b BatchStatsBody) Decode() hub.BatchStats {
	return hub.BatchStats{
		Seq:            b.Seq,
		DataUpdates:    b.DataUpdates,
		Patterns:       b.Patterns,
		SLenSync:       time.Duration(b.SLenSyncMillis * float64(time.Millisecond)),
		SLenSyncs:      b.SLenSyncs,
		FanOut:         time.Duration(b.FanOutMillis * float64(time.Millisecond)),
		Duration:       time.Duration(b.DurationMillis * float64(time.Millisecond)),
		Recovered:      b.Recovered,
		Woken:          b.Woken,
		Skipped:        b.Skipped,
		IndexBypassed:  b.IndexBypassed,
		RPCCalls:       b.RPCCalls,
		RowsPrefetched: b.RowsPrefetched,
		RowsMissed:     b.RowsMissed,
	}
}

// ApplyResponse answers POST /v1/apply.
type ApplyResponse struct {
	Seq    uint64         `json:"seq"`
	Deltas []DeltaBody    `json:"deltas"`
	Stats  BatchStatsBody `json:"stats"`
}

// DeltaBody is one pattern's result change after one batch.
type DeltaBody struct {
	Pattern uint64      `json:"pattern"`
	Seq     uint64      `json:"seq"`
	Nodes   []DeltaNode `json:"nodes"`
}

// DeltaNode is one pattern node's Added/Removed sets.
type DeltaNode struct {
	Node    uint32   `json:"node"`
	Added   []uint32 `json:"added"`
	Removed []uint32 `json:"removed"`
}

// setSlice renders a node set as a non-null JSON array.
func setSlice(s nodeset.Set) []uint32 {
	if len(s) == 0 {
		return []uint32{}
	}
	return s
}

// EncodeDelta converts one hub delta to the wire form.
func EncodeDelta(d hub.Delta) DeltaBody {
	body := DeltaBody{Pattern: uint64(d.Pattern), Seq: d.Seq, Nodes: []DeltaNode{}}
	for _, nd := range d.Nodes {
		body.Nodes = append(body.Nodes, DeltaNode{
			Node:    nd.Node,
			Added:   setSlice(nd.Added),
			Removed: setSlice(nd.Removed),
		})
	}
	return body
}

// Decode converts the wire delta back to a hub delta.
func (b DeltaBody) Decode() hub.Delta {
	d := hub.Delta{Pattern: hub.PatternID(b.Pattern), Seq: b.Seq}
	for _, nd := range b.Nodes {
		d.Nodes = append(d.Nodes, simulation.NodeDelta{
			Node:    nd.Node,
			Added:   nodeset.Set(nd.Added),
			Removed: nodeset.Set(nd.Removed),
		})
	}
	return d
}

// ResultBody answers the register and result endpoints: one standing
// query's current (BGS-projected) result.
type ResultBody struct {
	ID    uint64       `json:"id"`
	Seq   uint64       `json:"seq"`
	Total bool         `json:"total"`
	Nodes []ResultNode `json:"nodes"`
}

// ResultNode is one pattern node's projected matches.
type ResultNode struct {
	Node    uint32   `json:"node"`
	Name    string   `json:"name"`
	Label   string   `json:"label"`
	Matches []uint32 `json:"matches"`
}

// SnapshotBody answers GET /v1/patterns/{id}/snapshot: a mutually
// consistent (pattern, raw simulation images, seq) view from which the
// client reconstructs a full local Match — Sim carries SimulationSet
// (pre-BGS projection), so non-total matches survive the round trip.
type SnapshotBody struct {
	ID      uint64         `json:"id"`
	Seq     uint64         `json:"seq"`
	Total   bool           `json:"total"`
	Pattern PatternBody    `json:"pattern"`
	Nodes   []SnapshotNode `json:"nodes"`
}

// SnapshotNode is one pattern node's raw simulation image.
type SnapshotNode struct {
	Node uint32   `json:"node"`
	Sim  []uint32 `json:"sim"`
}

// DeltasResponse answers the delta long-poll.
type DeltasResponse struct {
	Seq    uint64      `json:"seq"`    // highest seq in Deltas, or the polled-from seq
	Resync bool        `json:"resync"` // subscriber fell behind the history: refetch the result
	Deltas []DeltaBody `json:"deltas"`
}

// UnregisterResponse answers DELETE /v1/patterns/{id}.
type UnregisterResponse struct {
	OK bool `json:"ok"`
}

// TracesResponse answers GET /v1/trace: the retained per-batch phase
// traces, oldest first. obs.Trace is its own wire form — json-tagged
// plain data, built by the batch's single writer — so the response
// carries it directly instead of a parallel body type.
type TracesResponse struct {
	Traces []obs.Trace `json:"traces"`
}

// QueryStatsBody answers GET /v1/patterns/{id}/stats: the per-pattern
// pass statistics of one standing query's last amendment (all zero
// before the first batch after registration).
type QueryStatsBody struct {
	ID             uint64  `json:"id"`
	DurationMillis float64 `json:"duration_millis"`
	Passes         int     `json:"passes"`
	DataUpdates    int     `json:"data_updates"`
	PatternUpdates int     `json:"pattern_updates"`
	SeedNodes      int     `json:"seed_nodes"` // |change log|: the sources whose forward row the batch moved
	SeedPairs      int     `json:"seed_pairs"` // (pattern node u, log member x) pairs seeded: x of u's label, δ(x) ≤ maxOut(u)
	SLenSyncMillis float64 `json:"slen_sync_millis"`
	SLenSyncs      int     `json:"slen_syncs"`
}

// EncodeQueryStats converts one pattern's pass stats to the wire form.
func EncodeQueryStats(id hub.PatternID, st core.QueryStats) QueryStatsBody {
	return QueryStatsBody{
		ID:             uint64(id),
		DurationMillis: millis(st.Duration),
		Passes:         st.Passes,
		DataUpdates:    st.DataUpdates,
		PatternUpdates: st.PatternUpdates,
		SeedNodes:      st.SeedNodes,
		SeedPairs:      st.SeedPairs,
		SLenSyncMillis: millis(st.SLenSync),
		SLenSyncs:      st.SLenSyncs,
	}
}

// Decode converts the wire stats back to core.QueryStats.
func (b QueryStatsBody) Decode() core.QueryStats {
	return core.QueryStats{
		Duration:       time.Duration(b.DurationMillis * float64(time.Millisecond)),
		Passes:         b.Passes,
		DataUpdates:    b.DataUpdates,
		PatternUpdates: b.PatternUpdates,
		SeedNodes:      b.SeedNodes,
		SeedPairs:      b.SeedPairs,
		SLenSync:       time.Duration(b.SLenSyncMillis * float64(time.Millisecond)),
		SLenSyncs:      b.SLenSyncs,
	}
}

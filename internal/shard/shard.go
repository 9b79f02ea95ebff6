// Package shard defines the seam the §V partition engine is served
// through: a Shard owns a subset of the partitions — each one's induced
// subgraph and the intra-partition SLen engine over it, the
// superlinear part of the substrate — while the coordinator
// (internal/partition.Engine) keeps the partition bookkeeping, the
// bridge overlay, the stitched-row caches and the data graph itself,
// and computes every affected ball from that graph.
// Only a coordinator of the §V shape has shards at all; a ball-plane
// engine (no fleet, no stitched queries) reads its rows off the data
// graph and never comes here.
//
// Two implementations exist:
//
//   - Local owns its partitions: it builds each subgraph from the
//     coordinator's Snapshot, applies every op it owns to that subgraph
//     and then to the engine. It is the in-process §V plane
//     (partition.WithStitchedQueries), and the whole state of every
//     worker.
//   - RPC fronts a shard worker process (cmd/gpnm-shard) over HTTP;
//     Server is the worker side: a Local behind the HTTP surface, a
//     lock and the op stream's epoch fence. Requests are JSON; the bulk
//     answers (rows, per-op affected sets) are little-endian word
//     streams (wire.go).
//
// Both are eager: Build leaves an engine for every owned partition and
// every op advances it. Both serve reads as Rows — one layered,
// immutable value from the worker's matrix scan to the coordinator's
// reader (row.go) — and the RPC client keeps the rows it has fetched
// until an op flush reports, through the engines' exact affected sets,
// that their source moved. The one fill left to a first reader is the
// coordinator's own rowTable.
//
// Contract: the coordinator mutates its own structures first (data
// graph, partition bookkeeping) and then hands a batch's mutations to
// every shard as one ordered, epoch-fenced op log; each shard applies
// the ops it owns to its partition subgraph and synchronises the intra
// engine, returning the partition-local affected sets. Reads (Ball, Rows) are
// safe for any number of concurrent goroutines between mutations —
// the read-epoch discipline documented on partition.Engine extends
// through this interface.
package shard

import (
	"errors"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
)

// ErrSubstrateLost marks the distance substrate as unrecoverable: a
// shard holding part of the intra SLen state failed (transport death,
// state divergence) and the coordinator could not repair the loss —
// no surviving or spare worker was left to absorb the dead shard's
// partitions, or the recovery budget was exhausted. The partition
// engine wraps the terminal failure in this sentinel and poisons
// itself; coordinators (hub, Service front ends) surface it with
// errors.Is and drain. Before that terminal point, losses are handled
// by failover: the coordinator's data graph already holds everything a
// replacement needs, so lost partitions are rebuilt on survivors
// (Rebuild) or freshly claimed spares (Build) from their induced
// subgraphs and the in-flight op stream is replayed under the
// Config.Epoch fence.
var ErrSubstrateLost = errors.New("substrate lost")

// Config carries the engine parameters every shard needs to build and
// maintain its intra engines.
type Config struct {
	Horizon int `json:"horizon"` // SLen hop cap (0 = exact)

	// Epoch is the op-stream fence shipped with a (re)build: the state
	// the coordinator snapshots already reflects every op flush up to
	// and including this epoch, so a replayed ApplyOps with the same
	// epoch must return empty affected sets instead of re-applying —
	// that is how a spare promoted mid-batch, built from the post-batch
	// data graph, survives the batch's retry without double-application.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Edge is a directed edge in a (local- or global-id) node space.
type Edge struct {
	From uint32 `json:"f"`
	To   uint32 `json:"t"`
}

// Snapshot serialises one partition's induced subgraph for shard
// builds. Node ids are implicit: every id < NumIDs exists, ids
// listed in Dead are tombstoned. Labels are not carried; intra SLen is
// label-blind.
type Snapshot struct {
	Part   int      `json:"part"` // partition index
	NumIDs int      `json:"num_ids"`
	Dead   []uint32 `json:"dead,omitempty"`
	Edges  []Edge   `json:"edges,omitempty"`
}

// Materialise rebuilds the snapshot as a fresh graph (label-less).
func (s Snapshot) Materialise() *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < s.NumIDs; i++ {
		g.AddNodeLabelIDs()
	}
	for _, d := range s.Dead {
		g.RemoveNode(d)
	}
	for _, e := range s.Edges {
		g.AddEdge(e.From, e.To)
	}
	return g
}

// Source lets a shard pull its partitions' subgraphs at build time: an
// in-process shard materialises what Source hands out, a remote one
// serialises it to its worker.
type Source interface {
	// PartSnapshot captures partition i's induced subgraph.
	PartSnapshot(i int) Snapshot
}

// OpKind enumerates the mutations a coordinator streams to its shards.
type OpKind int

// The four structural op kinds, mirroring the data-update kinds.
const (
	OpEdgeInsert OpKind = iota
	OpEdgeDelete
	OpNodeInsert
	OpNodeDelete
)

// Op is one structural mutation, already applied to the coordinator's
// own structures. Global ids (From/To/Node) name it in the data graph;
// Part/Shard plus the local-id fields drive the owning shard's
// intra-engine synchronisation, and a shard skips every op it does not
// own. Part < 0 marks a cross-partition edge, which no intra engine
// sees.
type Op struct {
	Kind OpKind `json:"k"`

	// Global-id view (the coordinator's data graph).
	From uint32 `json:"u,omitempty"`
	To   uint32 `json:"v,omitempty"`
	Node uint32 `json:"n,omitempty"`

	// Partition-local view (intra-engine maintenance).
	Part  int    `json:"p"` // owning partition (-1: cross-partition edge)
	Shard int    `json:"s"` // owning shard index (-1: cross-partition edge)
	LFrom uint32 `json:"lu,omitempty"`
	LTo   uint32 `json:"lv,omitempty"`
	Local uint32 `json:"ln,omitempty"`
}

// AffectedReq is pinned by the frozen benchmark module, ROADMAP 1 (h).
type AffectedReq struct{}

// RowReq names one full-horizon intra row: the (partition, local
// source, direction) triple the stitched read path keys everything by.
// The coordinator's row-demand planner batches these so a whole phase's
// row traffic crosses the wire as one bulk call per shard instead of
// one RPC per row.
type RowReq struct {
	Part    int    `json:"p"`
	Src     uint32 `json:"s"`
	Reverse bool   `json:"r,omitempty"`

	// Have marks a warm request whose row the client already holds, so
	// the worker may answer one word when the flush did not move it.
	// Only RPC.ApplyOps sets it, on its own copy of the demand: planners
	// compare and dedupe RowReqs by value.
	Have bool `json:"h,omitempty"`
}

// Shard is the per-partition half of the §V substrate.
//
// Error model: every method that can lose state or transport returns an
// error. A non-nil error means the shard's intra state is no longer
// trustworthy — the RPC implementation returns a *TransportError after
// its retries are exhausted — and the coordinator (internal/partition)
// quarantines the shard and runs failover: its partitions are rebuilt
// from the data graph on survivors (Rebuild) or spares (Build), with
// ErrSubstrateLost the terminal poison only when no capacity survives.
// An in-process shard returns one error: ApplyOps refuses an op its own
// subgraph rejects, which means the shard diverged from the data graph;
// the coordinator has nothing to fail over to and poisons. Its other
// contract violations (reads of unowned partitions) remain panics,
// because they are programming bugs, not operational failures.
type Shard interface {
	// Ping is the liveness probe the failover controller uses to tell
	// a dead worker from a transient fault: it must answer quickly
	// (bounded, no retries) and return nil only when the shard can
	// serve. In-process shards always answer nil.
	Ping() error

	// Build (re)builds the intra engines of the owned partitions from
	// the coordinator state exposed by src, discarding all prior state
	// (a remote worker also adopts cfg.Epoch as its op-stream fence).
	// index is this shard's position in the coordinator's shard table
	// (echoed back in Op.Shard).
	Build(cfg Config, index int, owned []int, src Source) error

	// Rebuild builds intra engines for additional partitions —
	// typically reassigned from a dead shard — on top of the shard's
	// existing state: previously owned partitions and the op-stream
	// fence survive. The snapshots come from the data graph as it
	// stands.
	Rebuild(cfg Config, index int, added []int, src Source) error

	// EnsureHorizon widens every owned intra engine to cover bound k.
	EnsureHorizon(k int) error

	// Ball visits the intra ball of src, each member once (src included
	// at 0), stopping early when fn returns false. The order is the
	// implementation's own — nearest layer first remotely, ascending
	// local id in-process — and callers may rely on neither. Safe for
	// concurrent use between mutations.
	Ball(part int, src uint32, maxD int, reverse bool, fn func(local uint32, d shortest.Dist) bool) error

	// Rows answers many full-horizon intra rows in one call, aligned
	// with reqs. Every request must name a partition this shard owns.
	// The remote implementation fetches all cache-missing rows in one
	// /rows RPC and keeps them cached, so the coordinator's row-demand
	// planner can warm a whole phase's reads with one round trip per
	// shard. The returned rows are read-only: remotely they are the
	// cached values themselves. Safe for concurrent use between
	// mutations, like Ball.
	Rows(reqs []RowReq) ([]Row, error)

	// ApplyOps applies one ordered batch of mutations (already applied
	// to the coordinator's structures) and returns, aligned by index,
	// the partition-local affected set of every op this shard owns
	// (nil for cross-partition and foreign ops). epoch fences the stream:
	// the coordinator issues a strictly increasing epoch per flush,
	// starting at 1, and a worker that already applied it answers its
	// recorded response (or empty sets, after a fenced build) instead of
	// re-applying — which is what makes the failover retry of an
	// in-flight batch safe against survivors that had applied before the
	// loss. An in-process shard is never retried and ignores it.
	//
	// warm piggybacks the coordinator's post-flush row demand on the
	// same round trip: the owned rows named in it that the flush moved,
	// or that the client does not hold, are computed from the post-apply
	// state and (remotely) installed in the client's row cache, so the
	// overlay reconciliation that follows the flush reads warm rows
	// instead of paying one RPC per bridge node. Rows are read-only, so
	// the piggyback is idempotent under the epoch fence; in-process
	// shards ignore it (the coordinator reads them directly).
	ApplyOps(epoch uint64, ops []Op, warm []RowReq) ([][]uint32, error)

	// Affected is pinned by the frozen benchmark module, ROADMAP 1 (h).
	Affected([]AffectedReq) ([]nodeset.Set, error)

	// Close releases the shard (remote: closes idle connections; the
	// worker process itself stays up for the next coordinator).
	Close() error
}

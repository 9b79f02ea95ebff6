package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"uagpnm/internal/core"
	"uagpnm/internal/datasets"
	"uagpnm/internal/hub"
	"uagpnm/internal/obs"
	"uagpnm/internal/patgen"
	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
)

// MultiPatternConfig parameterises the standing-query amortisation
// measurement: N patterns over one evolving graph, served once by a
// single hub (one shared SLen substrate) and once by N independent
// UA-GPNM sessions, replaying identical update batches.
type MultiPatternConfig struct {
	Nodes    int // data graph size (default 3000)
	Edges    int // data graph edges (default 12000)
	Labels   int // distinct role labels (default 16)
	Patterns int // standing queries (default 8)

	PatternNodes int // nodes per pattern (default 6)
	PatternEdges int // edges per pattern (default 6)

	Batches int // update batches (default 4)
	Updates int // data updates per batch (default 150)
	Horizon int // SLen hop cap (default 3)
	Workers int // worker bound for hub fan-out and engines (0 = all cores)
	Seed    int64

	// Shards, when non-empty, serves the hub side's partition substrate
	// from gpnm-shard workers at these addresses (the sessions side
	// stays in-process) — run next to the in-process baseline, the
	// delta is the RPC overhead of the sharded deployment.
	Shards []string

	// Verify differentially checks, after every batch, that each hub
	// pattern's match equals the corresponding session's (enabled by
	// default in the CLI; costs one comparison per pattern per batch).
	Verify bool
}

// MultiPatternSide aggregates one competitor's cost over the run.
type MultiPatternSide struct {
	BuildSeconds float64 `json:"build_seconds"`     // substrate construction + IQuery
	SLenSeconds  float64 `json:"slen_sync_seconds"` // substrate synchronisation only
	SLenSyncs    int     `json:"slen_syncs"`        // data updates synchronised into substrates
	TotalSeconds float64 `json:"total_seconds"`     // whole SQuery / ApplyBatch wall time
	// Phases is the per-phase wall-time breakdown (seconds summed over
	// the run's batches), read from the telemetry registry's
	// gpnm_batch_phase_seconds histograms rather than ad-hoc timers —
	// substrate phases (pre_balls, oplog_flush, overlay_sync,
	// post_balls, row_plan), hub phases (slen_sync,
	// wake_plan, amend_fan), and any recovery spans. Hub side only.
	Phases map[string]float64 `json:"phase_seconds,omitempty"`
	// RPCCalls is the per-endpoint count of coordinator→worker RPCs over
	// the whole run (gpnm_rpc_seconds observation counts) — the
	// scorecard for the batched read plane: /row is the per-row miss
	// path the planner exists to starve, /rows the bulk path that
	// replaces it. Sharded hub runs only.
	RPCCalls map[string]uint64 `json:"rpc_calls,omitempty"`
	// RowsPlanned / RowsPrefetched / RowsMissed summarise the row plane:
	// rows the demand planner derived, rows installed client-side by the
	// bulk paths (/rows + the /ops warm piggyback), and rows that still
	// fell through to singleton /row fetches. Sharded hub runs only.
	RowsPlanned    uint64 `json:"rows_planned,omitempty"`
	RowsPrefetched uint64 `json:"rows_prefetched,omitempty"`
	RowsMissed     uint64 `json:"rows_missed,omitempty"`
}

// MultiPatternResult is the measured comparison.
type MultiPatternResult struct {
	Config   MultiPatternConfig `json:"config"`
	Env      RunEnv             `json:"env"`
	Hub      MultiPatternSide   `json:"hub"`
	Sessions MultiPatternSide   `json:"sessions"`
	// SLenSyncRatio = hub syncs / session syncs — deterministically
	// 1/Patterns, the amortisation in work terms.
	SLenSyncRatio float64 `json:"slen_sync_ratio"`
	// SLenTimeRatio = hub sync seconds / session sync seconds.
	SLenTimeRatio float64 `json:"slen_time_ratio"`
	Verified      bool    `json:"verified"`
}

// RunMultiPattern executes the comparison: both sides replay the same
// pre-generated batches from the same initial state.
func RunMultiPattern(cfg MultiPatternConfig) MultiPatternResult {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3000
	}
	if cfg.Edges == 0 {
		cfg.Edges = 12000
	}
	if cfg.Labels == 0 {
		cfg.Labels = 16
	}
	if cfg.Patterns == 0 {
		cfg.Patterns = 8
	}
	if cfg.PatternNodes == 0 {
		cfg.PatternNodes = 6
	}
	if cfg.PatternEdges == 0 {
		cfg.PatternEdges = 6
	}
	if cfg.Batches == 0 {
		cfg.Batches = 4
	}
	if cfg.Updates == 0 {
		cfg.Updates = 150
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 3
	}

	g := datasets.GenerateSocial(datasets.SocialConfig{
		Name: "multipattern", Nodes: cfg.Nodes, Edges: cfg.Edges,
		Labels: cfg.Labels, Homophily: 0.8, PrefAtt: 0.6, Seed: cfg.Seed,
	})
	patterns := make([]*pattern.Graph, cfg.Patterns)
	for i := range patterns {
		patterns[i] = patgen.Generate(patgen.Config{
			Nodes: cfg.PatternNodes, Edges: cfg.PatternEdges,
			BoundMin: 1, BoundMax: cfg.Horizon,
			Seed:   cfg.Seed + int64(100+i),
			Labels: patgen.LabelsOf(g),
		}, g.Labels())
	}

	// Pre-generate the data batch stream against an evolving clone so
	// both sides replay identical updates.
	batches := make([]updates.Batch, cfg.Batches)
	{
		gw := g.Clone()
		for i := range batches {
			batches[i] = updates.Generate(
				updates.Balanced(cfg.Seed+int64(10+i), 0, cfg.Updates), gw, patterns[0])
			updates.ApplyDataStructural(batches[i].D, gw)
		}
	}

	res := MultiPatternResult{Config: cfg, Env: CaptureEnv(cfg.Workers, len(cfg.Shards)), Verified: cfg.Verify}

	// One hub, N standing queries, one substrate (optionally sharded
	// across remote workers). The hub gets a private telemetry registry
	// so the per-phase breakdown below attributes this run's hub side
	// only — not the comparison sessions, not any other run in-process.
	reg := obs.NewRegistry()
	start := time.Now()
	h, err := hub.New(g.Clone(), hub.Config{Horizon: cfg.Horizon, Workers: cfg.Workers, Shards: cfg.Shards, Metrics: reg})
	if err != nil {
		panic("bench: hub build failed: " + err.Error())
	}
	defer h.Close()
	ids := make([]hub.PatternID, cfg.Patterns)
	for i, ph := range patterns {
		id, err := h.Register(ph.Clone())
		if err != nil {
			panic("bench: hub register failed: " + err.Error())
		}
		ids[i] = id
	}
	res.Hub.BuildSeconds = time.Since(start).Seconds()
	for _, b := range batches {
		_, st, err := h.ApplyBatch(hub.Batch{D: b.D})
		if err != nil {
			panic("bench: hub batch rejected: " + err.Error())
		}
		res.Hub.SLenSeconds += st.SLenSync.Seconds()
		res.Hub.SLenSyncs += st.SLenSyncs
		res.Hub.TotalSeconds += st.Duration.Seconds()
	}
	res.Hub.Phases = reg.HistogramSums("gpnm_batch_phase_seconds")
	if len(cfg.Shards) > 0 {
		res.Hub.RPCCalls = reg.HistogramCounts("gpnm_rpc_seconds")
		res.Hub.RowsPlanned = reg.Counter("gpnm_rows_planned_total").Value()
		res.Hub.RowsPrefetched = reg.Counter("gpnm_rpc_rows_prefetched_total").Value()
		res.Hub.RowsMissed = reg.Counter("gpnm_rpc_rows_missed_total").Value()
	}

	// N independent UA-GPNM sessions, N substrates.
	start = time.Now()
	sessions := make([]*core.Session, cfg.Patterns)
	for i, ph := range patterns {
		sessions[i] = core.NewSession(g.Clone(), ph.Clone(),
			core.Config{Method: core.UAGPNM, Horizon: cfg.Horizon, Workers: cfg.Workers})
	}
	res.Sessions.BuildSeconds = time.Since(start).Seconds()
	for _, b := range batches {
		for _, s := range sessions {
			s.SQuery(b)
			res.Sessions.SLenSeconds += s.Stats.SLenSync.Seconds()
			res.Sessions.SLenSyncs += s.Stats.SLenSyncs
			res.Sessions.TotalSeconds += s.Stats.Duration.Seconds()
		}
	}
	// The hub has processed every batch by now, so equality holds against
	// each session's final state (per-batch equality is the hub
	// differential suite's job; here it guards the measurement itself).
	if cfg.Verify {
		for i, s := range sessions {
			if m, ok := h.Match(ids[i]); !ok || !m.Equal(s.Match) {
				panic(fmt.Sprintf("bench: hub pattern %d diverged from its session after the run", i))
			}
		}
	}

	res.SLenSyncRatio = ratio(float64(res.Hub.SLenSyncs), float64(res.Sessions.SLenSyncs))
	res.SLenTimeRatio = ratio(res.Hub.SLenSeconds, res.Sessions.SLenSeconds)
	return res
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// String renders the comparison as a table.
func (r MultiPatternResult) String() string {
	var sb strings.Builder
	sharded := ""
	if n := len(r.Config.Shards); n > 0 {
		sharded = fmt.Sprintf(", hub substrate sharded across %d worker(s)", n)
	}
	fmt.Fprintf(&sb, "standing-query amortisation — %d patterns, %d nodes, %d edges, %d batches × %d updates (workers=%d%s)\n",
		r.Config.Patterns, r.Config.Nodes, r.Config.Edges, r.Config.Batches, r.Config.Updates, r.Config.Workers, sharded)
	fmt.Fprintf(&sb, "%-22s  %12s  %12s  %10s  %12s\n", "", "build (s)", "slen (s)", "syncs", "total (s)")
	row := func(name string, s MultiPatternSide) {
		fmt.Fprintf(&sb, "%-22s  %12.4f  %12.4f  %10d  %12.4f\n",
			name, s.BuildSeconds, s.SLenSeconds, s.SLenSyncs, s.TotalSeconds)
	}
	row("hub (1 substrate)", r.Hub)
	row(fmt.Sprintf("%d sessions", r.Config.Patterns), r.Sessions)
	if len(r.Hub.Phases) > 0 {
		names := make([]string, 0, len(r.Hub.Phases))
		for name := range r.Hub.Phases {
			names = append(names, name)
		}
		sort.Strings(names)
		sb.WriteString("hub phase breakdown (s):")
		for _, name := range names {
			fmt.Fprintf(&sb, "  %s=%.4f", name, r.Hub.Phases[name])
		}
		sb.WriteString("\n")
	}
	if len(r.Hub.RPCCalls) > 0 {
		names := make([]string, 0, len(r.Hub.RPCCalls))
		for name := range r.Hub.RPCCalls {
			names = append(names, name)
		}
		sort.Strings(names)
		sb.WriteString("hub RPC calls:")
		for _, name := range names {
			fmt.Fprintf(&sb, "  %s=%d", name, r.Hub.RPCCalls[name])
		}
		fmt.Fprintf(&sb, "  (rows planned=%d prefetched=%d missed=%d)\n",
			r.Hub.RowsPlanned, r.Hub.RowsPrefetched, r.Hub.RowsMissed)
	}
	fmt.Fprintf(&sb, "SLen work ratio (hub/sessions): %.3f by syncs, %.3f by time",
		r.SLenSyncRatio, r.SLenTimeRatio)
	if r.Verified {
		sb.WriteString("  [results verified equal]")
	}
	sb.WriteString("\n")
	return sb.String()
}

// JSON renders the comparison for machine consumption (BENCH files).
func (r MultiPatternResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

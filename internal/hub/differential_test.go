package hub

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// scratchScript is a random update script a hub runs beside one
// Scratch session per pattern: rounds batches, each a shared ΔGD of
// dTotal updates drawn at dataSeed(round) plus, per pattern i, pTotal
// ΔGP updates drawn at patSeed(round, i) from its session's state.
type scratchScript struct {
	rounds, dTotal, pTotal int
	dataSeed               func(round int) int64
	patSeed                func(round, i int) int64
}

// run registers ps on h and drives the script; after every batch each
// pattern's match must equal its Scratch session's. It returns the ids.
func (s scratchScript) run(t *testing.T, label string, h *Hub, g *graph.Graph, ps []*pattern.Graph) []PatternID {
	t.Helper()
	ids := make([]PatternID, len(ps))
	sessions := make([]*core.Session, len(ps))
	for i, p := range ps {
		ids[i] = mustRegister(t, h, p.Clone())
		sessions[i] = core.NewSession(g.Clone(), p.Clone(), core.Config{Method: core.Scratch, Horizon: 3})
	}
	for round := 0; round < s.rounds; round++ {
		// Shared ΔGD against the current (hub) graph state; the
		// sessions' clones evolve in lockstep. Diverging ΔGP per
		// pattern, from each session's current pattern state.
		data := updates.Generate(updates.Balanced(s.dataSeed(round), 0, s.dTotal), h.Graph(), ps[0])
		perPattern := make(map[PatternID][]updates.Update, len(ps))
		for i := range ps {
			perPattern[ids[i]] = updates.Generate(updates.Balanced(s.patSeed(round, i), s.pTotal, 0),
				sessions[i].G, sessions[i].P).P
		}
		if _, _, err := h.ApplyBatch(t.Context(), Batch{D: data.D, P: perPattern}); err != nil {
			t.Fatal(err)
		}
		for i := range ps {
			ref := sessions[i].SQuery(updates.Batch{D: data.D, P: perPattern[ids[i]]})
			if got, ok := h.Match(ids[i]); !ok || !got.Equal(ref) {
				t.Fatalf("%s round=%d pattern=%d: hub diverges from Scratch\nbatch D=%v P=%v",
					label, round, i, data.D, perPattern[ids[i]])
			}
		}
	}
	return ids
}

// TestHubDifferentialScratch is the hub's ground-truth suite: a hub
// with k random patterns must produce, after every batch of a random
// update script — shared data updates plus diverging per-pattern
// pattern updates — exactly the per-pattern results of k independent
// Scratch sessions. Runs the fan-out serial and wide; execute under
// -race (the tier-1 gate does) to also prove the epoch discipline.
func TestHubDifferentialScratch(t *testing.T) {
	trials, rounds := 4, 4
	if testing.Short() {
		trials, rounds = 2, 3
	}
	const k = 4
	for _, procs := range []int{1, 4} {
		testkit.WithProcs(t, procs)
		for trial := 0; trial < trials; trial++ {
			seed := int64(92000 + trial)
			g, ps := testkit.Shape{Nodes: 45, Edges: 120, Labels: 5, PatNodes: 4, PatEdges: 5}.Patterns(seed, k)
			scratchScript{rounds: rounds, dTotal: 10, pTotal: 2,
				dataSeed: func(r int) int64 { return seed*17 + int64(r) },
				patSeed:  func(r, i int) int64 { return seed*23 + int64(r*k+i) },
			}.run(t, fmt.Sprintf("procs=%d trial=%d", procs, trial), mustHub(t, g.Clone(), Config{Horizon: 3}), g, ps)
		}
	}
}

// TestHubDifferentialStress is the race-hunting variant: forced
// GOMAXPROCS, wide fan-out, more patterns and heavier batches. Skipped
// with -short; run under -race.
func TestHubDifferentialStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress variant skipped in -short mode")
	}
	testkit.WithProcs(t, 8)
	const k = 6
	g, ps := testkit.Shape{Nodes: 80, Edges: 260, Labels: 5, PatNodes: 4, PatEdges: 5}.Patterns(31337, k)
	h := mustHub(t, g.Clone(), Config{Horizon: 3})
	ids := scratchScript{rounds: 5, dTotal: 24, pTotal: 3,
		dataSeed: func(r int) int64 { return int64(4400 + r) },
		patSeed:  func(r, i int) int64 { return int64(5500 + r*k + i) },
	}.run(t, "procs=8", h, g, ps)
	// Sanity on the suite itself: the script must actually have driven
	// changes through the standing queries.
	changed := 0
	for _, id := range ids {
		if st, err := h.Stats(id); err == nil && st.Passes > 0 {
			changed++
		}
	}
	if changed != k {
		t.Fatalf("only %d/%d patterns processed batches", changed, k)
	}
}

// TestHubShardedDifferential runs the hub on a substrate whose
// partitions are served by two RPC shard workers (real HTTP via
// httptest) and compares every pattern's result after every batch
// against Scratch sessions — the sharded deployment must be invisible
// to the hub's phase discipline. Run under -race: the fan's concurrent
// per-pattern readers all funnel through the RPC row cache.
func TestHubShardedDifferential(t *testing.T) {
	const k = 3
	addrs := make([]string, 2)
	for i := range addrs {
		ts := httptest.NewServer(shard.NewServer().Handler())
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	for _, procs := range []int{1, 4} {
		testkit.WithProcs(t, procs)
		g, ps := testkit.Shape{Nodes: 40, Edges: 110, Labels: 5, PatNodes: 4, PatEdges: 5}.Patterns(int64(73000+procs), k)
		scratchScript{rounds: 3, dTotal: 10, pTotal: 2,
			dataSeed: func(r int) int64 { return int64(7400 + procs*100 + r) },
			patSeed:  func(r, i int) int64 { return int64(7500 + procs*100 + r*k + i) },
		}.run(t, fmt.Sprintf("sharded procs=%d", procs), mustHub(t, g.Clone(), Config{Horizon: 3, Shards: addrs}), g, ps)
	}
}

// TestHubMatchesSessionPipeline cross-checks the hub against the
// UA-GPNM session pipeline (not just Scratch): same substrate, same
// per-pattern algorithm, one shared sync.
func TestHubMatchesSessionPipeline(t *testing.T) {
	const k = 3
	g, ps := testkit.Shape{Nodes: 50, Edges: 150, Labels: 5, PatNodes: 4, PatEdges: 5}.Patterns(777, k)
	// The sessions run serial and the hub 4-wide: the width flips
	// around each side's step.
	testkit.WithProcs(t, 1)
	sessions := make([]*core.Session, k)
	for i, p := range ps {
		sessions[i] = core.NewSession(g.Clone(), p.Clone(),
			core.Config{Method: core.UAGPNM, Horizon: 3})
	}
	testkit.WithProcs(t, 4)
	h := mustHub(t, g.Clone(), Config{Horizon: 3})
	ids := make([]PatternID, k)
	for i, p := range ps {
		ids[i] = mustRegister(t, h, p.Clone())
	}
	for round := 0; round < 4; round++ {
		data := updates.Generate(updates.Balanced(int64(9900+round), 0, 12), h.Graph(), ps[0])
		testkit.WithProcs(t, 4)
		if _, _, err := h.ApplyBatch(t.Context(), Batch{D: data.D}); err != nil {
			t.Fatal(err)
		}
		testkit.WithProcs(t, 1)
		for i := range ps {
			ref := sessions[i].SQuery(updates.Batch{D: data.D})
			if got, _ := h.Match(ids[i]); !got.Equal(ref) {
				t.Fatalf("round %d pattern %d: hub diverged from UA-GPNM session", round, i)
			}
		}
	}
	// The amortisation claim in numbers: the hub synced the substrate
	// once per batch, the k sessions k times.
	hubSyncs := h.LastBatch().SLenSyncs
	sessSyncs := 0
	for _, s := range sessions {
		sessSyncs += s.Stats.SLenSyncs
	}
	if hubSyncs == 0 || sessSyncs != k*hubSyncs {
		t.Fatalf("SLen sync accounting: hub=%d sessions=%d, want sessions = %d×hub",
			hubSyncs, sessSyncs, k)
	}
}

package hub

import (
	"math/rand"
	"net/http/httptest"
	"testing"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// randomInstance builds a random labelled graph and k random patterns.
func randomInstance(seed int64, n, m, k int) (*graph.Graph, []*pattern.Graph) {
	labels := []string{"A", "B", "C", "D", "E"}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	ps := make([]*pattern.Graph, k)
	for pi := range ps {
		p := pattern.New(g.Labels())
		ids := make([]pattern.NodeID, 3+rng.Intn(3))
		for i := range ids {
			ids[i] = p.AddNode(labels[rng.Intn(len(labels))])
		}
		for i := 0; i < len(ids)+1; i++ {
			p.AddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], pattern.Bound(1+rng.Intn(3)))
		}
		ps[pi] = p
	}
	return g, ps
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
		withProcs(t, procs)
		for trial := 0; trial < trials; trial++ {
			seed := int64(92000 + trial)
			g, ps := randomInstance(seed, 45, 120, k)

			h := mustHub(t, g.Clone(), Config{Horizon: 3})
			ids := make([]PatternID, k)
			sessions := make([]*core.Session, k)
			for i, p := range ps {
				ids[i] = mustRegister(t, h, p.Clone())
				sessions[i] = core.NewSession(g.Clone(), p.Clone(),
					core.Config{Method: core.Scratch, Horizon: 3})
			}

			for round := 0; round < rounds; round++ {
				// Shared ΔGD against the current (hub) graph state; the
				// sessions' clones evolve in lockstep.
				data := updates.Generate(
					updates.Balanced(seed*17+int64(round), 0, 10), h.Graph(), ps[0])
				// Diverging ΔGP per pattern, from each session's current
				// pattern state.
				perPattern := make(map[PatternID][]updates.Update, k)
				for i := range ps {
					pb := updates.Generate(
						updates.Balanced(seed*23+int64(round*k+i), 2, 0),
						sessions[i].G, sessions[i].P)
					perPattern[ids[i]] = pb.P
				}

				if _, _, err := h.ApplyBatch(Batch{D: data.D, P: perPattern}); err != nil {
					t.Fatal(err)
				}
				for i := range ps {
					ref := sessions[i].SQuery(updates.Batch{D: data.D, P: perPattern[ids[i]]})
					got, ok := h.Match(ids[i])
					if !ok {
						t.Fatalf("pattern %d vanished", ids[i])
					}
					if !got.Equal(ref) {
						t.Fatalf("procs=%d trial=%d round=%d pattern=%d: hub diverges from Scratch\nbatch D=%v P=%v",
							procs, trial, round, i, data.D, perPattern[ids[i]])
					}
				}
			}
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
	withProcs(t, 8)
	const k = 6
	g, ps := randomInstance(31337, 80, 260, k)
	h := mustHub(t, g.Clone(), Config{Horizon: 3})
	ids := make([]PatternID, k)
	sessions := make([]*core.Session, k)
	for i, p := range ps {
		ids[i] = mustRegister(t, h, p.Clone())
		sessions[i] = core.NewSession(g.Clone(), p.Clone(),
			core.Config{Method: core.Scratch, Horizon: 3})
	}
	for round := 0; round < 5; round++ {
		data := updates.Generate(updates.Balanced(int64(4400+round), 0, 24), h.Graph(), ps[0])
		perPattern := make(map[PatternID][]updates.Update, k)
		for i := range ps {
			pb := updates.Generate(updates.Balanced(int64(5500+round*k+i), 3, 0),
				sessions[i].G, sessions[i].P)
			perPattern[ids[i]] = pb.P
		}
		if _, _, err := h.ApplyBatch(Batch{D: data.D, P: perPattern}); err != nil {
			t.Fatal(err)
		}
		for i := range ps {
			ref := sessions[i].SQuery(updates.Batch{D: data.D, P: perPattern[ids[i]]})
			if got, _ := h.Match(ids[i]); !got.Equal(ref) {
				t.Fatalf("round %d pattern %d: hub(procs=8) diverged from Scratch", round, i)
			}
		}
	}
	// Sanity on the suite itself: the script must actually have driven
	// changes through the standing queries.
	changed := 0
	for _, id := range ids {
		if st, err := h.PatternStats(id); err == nil && st.Passes > 0 {
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
		withProcs(t, procs)
		g, ps := randomInstance(int64(73000+procs), 40, 110, k)
		h := mustHub(t, g.Clone(), Config{Horizon: 3, Shards: addrs})
		ids := make([]PatternID, k)
		sessions := make([]*core.Session, k)
		for i, p := range ps {
			ids[i] = mustRegister(t, h, p.Clone())
			sessions[i] = core.NewSession(g.Clone(), p.Clone(),
				core.Config{Method: core.Scratch, Horizon: 3})
		}
		for round := 0; round < 3; round++ {
			data := updates.Generate(
				updates.Balanced(int64(7400+procs*100+round), 0, 10), h.Graph(), ps[0])
			perPattern := make(map[PatternID][]updates.Update, k)
			for i := range ps {
				pb := updates.Generate(
					updates.Balanced(int64(7500+procs*100+round*k+i), 2, 0),
					sessions[i].G, sessions[i].P)
				perPattern[ids[i]] = pb.P
			}
			if _, _, err := h.ApplyBatch(Batch{D: data.D, P: perPattern}); err != nil {
				t.Fatal(err)
			}
			for i := range ps {
				ref := sessions[i].SQuery(updates.Batch{D: data.D, P: perPattern[ids[i]]})
				if got, _ := h.Match(ids[i]); !got.Equal(ref) {
					t.Fatalf("procs=%d round=%d pattern=%d: sharded hub diverges from Scratch",
						procs, round, i)
				}
			}
		}
	}
}

// TestHubMatchesSessionPipeline cross-checks the hub against the
// UA-GPNM session pipeline (not just Scratch): same substrate, same
// per-pattern algorithm, one shared sync.
func TestHubMatchesSessionPipeline(t *testing.T) {
	const k = 3
	g, ps := randomInstance(777, 50, 150, k)
	// The sessions run serial and the hub 4-wide: the width flips
	// around each side's step.
	withProcs(t, 1)
	sessions := make([]*core.Session, k)
	for i, p := range ps {
		sessions[i] = core.NewSession(g.Clone(), p.Clone(),
			core.Config{Method: core.UAGPNM, Horizon: 3})
	}
	withProcs(t, 4)
	h := mustHub(t, g.Clone(), Config{Horizon: 3})
	ids := make([]PatternID, k)
	for i, p := range ps {
		ids[i] = mustRegister(t, h, p.Clone())
	}
	for round := 0; round < 4; round++ {
		data := updates.Generate(updates.Balanced(int64(9900+round), 0, 12), h.Graph(), ps[0])
		withProcs(t, 4)
		if _, _, err := h.ApplyBatch(Batch{D: data.D}); err != nil {
			t.Fatal(err)
		}
		withProcs(t, 1)
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

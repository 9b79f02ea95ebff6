package hub

import (
	"fmt"
	"net/http/httptest"
	"slices"
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

// FuzzHubSessions is the hub ≡ k UA sessions law under any instance and
// script: a hub with k registrations and k UA-GPNM sessions, one per
// pattern, take the same batches — a shared ΔGD and per-pattern ΔGP
// drawn by updates.Generate — the sessions at one pool width and the
// hub at another, and after every batch each registration's relation
// equals its own session's, per pattern node. In one round the batch
// may be malformed (malform%4: 1 a data update in pattern j's ΔGP, 2 a
// mispredicted node-insert id in ΔGD or in pattern j's ΔGP, 3 a
// label-less pattern node insert): the hub must refuse it with an error
// exactly when the sessions it reaches panic, and neither may move.
// The first seed is TestHubMatchesSessionPipeline's trial.
func FuzzHubSessions(f *testing.F) {
	f.Add(int64(777), int64(9900), uint8(1), uint8(4), uint8(0), uint8(12), uint8(4), uint8(0))
	f.Add(int64(777), int64(9900), uint8(4), uint8(1), uint8(2), uint8(12), uint8(4), uint8(1+4*1+16*2))
	f.Add(int64(92000), int64(17), uint8(1), uint8(4), uint8(2), uint8(10), uint8(3), uint8(2+4*2+64))
	f.Add(int64(5), int64(-3), uint8(4), uint8(4), uint8(3), uint8(8), uint8(3), uint8(2))
	f.Add(int64(31337), int64(4400), uint8(1), uint8(4), uint8(1), uint8(6), uint8(3), uint8(3+4*1+16*1))
	f.Fuzz(func(t *testing.T, seed, batchSeed int64, sessProcs, hubProcs, pTotal, dTotal, rounds, malform uint8) {
		const k = 3
		g, ps := testkit.Shape{Nodes: 50, Edges: 150, Labels: 5, PatNodes: 4, PatEdges: 5}.Patterns(seed%1_000_000, k)
		sessWidth, hubWidth := max(1, int(sessProcs)%9), max(1, int(hubProcs)%9)
		testkit.WithProcs(t, sessWidth)
		sessions := make([]*core.Session, k)
		for i, p := range ps {
			sessions[i] = core.NewSession(g.Clone(), p.Clone(), core.Config{Method: core.UAGPNM, Horizon: 3})
		}
		testkit.WithProcs(t, hubWidth)
		h := mustHub(t, g.Clone(), Config{Horizon: 3})
		ids := make([]PatternID, k)
		for i, p := range ps {
			ids[i] = mustRegister(t, h, p.Clone())
		}
		nRounds := max(1, int(rounds)%6)
		badRound, badKind, j := int(malform/4)%nRounds, malform%4, int(malform/16)%k
		for round := range nRounds {
			rs := batchSeed*31 + int64(round)
			d := updates.Generate(updates.Balanced(rs, 0, int(dTotal)%25), h.Graph(), ps[0]).D
			pp := make([][]updates.Update, k)
			for i, s := range sessions {
				pp[i] = updates.Generate(updates.Balanced(rs*7+int64(i), int(pTotal)%5, 0), s.G, s.P).P
			}
			all := false // the malformation reaches every session (it is in ΔGD)
			if round == badRound && badKind != 0 {
				d, pp[j], all = malformed(badKind, malform&64 != 0, sessions[j], d, pp[j])
			}
			b := Batch{D: d, P: map[PatternID][]updates.Update{}}
			for i, id := range ids {
				b.P[id] = pp[i]
			}
			seq := h.Seq()
			testkit.WithProcs(t, hubWidth)
			_, _, err := h.ApplyBatch(t.Context(), b)
			if err != nil && h.Seq() != seq {
				t.Fatalf("round %d: the hub refused the batch (%v) but moved", round, err)
			}
			testkit.WithProcs(t, sessWidth)
			for i, s := range sessions {
				if err != nil && !all && i != j {
					continue // the hub refuses a batch whole; this session's share was well-formed
				}
				ids0, edges0, pids0, pedges0 := s.G.NumIDs(), s.G.NumEdges(), s.P.NumIDs(), s.P.NumEdges()
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					s.SQuery(updates.Batch{D: d, P: pp[i]})
					return false
				}()
				if panicked != (err != nil) {
					t.Fatalf("round %d pattern %d: hub error %v, session panicked %v\nD=%v P=%v", round, i, err, panicked, d, pp[i])
				}
				if panicked && (s.G.NumIDs() != ids0 || s.G.NumEdges() != edges0 || s.P.NumIDs() != pids0 || s.P.NumEdges() != pedges0) {
					t.Fatalf("round %d pattern %d: the session refused the batch but moved", round, i)
				}
			}
			for i, s := range sessions {
				got, _ := h.Match(ids[i])
				hp, _ := h.PatternGraph(ids[i])
				if hp.NumIDs() != s.P.NumIDs() {
					t.Fatalf("round %d pattern %d: hub pattern has %d ids, session's %d", round, i, hp.NumIDs(), s.P.NumIDs())
				}
				s.P.Nodes(func(u pattern.NodeID) {
					if a, b := got.SimulationSet(u), s.Match.SimulationSet(u); !a.Equal(b) {
						t.Fatalf("round %d pattern %d: sim(%d) is %v on the hub, %v in the session\nD=%v P=%v",
							round, i, u, a, b, d, pp[i])
					}
				})
			}
		}
	})
}

// malformed breaks one round's batch the way kind says (see
// FuzzHubSessions) against session s, whose ΔGP is p; inD puts a
// mispredicted id in ΔGD rather than in p. all reports that the break
// is in ΔGD.
func malformed(kind uint8, inD bool, s *core.Session, d, p []updates.Update) (_, _ []updates.Update, all bool) {
	d, p = slices.Clone(d), slices.Clone(p)
	nextP := uint32(s.P.NumIDs())
	for _, u := range p {
		if u.Kind == updates.PatternNodeInsert {
			nextP++
		}
	}
	switch {
	case kind == 1:
		p = append(p, updates.Update{Kind: updates.DataEdgeInsert, From: 0, To: 1})
	case kind == 2 && inD:
		nextD := uint32(s.G.NumIDs())
		for _, u := range d {
			if u.Kind == updates.DataNodeInsert {
				nextD++
			}
		}
		d = append(d, updates.Update{Kind: updates.DataNodeInsert, Node: nextD + 1, Labels: []string{"A"}})
		all = true
	case kind == 2:
		p = append(p, updates.Update{Kind: updates.PatternNodeInsert, Node: nextP + 1, Labels: []string{"A"}})
	default:
		p = append(p, updates.Update{Kind: updates.PatternNodeInsert, Node: nextP})
	}
	return d, p, all
}

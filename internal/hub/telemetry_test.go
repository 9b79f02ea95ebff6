package hub

import (
	"net/http/httptest"
	"testing"

	"uagpnm/internal/obs"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// TestHubTelemetryDifferential is the observability pin: two hubs over
// the same instance — one in-process, one sharded across two real HTTP
// workers — each reporting into a private registry, must stay
// result-identical batch for batch (instrumentation changes nothing),
// while the registries show the telemetry actually advancing: hub batch
// counters and phase histograms on both sides, RPC latency histograms
// only on the sharded side, and a populated trace ring.
func TestHubTelemetryDifferential(t *testing.T) {
	const k, rounds = 3, 4
	addrs := make([]string, 2)
	for i := range addrs {
		ts := httptest.NewServer(shard.NewServer().Handler())
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	workerOpsBefore := obs.Default.Counter("gpnm_worker_requests_total", "endpoint", "/ops").Value()

	g, ps := randomInstance(86000, 40, 110, k)
	regSharded, regLocal := obs.NewRegistry(), obs.NewRegistry()
	hs := mustHub(t, g.Clone(), Config{Horizon: 3, Shards: addrs, Metrics: regSharded})
	hl := mustHub(t, g.Clone(), Config{Horizon: 3, Metrics: regLocal})
	idsS, idsL := make([]PatternID, k), make([]PatternID, k)
	for i, p := range ps {
		idsS[i] = mustRegister(t, hs, p.Clone())
		idsL[i] = mustRegister(t, hl, p.Clone())
	}

	for round := 0; round < rounds; round++ {
		data := updates.Generate(
			updates.Balanced(int64(8600+round), 0, 10), hl.Graph(), ps[0])
		if _, _, err := hs.ApplyBatch(t.Context(), Batch{D: data.D}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := hl.ApplyBatch(t.Context(), Batch{D: data.D}); err != nil {
			t.Fatal(err)
		}
		for i := range ps {
			got, ok1 := hs.Match(idsS[i])
			ref, ok2 := hl.Match(idsL[i])
			if !ok1 || !ok2 || !got.Equal(ref) {
				t.Fatalf("round %d pattern %d: sharded hub (metrics on) diverges from in-process hub", round, i)
			}
		}
	}

	for name, reg := range map[string]*obs.Registry{"sharded": regSharded, "local": regLocal} {
		if got := reg.Counter("gpnm_hub_batches_total").Value(); got != rounds {
			t.Errorf("%s: gpnm_hub_batches_total = %d, want %d", name, got, rounds)
		}
		phases := reg.HistogramSums("gpnm_batch_phase_seconds")
		for _, phase := range []string{"slen_sync", "wake_plan", "amend_fan"} {
			if _, ok := phases[phase]; !ok {
				t.Errorf("%s: gpnm_batch_phase_seconds missing phase %q (have %v)", name, phase, phases)
			}
		}
		traces := reg.Traces()
		if len(traces) != rounds {
			t.Fatalf("%s: trace ring holds %d traces, want %d", name, len(traces), rounds)
		}
		last := traces[rounds-1]
		if last.Seq != rounds || last.DataUpdates != 10 || last.Patterns != k || len(last.Spans) == 0 {
			t.Errorf("%s: last trace = %+v", name, last)
		}
		if last.Woken+last.Skipped != last.Patterns {
			t.Errorf("%s: wake accounting woken=%d skipped=%d patterns=%d",
				name, last.Woken, last.Skipped, last.Patterns)
		}
	}

	// Only the sharded side crosses RPC: its registry carries per-endpoint
	// latency observations, the in-process one none. The sharded engine is
	// the §V partition engine, so its trace also carries the engine phases.
	if got := regSharded.Histogram("gpnm_rpc_seconds", "endpoint", "/ops").Count(); got == 0 {
		t.Error("sharded: gpnm_rpc_seconds{endpoint=\"/ops\"} never observed")
	}
	if got := regLocal.Histogram("gpnm_rpc_seconds", "endpoint", "/ops").Count(); got != 0 {
		t.Errorf("local: gpnm_rpc_seconds observed %d times, want 0", got)
	}
	if last, ok := regSharded.LastTrace(); !ok || last.SpanSeconds("oplog_flush") == 0 && last.SpanSeconds("pre_balls") == 0 {
		t.Errorf("sharded: last trace carries no engine phase spans: %+v", last)
	}
	// The workers saw the op streams too (worker-side view of the same
	// RPCs, reported into the process-global registry).
	if after := obs.Default.Counter("gpnm_worker_requests_total", "endpoint", "/ops").Value(); after <= workerOpsBefore {
		t.Errorf("worker-side gpnm_worker_requests_total{/ops} did not advance (%d -> %d)", workerOpsBefore, after)
	}
}

// TestInProcessHubNeverMaterialises pins what an in-process hub does
// not hold: its engine is a ball plane — no partitioning, no shard, no
// overlay — through registrations, 50 data and pattern batches and the
// ball reads of their amendment fans, while the hub stays
// result-identical to a sharded one, whose fleet built its intra engines
// and overlay during New.
func TestInProcessHubNeverMaterialises(t *testing.T) {
	const k, rounds = 3, 50
	addrs := make([]string, 2)
	for i := range addrs {
		ts := httptest.NewServer(shard.NewServer().Handler())
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	g, ps := randomInstance(87000, 40, 110, k)
	regLocal, regSharded := obs.NewRegistry(), obs.NewRegistry()
	hl := mustHub(t, g.Clone(), Config{Horizon: 3, Metrics: regLocal})
	hs := mustHub(t, g.Clone(), Config{Horizon: 3, Shards: addrs, Metrics: regSharded})
	if hs.eng.Partitioning() == nil || regSharded.HistogramCounts("gpnm_batch_phase_seconds")["intra_build"] != 1 ||
		regSharded.Counter("gpnm_overlay_sync_total", "mode", "build").Value() != 1 {
		t.Fatal("sharded: New did not leave the §V plane built")
	}
	idsL, idsS := make([]PatternID, k), make([]PatternID, k)
	for i, p := range ps {
		idsL[i] = mustRegister(t, hl, p.Clone())
		idsS[i] = mustRegister(t, hs, p.Clone())
	}
	for round := 0; round < rounds; round++ {
		b := updates.Generate(updates.Balanced(int64(8700+round), 1, 6), hl.Graph(), ps[round%k])
		target := round % k
		if _, _, err := hl.ApplyBatch(t.Context(), Batch{D: b.D, P: map[PatternID][]updates.Update{idsL[target]: b.P}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := hs.ApplyBatch(t.Context(), Batch{D: b.D, P: map[PatternID][]updates.Update{idsS[target]: b.P}}); err != nil {
			t.Fatal(err)
		}
		ps[target] = ps[target].Clone()
		updates.ApplyPatternBatch(b.P, ps[target])
		for i := range ps {
			got, ok1 := hl.Match(idsL[i])
			ref, ok2 := hs.Match(idsS[i])
			if !ok1 || !ok2 || !got.Equal(ref) {
				t.Fatalf("round %d pattern %d: in-process hub diverges from sharded hub", round, i)
			}
		}
	}
	syncs := regLocal.Counter("gpnm_overlay_sync_total", "mode", "build").Value() +
		regLocal.Counter("gpnm_overlay_sync_total", "mode", "scoped").Value()
	if hl.eng.Partitioning() != nil || hl.eng.Remote() || syncs != 0 {
		t.Errorf("in-process: after %d batches the engine holds a partitioning (%v) or synced an overlay %d times",
			rounds, hl.eng.Partitioning() != nil, syncs)
	}
	if n := regSharded.HistogramCounts("gpnm_batch_phase_seconds")["intra_build"]; n != 1 {
		t.Errorf("sharded: %d intra builds after %d batches, want still 1", n, rounds)
	}
}

package main

// Per-layer metrics, derived from what a traced run recorded. Values
// are per batch unless the name says otherwise. The metrics every
// workload can measure are the run's Metrics (what BENCHMARK.json lists
// under per_layer); the ones only some workloads have — the api and shard
// layers, DER-I and DER-III timings — go to its Extra, so that no listed
// metric reads a constant 0 where it does not apply.

import (
	"context"
	"math"
	"time"

	"uagpnm"
)

type layerMetrics struct {
	m     map[string]metric // measured on every workload
	extra map[string]metric // measured where the layer is in play
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (lm layerMetrics) put(name string, v float64, unit string) { lm.m[name] = metric{finite(v), unit} }

// only records a metric of a layer that not every workload exercises;
// where nothing was measured it is left out.
func (lm layerMetrics) only(measured bool, name string, v float64, unit string) {
	if measured {
		lm.extra[name] = metric{finite(v), unit}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (lm layerMetrics) api(wt window, tr *tracer, by map[string]endpointStats) {
	remote := len(by) > 0
	var rtt, overhead []float64
	if remote {
		rtt = wt.DurMS
		for i, st := range wt.Hub {
			overhead = append(overhead, wt.DurMS[i]-ms(st.Duration))
		}
	}
	apply := by["/v1/apply"]
	lm.only(remote, "api.apply_rtt_ms", p50(rtt), "ms")
	lm.only(remote, "api.apply_overhead_ms", median(overhead), "ms")
	lm.only(remote, "api.apply_req_bytes", ratio(float64(apply.ReqBytes), float64(apply.Calls)), "B")
	lm.only(remote, "api.apply_resp_bytes", ratio(float64(apply.RespBytes), float64(apply.Calls)), "B")
	lm.only(remote, "api.snapshot_rtt_ms", median(tr.each("api.snapshot")), "ms")
	lm.only(remote, "api.delta_wake_ms", median(wt.WakeMS), "ms")
}

func (lm layerMetrics) hub(stats []uagpnm.HubBatchStats, registerMS []float64, tr *tracer) {
	var apply, sync, fan, self []float64
	var woken, patterns, bypassed float64
	for _, st := range stats {
		apply = append(apply, ms(st.Duration))
		sync = append(sync, ms(st.SLenSync))
		fan = append(fan, ms(st.FanOut))
		self = append(self, ms(st.Duration-st.SLenSync-st.FanOut))
		woken += float64(st.Woken)
		patterns += float64(st.Patterns)
		if st.IndexBypassed {
			bypassed++
		}
	}
	lm.put("hub.apply_ms", median(apply), "ms")
	lm.put("hub.slen_sync_ms", median(sync), "ms")
	lm.put("hub.fan_out_ms", median(fan), "ms")
	lm.put("hub.self_ms", median(self), "ms")
	lm.put("hub.register_ms", median(registerMS), "ms")
	lm.put("hub.woken_ratio", ratio(woken, patterns), "ratio")
	lm.put("hub.index_bypassed_ratio", ratio(bypassed, float64(len(stats))), "ratio")
	// Serial cost of every pattern's pass over the fan's wall time: how
	// much of the fan is parallelism and skipped work.
	lm.put("hub.fan_efficiency", ratio(median(values(tr.perBatch("core.pass", false))), median(fan)), "ratio")
}

func (lm layerMetrics) shard(wt window, rep *replayOutput) {
	remote := len(rep.Workers) > 0
	n := float64(max(rep.Batches, 1))
	perBatch := func(c *shardCalls) (calls, millis float64) {
		return float64(c.calls.Load()) / n, float64(c.ns.Load()) / 1e6 / n
	}
	rowsCalls, rowsMS := perBatch(&rep.Shard.rows)
	opsCalls, opsMS := perBatch(&rep.Shard.ops)
	_, affMS := perBatch(&rep.Shard.affected)
	lm.only(remote, "shard.rows_calls", rowsCalls, "count")
	lm.only(remote, "shard.rows_ms", rowsMS, "ms")
	lm.only(remote, "shard.ops_calls", opsCalls, "count")
	lm.only(remote, "shard.ops_ms", opsMS, "ms")
	lm.only(remote, "shard.affected_ms", affMS, "ms")
	var handlerNS float64
	for _, ep := range []string{"/rows", "/ops", "/affected"} {
		handlerNS += float64(rep.Workers[ep].NS)
	}
	all := totals(rep.Workers)
	lm.only(remote, "shard.handler_ms", handlerNS/1e6/n, "ms")
	// Client side minus worker side of the same three calls: the wire
	// and the coordinator's half of the codec.
	lm.only(remote, "shard.wire_ms", rowsMS+opsMS+affMS-handlerNS/1e6/n, "ms")
	lm.only(remote, "shard.req_bytes", float64(all.ReqBytes)/n, "B")
	lm.only(remote, "shard.resp_bytes", float64(all.RespBytes)/n, "B")
	lm.only(remote, "shard.rows_per_call", ratio(float64(rep.Shard.rows.items.Load()), float64(rep.Shard.rows.calls.Load())), "count")
	var hit, miss float64
	for _, st := range wt.Hub {
		hit += float64(st.RowsPrefetched)
		miss += float64(st.RowsMissed)
	}
	lm.only(remote, "shard.prefetch_hit_ratio", ratio(hit, hit+miss), "ratio")
}

func (lm layerMetrics) partition(wt window, tr *tracer, rep *replayOutput, phases0, phases1 map[string]float64) {
	lm.put("partition.build_ms", rep.BuildMS, "ms")
	lm.put("partition.apply_batch_ms", median(values(tr.perBatch("partition.apply_batch", false))), "ms")
	lm.put("partition.change_log_nodes", median(rep.ChangeLogNodes), "count")
	lm.put("partition.oracle_calls_per_pass", median(rep.OracleCalls), "count")
	lm.put("partition.oracle_ms_per_pass", median(rep.OracleMS), "ms")
	lm.put("partition.ball_cold_us", median(rep.BallColdUS), "us")
	lm.put("partition.ball_warm_us", median(rep.BallWarmUS), "us")
	// Advisory pass-through of the program's own phase histogram over
	// the traced window; a phase it does not report reads 0.
	n := float64(max(len(wt.DurMS), 1))
	phase := func(names ...string) float64 {
		t := 0.0
		for _, name := range names {
			t += phases1[name] - phases0[name]
		}
		return t / n
	}
	lm.put("partition.phase.overlay_sync_s", phase("overlay_sync"), "s")
	lm.put("partition.phase.pre_balls_s", phase("pre_balls"), "s")
	lm.put("partition.phase.post_balls_s", phase("post_balls"), "s")
	lm.put("partition.phase.oplog_s", phase("oplog_flush", "oplog_join"), "s")
	lm.put("partition.phase.row_plan_s", phase("row_plan", "row_prefetch"), "s")
}

func (lm layerMetrics) kernels(k kernelOutput) {
	lm.put("shortest.build_ms", k.ShortestBuildMS, "ms")
	lm.put("shortest.ball_us", k.BallUS, "us")
	lm.put("shortest.insert_edge_us", k.InsertEdgeUS, "us")
	lm.put("shortest.delete_edge_us", k.DeleteEdgeUS, "us")
	lm.put("sparse.set_row_ns", k.SetRow.NsPerOp, "ns")
	lm.put("sparse.row_scan_ns", k.RowScan.NsPerOp, "ns")
	lm.put("sparse.get_ns", k.Get.NsPerOp, "ns")
	lm.put("sparse.set_row_allocs", k.SetRow.AllocsPerOp, "count")
	lm.put("sparse.row_scan_allocs", k.RowScan.AllocsPerOp, "count")
	lm.put("nodeset.union_ns", k.Union.NsPerOp, "ns")
	lm.put("nodeset.builder_set_ns", k.BuilderSet.NsPerOp, "ns")
	lm.put("nodeset.bits_diffset_ns", k.BitsDiff.NsPerOp, "ns")
	lm.put("nodeset.union_allocs", k.Union.AllocsPerOp, "count")
	lm.put("nodeset.builder_set_allocs", k.BuilderSet.AllocsPerOp, "count")
	lm.put("nodeset.bits_diffset_allocs", k.BitsDiff.AllocsPerOp, "count")
}

// passes reports elim, ehtree and simulation from the replay's spans
// and counts.
func (lm layerMetrics) passes(tr *tracer, rep *replayOutput) {
	patternSide := len(tr.each("elim.can_sets")) > 0
	lm.only(patternSide, "elim.can_sets_ms", median(values(tr.perBatch("elim.can_sets", false))), "ms")
	lm.only(patternSide, "elim.cross_calls", median(values(tr.count("elim.cross"))), "count")
	lm.only(patternSide, "elim.cross_ms", median(values(tr.perBatch("elim.cross", false))), "ms")
	lm.put("elim.eliminated_ratio", ratio(sum(rep.Eliminated), sum(rep.TreeSize)), "ratio")
	lm.put("ehtree.build_ms", median(values(tr.perBatch("ehtree.build", true))), "ms")
	lm.put("ehtree.size", median(rep.TreeSize), "count")
	lm.put("ehtree.roots", median(rep.TreeRoots), "count")
	lm.put("simulation.amend_ms", median(values(tr.perBatch("simulation.amend", false))), "ms")
	lm.put("simulation.amend_allocs_per_pass", median(rep.AmendAllocs), "count")
	lm.put("simulation.seed_nodes", median(rep.SeedNodes), "count")
	lm.put("simulation.delta_ms", median(values(tr.perBatch("simulation.delta", false))), "ms")
	lm.put("simulation.run_ms_per_pass", median(rep.RunMS), "ms")
	lm.put("simulation.amend_vs_run", ratio(sum(rep.AmendMS), sum(rep.RunMS)), "ratio")
}

func (lm layerMetrics) core(cr coreRung) {
	lm.put("core.squery_ms", median(cr.SQueryMS), "ms")
	lm.put("core.iquery_ms", cr.IQueryMS, "ms")
	lm.put("core.scratch_squery_ms", median(cr.ScratchMS), "ms")
	lm.put("core.speedup_vs_scratch", ratio(median(cr.ScratchMS), median(cr.SQueryMS)), "ratio")
}

// hubRung is the run's first batches through a hub with nothing between
// it and its substrate.
type hubRung struct {
	ApplyMS    []float64
	RegisterMS []float64
	Stats      []uagpnm.HubBatchStats
}

// runHubRung replays the input through an in-process hub: the base the
// wires of serve_sharded are priced against and, on session_mixed, the
// same batches as a Hub would serve them (a fresh hub per batch there,
// since every session batch applies to the start state).
func runHubRung(in *replayInput, budget time.Duration) (hubRung, error) {
	var out hubRung
	ctx := context.Background()
	var h *uagpnm.Hub
	var ids []uagpnm.PatternID
	fresh := func() (err error) {
		if h != nil {
			h.Close()
		}
		if h, err = uagpnm.NewHub(in.G0.Clone(), uagpnm.HubOptions{Horizon: in.Horizon}); err != nil {
			return err
		}
		ids = make([]uagpnm.PatternID, len(in.Patterns))
		for i, p := range in.Patterns {
			t0 := time.Now()
			if ids[i], err = h.Register(ctx, p.Clone()); err != nil {
				return err
			}
			out.RegisterMS = append(out.RegisterMS, ms(time.Since(t0)))
		}
		return nil
	}
	defer func() {
		if h != nil {
			h.Close()
		}
	}()
	start := time.Now()
	for k, rb := range in.Batches {
		if k >= 2 && in.Fork && time.Since(start) > budget {
			break
		}
		if k == 0 || in.Fork {
			if err := fresh(); err != nil {
				return out, err
			}
		}
		t0 := time.Now()
		_, st, err := h.ApplyBatch(ctx, rb.hubBatch(ids))
		if err != nil {
			return out, err
		}
		out.ApplyMS = append(out.ApplyMS, ms(time.Since(t0)))
		out.Stats = append(out.Stats, st)
	}
	return out, nil
}

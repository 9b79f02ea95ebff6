#!/usr/bin/env bash
# End-to-end smoke tests over real binaries: one build, one fleet
# bring-up (N gpnm-shard workers + gpnm-serve, health waits, teardown on
# exit), then one of three stages —
#
#   serve    in-process hub: the /v1 routes with curl, then the gpnm CLI's
#            -server mode (uagpnm.Dial end to end from a real binary)
#   shard    two workers: register → apply → the bulk row plane's counters
#            → kill -9 one worker → failover-recovered apply → SIGTERM drain
#   metrics  one worker + pprof: the ldflags stamp, /v1/metrics, /v1/trace,
#            per-pattern stats, worker /metrics, counters advancing
#
# Needs only curl + grep + awk; CI runs all three after the unit suite
# (`make smoke`, `make shard-smoke`, `make metrics-smoke` locally).
set -euo pipefail

STAGE="${1:-}"
case "$STAGE" in
  serve) WORKERS=0 ;;
  shard) WORKERS=2 ;;
  metrics) WORKERS=1 ;;
  *) echo "usage: $0 <serve|shard|metrics>" >&2; exit 2 ;;
esac

PORT="${SMOKE_PORT:-18080}"
PPROF_PORT=$((PORT + 9))
BASE="http://127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
SERVER_PID=""
WORKER_PIDS=()
teardown() {
  for pid in "$SERVER_PID" ${WORKER_PIDS[@]+"${WORKER_PIDS[@]}"}; do
    [ -z "$pid" ] || kill "$pid" 2>/dev/null || true
  done
  rm -rf "$DIR"
}
trap teardown EXIT

fail() { echo "$STAGE-smoke: $*" >&2; exit 1; }

# The tiny known graph every stage runs on: 0:PM -> 1:SE and 0:PM -> 2:PM.
# Node 2 has no outgoing edges, so it fails the pattern below until an
# update connects it. Three labels → three partitions for the sharded
# stages. File ids are densely remapped in order of first appearance, so
# they survive the round trip unchanged.
cat > "$DIR/g.txt" <<'EOF'
0	1
0	2
EOF
cat > "$DIR/g.labels" <<'EOF'
0 PM
1 SE
2 PM
EOF
cat > "$DIR/p.txt" <<'EOF'
node pm PM
node se SE
edge pm se 2
EOF
cat > "$DIR/u.txt" <<'EOF'
+e 2 1
EOF
PATTERN='{"pattern":"node pm PM\nnode se SE\nedge pm se 2\n"}'

# ---- Build: every binary once, version-stamped. ---------------------
VERSION="smoke-1.2.3"
COMMIT="cafe123"
LDFLAGS="-X uagpnm/internal/version.Version=${VERSION} -X uagpnm/internal/version.Commit=${COMMIT}"
for bin in gpnm-serve gpnm-shard gpnm; do
  go build -ldflags "$LDFLAGS" -o "$DIR/$bin" "./cmd/$bin"
done

# ---- Fleet: workers first, each healthy before the coordinator starts
# (or the build-time failover packs everything onto one worker). ------
wait_healthy() {
  local url=$1 pid=$2 what=$3
  for _ in $(seq 1 50); do
    if curl -sf "$url" > /dev/null 2>&1; then return 0; fi
    kill -0 "$pid" 2>/dev/null || fail "$what died before becoming healthy"
    sleep 0.2
  done
  fail "$what never became healthy"
}
worker_url() { echo "http://127.0.0.1:$((PORT + $1))"; }

SHARDS=""
for i in $(seq 1 "$WORKERS"); do
  "$DIR/gpnm-shard" -addr "127.0.0.1:$((PORT + i))" &
  WORKER_PIDS+=($!)
  wait_healthy "$(worker_url "$i")/healthz" "$!" "shard worker $i"
  SHARDS="${SHARDS:+$SHARDS,}127.0.0.1:$((PORT + i))"
done
SERVE_ARGS=(-addr "127.0.0.1:${PORT}" -graph "$DIR/g.txt" -labels "$DIR/g.labels" -horizon 3)
[ -z "$SHARDS" ] || SERVE_ARGS+=(-shards "$SHARDS")
[ "$STAGE" != metrics ] || SERVE_ARGS+=(-pprof "127.0.0.1:${PPROF_PORT}")
"$DIR/gpnm-serve" "${SERVE_ARGS[@]}" &
SERVER_PID=$!
wait_healthy "$BASE/v1/healthz" "$SERVER_PID" "gpnm-serve"

# register prints the registration answer and sets ID; the initial result
# holds only node 0.
register() {
  REG=$(curl -sf -X POST "$BASE/v1/patterns" -d "$PATTERN")
  echo "register: $REG"
  ID=$(echo "$REG" | grep -o '"id":[0-9]*' | head -1 | cut -d: -f2)
  [ -n "$ID" ] || fail "no pattern id in $REG"
  echo "$REG" | grep -q '"matches":\[0\]' || fail "unexpected initial result"
}
# apply posts one typed data batch and prints the answer.
apply() { curl -sf -X POST "$BASE/v1/apply" -d "{\"updates\":[$1]}"; }
sum_metric() { { grep "^$1" || true; } | awk '{s+=$2} END {print s+0}'; }

stage_serve() {
  curl -sf "$BASE/v1/healthz" | grep -q '"ok":true' || fail "/v1/healthz failed"

  # Register (DSL), typed apply, long-poll, snapshot.
  register
  # Connect the second PM (node 2) to the SE.
  DELTA=$(apply '{"op":"+e","from":2,"to":1}')
  echo "apply: $DELTA"
  echo "$DELTA" | grep -q '"added":\[2\]' || fail "typed delta missed the new match"
  POLL=$(curl -sf "$BASE/v1/patterns/$ID/deltas?since=0&timeout=2s")
  echo "$POLL" | grep -q '"added":\[2\]' || fail "long-poll missed the delta"
  SNAP=$(curl -sf "$BASE/v1/patterns/$ID/snapshot")
  echo "$SNAP" | grep -q '"sim":\[0,2\]' || fail "snapshot missing raw sim sets: $SNAP"

  # Machine-readable error codes.
  CODE=$(curl -s "$BASE/v1/patterns/999")
  echo "$CODE" | grep -q '"code":"unknown_pattern"' || fail "missing error code: $CODE"

  # Disconnect it again and read the current result.
  DELTA=$(apply '{"op":"-e","from":2,"to":1}')
  echo "apply: $DELTA"
  echo "$DELTA" | grep -q '"removed":\[2\]' || fail "delta missed the removal"
  RES=$(curl -sf "$BASE/v1/patterns/$ID")
  echo "$RES" | grep -q '"matches":\[0\]' || fail "result wrong: $RES"

  # Client binary: gpnm -server runs the query through uagpnm.Dial. The
  # +e 2 1 batch re-admits PM 2: the final result lists both PMs.
  CLI=$("$DIR/gpnm" -server "127.0.0.1:${PORT}" -pattern "$DIR/p.txt" -updates "$DIR/u.txt")
  echo "$CLI"
  echo "$CLI" | grep -q 'IQuery result' || fail "CLI produced no initial result"
  echo "$CLI" | grep -q 'SQuery result' || fail "CLI produced no SQuery result"
  echo "$CLI" | grep -q '{0, 2}' || fail "CLI final result wrong"
}

stage_shard() {
  # Both workers must actually have been claimed with partitions.
  S1=$(curl -sf "$(worker_url 1)/healthz")
  S2=$(curl -sf "$(worker_url 2)/healthz")
  echo "worker1: $S1"
  echo "worker2: $S2"
  echo "$S1" | grep -q '"built":true' || fail "worker 1 was never built"
  echo "$S2" | grep -q '"built":true' || fail "worker 2 was never built"
  echo "$S1$S2" | grep -q '"parts":[12]' || fail "no worker owns a partition"

  register
  # Connect the second PM (node 2) to the SE — a cross-partition edge,
  # which every worker skips (no intra engine sees it) and the
  # coordinator's overlay absorbs; its id must show up as an addition for
  # pattern node 0.
  DELTA=$(apply '{"op":"+e","from":2,"to":1}')
  echo "apply: $DELTA"
  echo "$DELTA" | grep -q '"added":\[2\]' || fail "delta missed the new match"

  # A second healthy batch: a cross edge back (SE -> PM) moves no intra
  # distance and no match, so every warm row its flush demands is one the
  # coordinator already holds — the workers must vouch for them instead
  # of re-sending them.
  DELTA1B=$(apply '{"op":"+e","from":1,"to":0}')
  echo "apply1b: $DELTA1B"
  if echo "$DELTA1B" | grep -q '"added"\|"removed"'; then
    fail "a match moved on a batch that changes none"
  fi

  # The batched read plane actually ran. Scrape both workers' /metrics:
  # the coordinator must have reached them through the bulk /rows plane
  # (build-time bridge plan + batch row plans) and the workers must have
  # served bulk rows. Checked BEFORE the kill so the zero-failure
  # assertion on the coordinator is meaningful.
  WM=$(curl -sf "$(worker_url 1)/metrics"; curl -sf "$(worker_url 2)/metrics")
  echo "$WM" | grep 'gpnm_worker_requests_total{endpoint="/rows"}' \
    || fail "no worker ever served the bulk /rows endpoint"
  ROWS_TOTAL=$(echo "$WM" | sum_metric gpnm_worker_rows_total)
  echo "shard-smoke: workers served $ROWS_TOTAL bulk rows"
  [ "$ROWS_TOTAL" -gt 0 ] || fail "gpnm_worker_rows_total is zero — bulk plane never carried rows"
  # /rows is the one row fetch: the per-row endpoint is gone, and a
  # coordinator that still asked for it would show up here as 404s served.
  if echo "$WM" | grep 'gpnm_worker_requests_total{endpoint="/row"}'; then
    fail "a worker was asked for the retired /row endpoint"
  fi
  # Affected balls are the coordinator's, computed from its own graph: no
  # worker serves /affected, and the coordinator never asks for it.
  if echo "$WM" | grep 'gpnm_worker_requests_total{endpoint="/affected"}'; then
    fail "a worker served the retired /affected endpoint"
  fi
  # Coordinator side: a healthy run has no RPC failures at all (the
  # counter usually doesn't even exist yet — that counts as zero).
  CM=$(curl -sf "$BASE/v1/metrics")
  if echo "$CM" | grep 'gpnm_rpc_seconds_count{endpoint="/affected"}'; then
    fail "the coordinator called the retired /affected endpoint"
  fi
  FAILS=$(echo "$CM" | sum_metric gpnm_rpc_failures_total)
  if [ "$FAILS" -ne 0 ]; then
    echo "$CM" | grep '^gpnm_rpc_failures_total' >&2
    fail "coordinator counted $FAILS RPC failures on a healthy fleet"
  fi
  # Rows survive a batch: the flushes above demanded warm rows the client
  # held and did not move, and the workers answered them unchanged.
  UNCHANGED=$(echo "$CM" | sum_metric gpnm_rpc_rows_unchanged_total)
  echo "shard-smoke: $UNCHANGED held warm rows answered unchanged"
  [ "$UNCHANGED" -gt 0 ] || fail "gpnm_rpc_rows_unchanged_total is zero after two batches — held rows were re-sent or dropped"

  # Failover: kill -9 worker 2 — no drain, no goodbye, exactly a crashed
  # pod. The coordinator must detect the loss on the next batch, rebuild
  # the dead worker's partitions from its own subgraph mirrors on worker
  # 1, retry the batch, and answer correctly as if nothing happened.
  kill -9 "${WORKER_PIDS[1]}" 2>/dev/null || true
  wait "${WORKER_PIDS[1]}" 2>/dev/null || true
  WORKER_PIDS[1]=""
  echo "shard-smoke: killed worker 2 (failover stage)"

  # The next batch exercises the shard-side node-delete path end to end —
  # now ACROSS THE KILL: removing the only SE leaves the pattern without
  # a total match, so every PM match is withdrawn. The apply must succeed
  # (failover absorbed the loss) and the delta must be exact.
  DELTA2=$(apply '{"op":"-n","node":1}')
  echo "apply2 (post-kill): $DELTA2"
  echo "$DELTA2" | grep -q '"removed":\[0,2\]' || fail "post-kill delta missed the withdrawn matches"

  # The coordinator is healthy — degraded-not-dead never became dead —
  # and reports the absorbed recovery.
  HEALTH=$(curl -sf "$BASE/v1/healthz") || fail "/v1/healthz not 200 after the kill"
  echo "healthz (post-kill): $HEALTH"
  echo "$HEALTH" | grep -q '"ok":true' || fail "healthz not ok after the kill"
  echo "$HEALTH" | grep -q '"recovered":1' || fail "healthz did not report the recovery"

  # Full result is now empty for the PM node (served post-recovery).
  RES=$(curl -sf "$BASE/v1/patterns/$ID")
  echo "$RES" | grep -q '"matches":\[\]' || fail "final result wrong: $RES"

  # One more batch end to end on the survivor alone: re-adding an SE in
  # the dead worker's old partition restores both PM matches.
  DELTA3=$(apply '{"op":"+n","node":3,"labels":["SE"]},{"op":"+e","from":0,"to":3},{"op":"+e","from":2,"to":3}')
  echo "apply3 (survivor only): $DELTA3"
  echo "$DELTA3" | grep -q '"added":\[0,2\]' || fail "survivor-only batch wrong: $DELTA3"

  # Graceful shutdown: SIGTERM must drain and exit cleanly (0).
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || fail "coordinator did not exit cleanly on SIGTERM"
  SERVER_PID=""
}

stage_metrics() {
  WORKER="$(worker_url 1)"
  # The ldflags stamp must surface in -version on both binaries.
  "$DIR/gpnm-serve" -version | grep -q "$VERSION" || fail "gpnm-serve -version missing stamp"
  "$DIR/gpnm-shard" -version | grep -q "$COMMIT" || fail "gpnm-shard -version missing commit"

  # Build identity + uptime in /v1/healthz before any batch.
  HEALTH=$(curl -sf "$BASE/v1/healthz")
  echo "healthz: $HEALTH"
  echo "$HEALTH" | grep -q "\"version\":\"${VERSION}\"" || fail "healthz missing version"
  echo "$HEALTH" | grep -q "\"commit\":\"${COMMIT}\"" || fail "healthz missing commit"
  echo "$HEALTH" | grep -q '"uptime_seconds":' || fail "healthz missing uptime"

  # Baseline scrape: the registry parses as Prometheus text and already
  # carries the RPC client histograms (the /build fan to the worker).
  M0=$(curl -sf "$BASE/v1/metrics")
  echo "$M0" | grep -q '# TYPE gpnm_rpc_seconds histogram' || fail "no RPC histogram family"
  BATCHES0=$(echo "$M0" | grep -c '^gpnm_hub_batches_total 1$' || true)

  # Register a standing query and push one update batch through.
  register
  DELTA=$(apply '{"op":"+e","from":2,"to":1}')
  echo "$DELTA" | grep -q '"added":\[2\]' || fail "apply missed the new match"

  # After the batch: hub counters advanced, phase histograms populated.
  M1=$(curl -sf "$BASE/v1/metrics")
  echo "$M1" | grep -q '^gpnm_hub_batches_total 1$' || fail "gpnm_hub_batches_total did not advance"
  [ "$BATCHES0" -eq 0 ] || fail "batch counter advanced before any batch"
  echo "$M1" | grep -q '# TYPE gpnm_batch_phase_seconds histogram' || fail "no batch-phase family"
  echo "$M1" | grep -q 'gpnm_batch_phase_seconds_count{phase="slen_sync"} 1' || fail "slen_sync phase not observed"
  echo "$M1" | grep -q 'gpnm_rpc_seconds_count{endpoint="/ops"}' || fail "no /ops RPC latency"
  echo "$M1" | grep -q '^gpnm_hub_seq 1$' || fail "hub seq gauge wrong"
  # The coordinator built ball rows (a row is built on a source's first
  # read since it last moved); the old carry-over counter is gone.
  BUILT=$(echo "$M1" | sum_metric 'gpnm_ball_rows_built_total{dir="fwd"}')
  [ "$BUILT" -gt 0 ] || fail "gpnm_ball_rows_built_total{dir=\"fwd\"} missing or zero after register + apply"
  # A row is built only as deep as its reads go and deepened in place;
  # the fleet's stitched rows are whole, so the counter is exposed but
  # need not move here.
  echo "$M1" | grep -q '^gpnm_ball_rows_deepened_total{dir="fwd"} [0-9]' || fail "gpnm_ball_rows_deepened_total{dir=\"fwd\"} not exposed"
  if echo "$M1" | grep -q 'gpnm_ball_rows_adopted_total'; then
    fail "gpnm_ball_rows_adopted_total is still exported"
  fi

  # The per-batch trace carries the phase spans.
  TRACE=$(curl -sf "$BASE/v1/trace?n=1")
  echo "trace: $TRACE"
  echo "$TRACE" | grep -q '"seq":1' || fail "trace missing seq"
  echo "$TRACE" | grep -q '"name":"slen_sync"' || fail "trace missing slen_sync span"
  echo "$TRACE" | grep -q '"name":"amend_fan"' || fail "trace missing amend_fan span"

  # Per-pattern stats endpoint.
  STATS=$(curl -sf "$BASE/v1/patterns/$ID/stats")
  echo "stats: $STATS"
  echo "$STATS" | grep -q '"data_updates":1' || fail "pattern stats wrong: $STATS"

  # Last-batch timings now ride along in healthz.
  curl -sf "$BASE/v1/healthz" | grep -q '"last_batch":{"seq":1' || fail "healthz missing last_batch"

  # The worker exposes its own server-side view of the same traffic.
  WM=$(curl -sf "$WORKER/metrics")
  echo "$WM" | grep -q 'gpnm_worker_requests_total{endpoint="/ops"} 1' || fail "worker /ops counter wrong"
  echo "$WM" | grep -q '# TYPE gpnm_worker_request_seconds histogram' || fail "no worker latency family"
  echo "$WM" | grep -q '^gpnm_worker_ops_total ' || fail "worker op counter missing"

  # The opt-in pprof listener answers on its own port.
  curl -sf "http://127.0.0.1:${PPROF_PORT}/debug/pprof/cmdline" > /dev/null || fail "pprof listener dead"
}

"stage_$STAGE"
echo "$STAGE-smoke: OK"

#!/usr/bin/env bash
# End-to-end smoke test for the sharded deployment: spawn two
# gpnm-shard worker processes plus one gpnm-serve coordinator wired to
# them (-shards), register a pattern, apply an update batch, and assert
# the delta comes back over HTTP — i.e. the full §V substrate ran with
# its intra-partition state split across two worker processes. A
# metrics stage then scrapes worker /metrics and coordinator
# /v1/metrics to pin that the bulk /rows read plane carried the
# traffic with zero RPC failures, that rows the client held survived a
# batch (answered unchanged) and that nothing asked for the retired
# per-row endpoint. Then the
# failover stage: kill -9 one worker mid-run and assert the coordinator
# stays healthy, the next batch's results are still correct (the lost
# partitions were rebuilt on the survivor), /healthz reports the
# recovery, and shutdown still exits zero. Needs only curl + grep; CI
# runs it after the unit suite (`make shard-smoke` locally).
set -euo pipefail

PORT="${SMOKE_PORT:-18090}"
SHARD1_PORT=$((PORT + 1))
SHARD2_PORT=$((PORT + 2))
BASE="http://127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" "${SHARD1_PID:-}" "${SHARD2_PID:-}" 2>/dev/null || true; rm -rf "$DIR"' EXIT

# Same tiny known graph as serve_smoke.sh: 0:PM -> 1:SE, 0:PM -> 2:PM.
# Three labels → three partitions, split across the two shard workers.
cat > "$DIR/g.txt" <<'EOF'
0	1
0	2
EOF
cat > "$DIR/g.labels" <<'EOF'
0 PM
1 SE
2 PM
EOF

go build -o "$DIR/gpnm-serve" ./cmd/gpnm-serve
go build -o "$DIR/gpnm-shard" ./cmd/gpnm-shard

"$DIR/gpnm-shard" -addr "127.0.0.1:${SHARD1_PORT}" &
SHARD1_PID=$!
"$DIR/gpnm-shard" -addr "127.0.0.1:${SHARD2_PORT}" &
SHARD2_PID=$!

wait_healthy() {
  local url=$1 pid=$2 what=$3
  for i in $(seq 1 50); do
    if curl -sf "$url/healthz" > /dev/null 2>&1; then return 0; fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "shard-smoke: $what died before becoming healthy" >&2; exit 1
    fi
    sleep 0.2
  done
  echo "shard-smoke: $what never became healthy" >&2; exit 1
}
wait_healthy "http://127.0.0.1:${SHARD1_PORT}" "$SHARD1_PID" "shard worker 1"
wait_healthy "http://127.0.0.1:${SHARD2_PORT}" "$SHARD2_PID" "shard worker 2"

"$DIR/gpnm-serve" -addr "127.0.0.1:${PORT}" -graph "$DIR/g.txt" -labels "$DIR/g.labels" \
  -horizon 3 -shards "127.0.0.1:${SHARD1_PORT},127.0.0.1:${SHARD2_PORT}" &
SERVER_PID=$!
wait_healthy "$BASE" "$SERVER_PID" "coordinator"

# Both workers must actually have been claimed with partitions.
S1=$(curl -sf "http://127.0.0.1:${SHARD1_PORT}/healthz")
S2=$(curl -sf "http://127.0.0.1:${SHARD2_PORT}/healthz")
echo "worker1: $S1"
echo "worker2: $S2"
echo "$S1" | grep -q '"built":true' || { echo "shard-smoke: worker 1 was never built" >&2; exit 1; }
echo "$S2" | grep -q '"built":true' || { echo "shard-smoke: worker 2 was never built" >&2; exit 1; }
echo "$S1$S2" | grep -q '"parts":[12]' || { echo "shard-smoke: no worker owns a partition" >&2; exit 1; }

# Register a PM-within-2-of-SE pattern; initially only node 0 matches.
REG=$(curl -sf -X POST "$BASE/patterns" \
  -d '{"pattern":"node pm PM\nnode se SE\nedge pm se 2\n"}')
echo "register: $REG"
ID=$(echo "$REG" | grep -o '"id":[0-9]*' | head -1 | cut -d: -f2)
[ -n "$ID" ] || { echo "shard-smoke: no pattern id in $REG" >&2; exit 1; }
echo "$REG" | grep -q '"matches":\[0\]' || { echo "shard-smoke: unexpected initial result" >&2; exit 1; }

# Apply: connect the second PM (node 2) to the SE — an intra-PM-partition
# no-op plus a cross-partition edge the workers must replicate; its id
# must show up as an addition for pattern node 0.
DELTA=$(curl -sf -X POST "$BASE/apply" -d '{"data":"+e 2 1\n"}')
echo "apply: $DELTA"
echo "$DELTA" | grep -q '"added":\[2\]' || { echo "shard-smoke: delta missed the new match" >&2; exit 1; }

# A second healthy batch: a cross edge back (SE -> PM) moves no intra
# distance and no match, so every warm row its flush demands is one the
# coordinator already holds — the workers must vouch for them instead of
# re-sending them.
DELTA1B=$(curl -sf -X POST "$BASE/apply" -d '{"data":"+e 1 0\n"}')
echo "apply1b: $DELTA1B"
echo "$DELTA1B" | grep -q '"added"\|"removed"' && { echo "shard-smoke: a match moved on a batch that changes none" >&2; exit 1; }

# ---- Metrics stage: the batched read plane actually ran. ----------
# Scrape both workers' /metrics: the coordinator must have reached them
# through the bulk /rows plane (build-time bridge plan + batch row
# plans), not per-row fallbacks only — and the workers must have served
# bulk rows. Checked BEFORE the kill so the zero-failure assertion on
# the coordinator is meaningful.
M1=$(curl -sf "http://127.0.0.1:${SHARD1_PORT}/metrics")
M2=$(curl -sf "http://127.0.0.1:${SHARD2_PORT}/metrics")
echo "$M1$M2" | grep 'gpnm_worker_requests_total{endpoint="/rows"}' \
  || { echo "shard-smoke: no worker ever served the bulk /rows endpoint" >&2; exit 1; }
ROWS_TOTAL=$(echo "$M1$M2" | grep '^gpnm_worker_rows_total' | awk '{s+=$2} END {print s+0}')
echo "shard-smoke: workers served $ROWS_TOTAL bulk rows"
[ "$ROWS_TOTAL" -gt 0 ] || { echo "shard-smoke: gpnm_worker_rows_total is zero — bulk plane never carried rows" >&2; exit 1; }
# /rows is the one row fetch: the per-row endpoint is gone, and a
# coordinator that still asked for it would show up here as 404s served.
if echo "$M1$M2" | grep 'gpnm_worker_requests_total{endpoint="/row"}'; then
  echo "shard-smoke: a worker was asked for the retired /row endpoint" >&2; exit 1
fi
# Coordinator side: a healthy run has no RPC failures at all (the
# counter usually doesn't even exist yet — that counts as zero).
CM=$(curl -sf "$BASE/v1/metrics")
FAILS=$(echo "$CM" | { grep '^gpnm_rpc_failures_total' || true; } | awk '{s+=$2} END {print s+0}')
[ "$FAILS" -eq 0 ] || {
  echo "shard-smoke: coordinator counted $FAILS RPC failures on a healthy fleet" >&2
  echo "$CM" | grep '^gpnm_rpc_failures_total' >&2
  exit 1
}
# Rows survive a batch: the flushes above demanded warm rows the client
# held and did not move, and the workers answered them unchanged.
UNCHANGED=$(echo "$CM" | { grep '^gpnm_rpc_rows_unchanged_total' || true; } | awk '{s+=$2} END {print s+0}')
echo "shard-smoke: $UNCHANGED held warm rows answered unchanged"
[ "$UNCHANGED" -gt 0 ] || { echo "shard-smoke: gpnm_rpc_rows_unchanged_total is zero after two batches — held rows were re-sent or dropped" >&2; exit 1; }

# ---- Failover stage: kill one worker mid-run. ---------------------
# kill -9 worker 2 — no drain, no goodbye, exactly a crashed pod. The
# coordinator must detect the loss on the next batch, rebuild the dead
# worker's partitions from its own subgraph mirrors on worker 1, retry
# the batch, and answer correctly as if nothing happened.
kill -9 "$SHARD2_PID" 2>/dev/null || true
wait "$SHARD2_PID" 2>/dev/null || true
SHARD2_PID=""
echo "shard-smoke: killed worker 2 (failover stage)"

# The next batch exercises the shard-side node-delete path end to end —
# now ACROSS THE KILL: removing the only SE leaves the pattern without
# a total match, so every PM match is withdrawn. The apply must succeed
# (failover absorbed the loss) and the delta must be exact.
DELTA2=$(curl -sf -X POST "$BASE/apply" -d '{"data":"-n 1\n"}')
echo "apply2 (post-kill): $DELTA2"
echo "$DELTA2" | grep -q '"removed":\[0,2\]' || { echo "shard-smoke: post-kill delta missed the withdrawn matches" >&2; exit 1; }

# The coordinator is healthy — degraded-not-dead never became dead —
# and reports the absorbed recovery.
HEALTH=$(curl -sf "$BASE/v1/healthz") || { echo "shard-smoke: /healthz not 200 after the kill" >&2; exit 1; }
echo "healthz (post-kill): $HEALTH"
echo "$HEALTH" | grep -q '"ok":true' || { echo "shard-smoke: healthz not ok after the kill" >&2; exit 1; }
echo "$HEALTH" | grep -q '"recovered":1' || { echo "shard-smoke: healthz did not report the recovery" >&2; exit 1; }

# Full result is now empty for the PM node (served post-recovery).
RES=$(curl -sf "$BASE/patterns/$ID")
echo "$RES" | grep -q '"matches":\[\]' || { echo "shard-smoke: final result wrong: $RES" >&2; exit 1; }

# One more batch end to end on the survivor alone: re-adding an SE in
# the dead worker's old partition restores both PM matches.
DELTA3=$(curl -sf -X POST "$BASE/apply" -d '{"data":"+n 3 SE\n+e 0 3\n+e 2 3\n"}')
echo "apply3 (survivor only): $DELTA3"
echo "$DELTA3" | grep -q '"added":\[0,2\]' || { echo "shard-smoke: survivor-only batch wrong: $DELTA3" >&2; exit 1; }

# Graceful shutdown: SIGTERM must drain and exit cleanly (0).
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "shard-smoke: coordinator did not exit cleanly on SIGTERM" >&2; exit 1; }
SERVER_PID=""

echo "shard-smoke: OK"

#!/usr/bin/env bash
# Loopback end-to-end check for `ddnn serve`: the simulator is the oracle.
#
# Trains a tiny preset-e model, records the simulator's per-sample decisions
# (`ddnn simulate --decisions-out`), then runs the same model as three real
# processes — cloud, edge, device driver — over TCP loopback and compares
# the driver's decisions CSV byte-for-byte: same exits, predictions,
# entropies and delivered bytes (only latency may differ, and it is not in
# the CSV). Two rounds:
#
#   1. healthy     — every sample takes the simulator's exact route;
#   2. blackholed  — the edge accepts frames and never answers, forcing the
#                    driver's timeout + degradation ladder; the oracle is a
#                    simulator run with a whole-run edge outage.
#
# With a third argument "trace", both rounds also exercise the distributed
# tracing + live telemetry path:
#   * every role writes --trace-out/--metrics-out; `ddnn trace-merge`
#     stitches the per-role files into one timeline (byte-identical across
#     re-merges) whose per-sample span tree must match the simulator
#     oracle's (check_trace.py --served --oracle), healthy AND degraded,
#     and whose sample spans the driver's HDR latency histogram and its
#     exemplars resolve to;
#   * `ddnn top` polls the cloud's Stats channel throughout the healthy
#     round; its final snapshot must be byte-identical to the registry the
#     cloud writes at exit (the poll is side-effect-free by contract);
#   * the healthy driver appends a ledger record gated by check_bench.py
#     against bench/baselines/serve.json.
#
# Ports are OS-assigned ephemerals written to port files, so parallel ctest
# jobs never collide. All children are killed on exit, pass or fail.
#
# Usage: check_serve_e2e.sh <ddnn-binary> [workdir] [trace]
set -euo pipefail

ddnn="${1:?usage: check_serve_e2e.sh <ddnn-binary> [workdir] [trace]}"
work="${2:-serve_e2e_tmp}"
trace_mode=0
[ "${3:-}" = "trace" ] && trace_mode=1

script_dir="$(cd "$(dirname "$0")" && pwd)"
repo_root="$(dirname "${script_dir}")"

model_flags=(--preset e --filters 2)
export DDNN_RESULTS_DIR=off DDNN_CACHE_DIR=off

rm -rf "${work}"
mkdir -p "${work}"

pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "${pid}" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "${work}"
}
trap cleanup EXIT

wait_port_file() {
  local file="$1"
  for _ in $(seq 1 100); do
    [ -s "${file}" ] && return 0
    sleep 0.1
  done
  echo "error: ${file} never appeared — server failed to start" >&2
  return 1
}

# Per-role trace/metrics flags, only in trace mode ("" expands to nothing).
obs_flags() {
  if [ "${trace_mode}" = 1 ]; then
    echo "--trace-out ${work}/$1_trace.json --metrics-out ${work}/$1_metrics.json"
  fi
}

# The driver's export carries the simulator's two sample distributions as
# HDR histograms; check_trace.py --served reconciles the latency one against
# the sample spans. No role may export the removed fixed-bin type.
require_driver_histograms() {
  for name in runtime.hdr_latency_ms runtime.sample_bytes; do
    grep -q "\"name\": \"${name}\", \"type\": \"hdr\"" "$1" || {
      echo "error: $1 lacks ${name} as an hdr histogram" >&2
      exit 1
    }
  done
  for f in "${work}"/*_metrics.json; do
    if grep -q '"type": "histogram"' "${f}"; then
      echo "error: ${f} exports a fixed-bin histogram" >&2
      exit 1
    fi
  done
}

sim_trace_flags=()
sim_outage_trace_flags=()
if [ "${trace_mode}" = 1 ]; then
  sim_trace_flags=(--trace-out "${work}/sim_trace.json")
  sim_outage_trace_flags=(--trace-out "${work}/sim_outage_trace.json")
fi

echo "== serve e2e: train + simulate oracle"
"${ddnn}" train "${model_flags[@]}" --epochs 1 \
  --out "${work}/model.ddnn" >/dev/null
"${ddnn}" simulate "${model_flags[@]}" --model "${work}/model.ddnn" \
  --decisions-out "${work}/sim.csv" "${sim_trace_flags[@]}" >/dev/null
"${ddnn}" simulate "${model_flags[@]}" --model "${work}/model.ddnn" \
  --outage 0:1000000 --decisions-out "${work}/sim_outage.csv" \
  "${sim_outage_trace_flags[@]}" >/dev/null

echo "== serve e2e: round 1 — healthy 3-process hierarchy"
"${ddnn}" serve --role cloud "${model_flags[@]}" --model "${work}/model.ddnn" \
  --listen 0 --port-file "${work}/cloud.port" --idle-timeout 120 \
  $(obs_flags cloud) >"${work}/cloud.log" 2>&1 &
cloud_pid=$!
pids+=("${cloud_pid}")
wait_port_file "${work}/cloud.port"

top_pid=""
if [ "${trace_mode}" = 1 ]; then
  # Live telemetry poller: watches the cloud for the whole round, takes one
  # last snapshot when the stop file appears. Its connection must not
  # perturb the hierarchy (the decisions CSV still has to match the
  # simulator byte-for-byte).
  "${ddnn}" top --target "127.0.0.1:$(cat "${work}/cloud.port")" \
    --interval-ms 500 --stop-file "${work}/top.stop" \
    --json-out "${work}/top.json" >"${work}/top.log" 2>&1 &
  top_pid=$!
  pids+=("${top_pid}")
fi

"${ddnn}" serve --role edge "${model_flags[@]}" --model "${work}/model.ddnn" \
  --listen 0 --port-file "${work}/edge.port" \
  --cloud "127.0.0.1:$(cat "${work}/cloud.port")" --idle-timeout 120 \
  $(obs_flags edge) >"${work}/edge.log" 2>&1 &
edge_pid=$!
pids+=("${edge_pid}")
wait_port_file "${work}/edge.port"

driver_env=()
if [ "${trace_mode}" = 1 ]; then
  mkdir -p "${work}/results"
  driver_env=(DDNN_RESULTS_DIR="${work}/results")
fi
env "${driver_env[@]}" \
  "${ddnn}" serve --role device "${model_flags[@]}" \
  --model "${work}/model.ddnn" \
  --edge "127.0.0.1:$(cat "${work}/edge.port")" \
  --cloud "127.0.0.1:$(cat "${work}/cloud.port")" \
  --decisions-out "${work}/serve.csv" \
  $(obs_flags driver) >"${work}/driver.log" 2>&1
cmp "${work}/sim.csv" "${work}/serve.csv" || {
  echo "error: healthy serve run diverged from the simulator" >&2
  diff "${work}/sim.csv" "${work}/serve.csv" | head -10 >&2
  exit 1
}
echo "   healthy round: decisions byte-identical to the simulator"

if [ "${trace_mode}" = 1 ]; then
  # The servers write their trace/metrics files at exit: the edge leaves
  # once the driver hangs up; the cloud stays up for the poller, so its
  # registry is frozen well before `top` takes the final snapshot.
  wait "${edge_pid}"
  sleep 2  # let the cloud consume the edge's Bye before the last poll
  touch "${work}/top.stop"
  wait "${top_pid}"
  wait "${cloud_pid}"

  echo "== serve e2e: distributed trace + telemetry checks (healthy)"
  # Note: only the MERGED timeline satisfies the per-sample byte invariant —
  # the edge->cloud send spans live in the edge's trace, not the driver's.
  "${ddnn}" trace-merge "${work}/driver_trace.json" \
    "${work}/edge_trace.json" "${work}/cloud_trace.json" \
    --out "${work}/merged.json" >/dev/null
  "${ddnn}" trace-merge "${work}/driver_trace.json" \
    "${work}/edge_trace.json" "${work}/cloud_trace.json" \
    --out "${work}/merged_again.json" >/dev/null
  cmp "${work}/merged.json" "${work}/merged_again.json" || {
    echo "error: trace-merge is not deterministic" >&2
    exit 1
  }
  python3 "${script_dir}/check_trace.py" "${work}/merged.json" \
    "${work}/driver_metrics.json" --served \
    --oracle "${work}/sim_trace.json"
  require_driver_histograms "${work}/driver_metrics.json"
  cmp "${work}/top.json" "${work}/cloud_metrics.json" || {
    echo "error: final ddnn top snapshot diverged from the cloud's own" \
      "--metrics-out export" >&2
    diff "${work}/top.json" "${work}/cloud_metrics.json" | head -10 >&2
    exit 1
  }
  python3 "${script_dir}/check_bench.py" \
    --ledger "${work}/results/ledger.jsonl" \
    --baselines "${repo_root}/bench/baselines" serve
  echo "   healthy round: merged trace matches the simulator oracle," \
    "telemetry reconciled"
fi

echo "== serve e2e: round 2 — blackholed edge forces the timeout ladder"
"${ddnn}" serve --role cloud "${model_flags[@]}" --model "${work}/model.ddnn" \
  --listen 0 --port-file "${work}/cloud2.port" --idle-timeout 120 \
  $(obs_flags cloud2) >"${work}/cloud2.log" 2>&1 &
cloud2_pid=$!
pids+=("${cloud2_pid}")
wait_port_file "${work}/cloud2.port"
"${ddnn}" serve --role edge "${model_flags[@]}" --model "${work}/model.ddnn" \
  --listen 0 --port-file "${work}/edge2.port" --blackhole \
  --idle-timeout 120 >"${work}/edge2.log" 2>&1 &
pids+=($!)
wait_port_file "${work}/edge2.port"
"${ddnn}" serve --role device "${model_flags[@]}" \
  --model "${work}/model.ddnn" \
  --edge "127.0.0.1:$(cat "${work}/edge2.port")" \
  --cloud "127.0.0.1:$(cat "${work}/cloud2.port")" \
  --decision-timeout 2 \
  --decisions-out "${work}/serve_outage.csv" \
  $(obs_flags driver2) >"${work}/driver2.log" 2>&1
cmp "${work}/sim_outage.csv" "${work}/serve_outage.csv" || {
  echo "error: degraded serve run diverged from the outage simulation" >&2
  diff "${work}/sim_outage.csv" "${work}/serve_outage.csv" | head -10 >&2
  exit 1
}
# The round only proves something if the degradation route actually fired.
degraded=$(awk -F, 'NR > 1 && $6 == 1' "${work}/serve_outage.csv" | wc -l)
if [ "${degraded}" -eq 0 ]; then
  echo "error: blackholed round produced no degraded samples" >&2
  exit 1
fi
echo "   blackholed round: ${degraded} degraded samples, byte-identical to" \
  "the outage simulation"

if [ "${trace_mode}" = 1 ]; then
  # The blackholed edge never answers and only dies at its idle timeout, so
  # its trace cannot be harvested; the degraded span tree lives entirely in
  # the driver + cloud processes — exactly what the outage oracle records
  # (a dark edge emits no spans in the simulator either).
  wait "${cloud2_pid}"
  echo "== serve e2e: distributed trace checks (degraded)"
  "${ddnn}" trace-merge "${work}/driver2_trace.json" \
    "${work}/cloud2_trace.json" --out "${work}/merged_outage.json" >/dev/null
  python3 "${script_dir}/check_trace.py" "${work}/merged_outage.json" \
    "${work}/driver2_metrics.json" --served \
    --oracle "${work}/sim_outage_trace.json"
  require_driver_histograms "${work}/driver2_metrics.json"
  echo "   degraded round: merged trace matches the outage oracle"
fi

echo "serve e2e passed"

#!/usr/bin/env bash
# The smoke gates: every end-to-end check beyond ctest, one function per
# suite, each run on the build config it needs (as in ci.yml):
#   obs, perf                       Release, -DSPCD_WERROR=ON
#   chaos, adversarial, service,    RelWithDebInfo with
#   service-chaos, resume,          -DSPCD_SANITIZE=address,undefined and
#   mapper-scale                    the ASAN_OPTIONS/UBSAN_OPTIONS of ci.yml
#   tsan                            RelWithDebInfo, -DSPCD_SANITIZE=thread
# Usage: [BUILD_DIR=build] [ARTIFACTS=ci-artifacts] ci/smoke.sh SUITE...
# A suite builds its targets and writes to an emptied $ARTIFACTS/<suite>
# (paths relative to the repo root), and stops at its first failed check.
# Exit 1 if any suite failed, 2 for an unknown suite.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
BUILD_DIR=${BUILD_DIR:-build}
ARTIFACTS=${ARTIFACTS:-ci-artifacts}
SUITES=(chaos adversarial service service-chaos resume mapper-scale obs perf
  tsan)
REFERENCE_CACHE=bench/reference/spcd_results_r2_s0.05.cache
SPCDD=$BUILD_DIR/examples/spcdd

build() { cmake --build "$BUILD_DIR" -j "$(nproc)" --target "$@"; }

# records JOURNAL: the record frames in a util::Journal file, 0 before it
# exists. A journal's size is no measure of progress: an open one carries
# a zero tail of 64 KiB and more.
records() {
  local n
  n=$(grep -ac '^#rec ' "$1" 2>/dev/null) || true
  echo "${n:-0}"
}

# serve LOG ADDR ARGS...: start `spcdd --serve` in the background on ADDR,
# a Unix socket path or 127.0.0.1:0 (an ephemeral TCP port), with its
# stdout in LOG, and wait until it listens. Sets DAEMON_PID, and
# DAEMON_ADDR to the socket path or the bound host:port.
serve() {
  local log=$1 addr=$2 flag=--socket
  shift 2
  [[ $addr == 127.0.0.1:0 ]] && flag=--tcp
  : > "$log"
  "$SPCDD" --serve "$flag" "$addr" "$@" > "$log" &
  DAEMON_PID=$!
  DAEMON_ADDR=
  for _ in $(seq 1 100); do
    if [[ $flag == --socket ]]; then
      [ -S "$addr" ] && DAEMON_ADDR=$addr
    else
      DAEMON_ADDR=$(sed -n 's/.*tcp:\(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log")
    fi
    [ -n "$DAEMON_ADDR" ] && break
    sleep 0.1
  done
  test -n "$DAEMON_ADDR"
}

suite_chaos() {
  build ablation_robustness spcdsim
  export SPCD_ABLATION_SCALE=0.05
  "$BUILD_DIR/bench/ablation_robustness"
  "$BUILD_DIR/examples/spcdsim" --bench cg --reps 1 --scale 0.05 --chaos 1.0
}

# The ablation exits nonzero unless the hardened penalty is strictly below
# the unhardened one at every intensity >= 0.5.
suite_adversarial() {
  build ablation_adversarial spcdsim
  export SPCD_ABLATION_SCALE=0.1 SPCD_ADVERSARIAL_BENCHES=cg
  "$BUILD_DIR/bench/ablation_adversarial"
  "$BUILD_DIR/examples/spcdsim" --bench cg --reps 1 --scale 0.05 \
    --adversary skew --adv-intensity 1.0 --harden
}

# 8 tenants x 8 threads over the Unix socket on an overcommitted topology
# with one cramped table shard: every interference counter must be nonzero,
# and the journal must replay to the same metrics.
suite_service() {
  build spcdd
  local dir=$1 journal=$1/spcdd.journal
  serve "$dir/serve.log" "$dir/spcdd.sock" \
    --journal "$journal" --shards 1 --entries 64 --interval 1024 \
    --metrics-out "$dir/metrics.json" --quiet
  "$SPCDD" --drive --socket "$DAEMON_ADDR" --tenants 8 --threads 8
  kill -TERM "$DAEMON_PID"
  wait "$DAEMON_PID"
  python3 - "$dir/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m['schema'] == 'spcd-service-v2', m['schema']
assert m['total_events'] == 8 * 16 * 256, m['total_events']
assert len(m['tenants']) == 8
interference = m['interference']
for counter in ('arbitrations', 'contexts_stolen',
                'cross_tenant_core_shares', 'tenant_socket_splits',
                'cross_tenant_evictions'):
    assert interference[counter] > 0, (counter, interference)
assert 'thread_migrations' in interference
print('interference:', interference)
EOF
  "$SPCDD" --replay "$journal" --metrics-out "$dir/replay_metrics.json" \
    --quiet
  cmp "$dir/metrics.json" "$dir/replay_metrics.json"
}

suite_service_chaos() {
  build spcdd
  local dir=$1 journal=$1/spcdd.journal
  # 8 tenants over TCP through the network fault injector, with liveness
  # sweeps and a cramped rotation threshold: all complete, the journal
  # rotates, and the chain replays to the same metrics and decisions.
  serve "$dir/serve.log" 127.0.0.1:0 \
    --journal "$journal" --journal-max-records 120 \
    --heartbeat-ms 2000 --interval 1024 \
    --metrics-out "$dir/metrics.json" \
    --decisions-out "$dir/decisions.txt" --quiet
  SPCD_CHAOS_NET_TEAR=0.03 SPCD_CHAOS_NET_DROP=0.03 \
    SPCD_CHAOS_NET_DUP=0.05 SPCD_CHAOS_NET_SEED=7 \
    "$SPCDD" --drive --tcp "$DAEMON_ADDR" \
    --tenants 8 --threads 4 --batches 12 --events 256 \
    --rereg-every 5 --heartbeat-every 3
  kill -TERM "$DAEMON_PID"
  wait "$DAEMON_PID"
  test -e "$journal.g0"
  "$SPCDD" --replay "$journal" \
    --metrics-out "$dir/replay_metrics.json" \
    --decisions-out "$dir/replay_decisions.txt" --quiet
  cmp "$dir/metrics.json" "$dir/replay_metrics.json"
  cmp "$dir/decisions.txt" "$dir/replay_decisions.txt"

  # SIGKILL the daemon mid-fleet; the surviving chain (its live tail may be
  # torn) must replay twice to the same metrics and decisions.
  journal=$dir/killed.journal
  serve "$dir/killed_serve.log" 127.0.0.1:0 \
    --journal "$journal" --journal-max-records 120 \
    --heartbeat-ms 2000 --interval 1024 --quiet
  SPCD_CHAOS_NET_TEAR=0.03 SPCD_CHAOS_NET_DUP=0.05 \
    SPCD_CHAOS_NET_SEED=11 \
    "$SPCDD" --drive --tcp "$DAEMON_ADDR" \
    --tenants 8 --threads 4 --batches 200 --events 256 \
    --heartbeat-every 3 --quiet &
  local driver=$!
  while [ "$(records "$journal")" -lt 15 ]; do
    sleep 0.1
  done
  kill -KILL "$DAEMON_PID"
  wait "$DAEMON_PID" || true
  kill -TERM "$driver" 2>/dev/null || true
  wait "$driver" || true
  for leg in a b; do
    "$SPCDD" --replay "$journal" \
      --metrics-out "$dir/killed_metrics_$leg.json" \
      --decisions-out "$dir/killed_decisions_$leg.txt" --quiet
  done
  cmp "$dir/killed_metrics_a.json" "$dir/killed_metrics_b.json"
  cmp "$dir/killed_decisions_a.txt" "$dir/killed_decisions_b.txt"
}

suite_resume() {
  build spcd_pipeline
  local pipeline=$BUILD_DIR/bench/spcd_pipeline cache=$1/spcd_results.cache
  # SIGKILL a sweep mid-grid, resume it: the exact reference bytes.
  "$pipeline" --reps 2 --scale 0.05 --jobs 2 --cache "$cache" --no-progress &
  local pid=$!
  while [ "$(records "$cache.journal")" -lt 5 ]; do
    sleep 0.1
  done
  kill -KILL "$pid"
  wait "$pid" || true
  test -s "$cache.journal"
  test ! -e "$cache"
  "$pipeline" --reps 2 --scale 0.05 --jobs 2 --cache "$cache" --no-progress \
    --resume
  cmp "$cache" "$REFERENCE_CACHE"
}

suite_mapper_scale() {
  build fig17_mapper_scale spcd_pipeline
  local dir=$1
  # Fig. 17's CSV has no wall times, so two runs are byte-identical.
  "$BUILD_DIR/bench/fig17_mapper_scale" --repeats 1 --csv "$dir/fig17_a.csv"
  "$BUILD_DIR/bench/fig17_mapper_scale" --repeats 1 \
    --csv "$dir/fig17_b.csv" > /dev/null
  cmp "$dir/fig17_a.csv" "$dir/fig17_b.csv"
  # Naming the default strategy is a no-op: the reference bytes.
  "$BUILD_DIR/bench/spcd_pipeline" --reps 2 --scale 0.05 --jobs 2 \
    --mapper blossom --no-progress --cache "$dir/spcd_results.cache"
  cmp "$dir/spcd_results.cache" "$REFERENCE_CACHE"
}

suite_obs() {
  # Knob drift: each quoted SPCD_* name in the code is read at one site and
  # has exactly one row in README's knob tables, and each row names a knob.
  diff <(grep -rhoE '"SPCD_[A-Z0-9_]+"' src bench examples | tr -d '"' |
    sort) <(grep -oE '^\| `SPCD_[A-Z0-9_]+`' README.md | tr -d '|` ' | sort)
  build spcdsim fig08_execution_time
  local dir=$1
  export SPCD_OUT_DIR=$dir
  "$BUILD_DIR/examples/spcdsim" --bench cg --reps 2 --scale 0.05 \
    --trace-out "$dir/trace.json" --metrics-out "$dir/metrics.json"
  python3 -m json.tool "$dir/trace.json" > /dev/null
  python3 -m json.tool "$dir/metrics.json" > /dev/null
  SPCD_TRACE=1 SPCD_REPS=2 SPCD_SCALE=0.02 \
    SPCD_CACHE="$dir/spcd_results.cache" \
    "$BUILD_DIR/bench/fig08_execution_time" > /dev/null
  python3 -m json.tool "$dir/pipeline_trace.json" > /dev/null
  test -s "$dir/pipeline_cells.csv"
  test -s "$dir/fig8.csv"
}

suite_perf() {
  build fig08_execution_time
  local dir=$1
  # The figure pipeline reproduces the committed cache byte for byte.
  SPCD_OUT_DIR=$dir SPCD_CACHE="$dir/spcd_results.cache" SPCD_REPS=2 \
    SPCD_SCALE=0.05 "$BUILD_DIR/bench/fig08_execution_time" > /dev/null
  cmp "$dir/spcd_results.cache" "$REFERENCE_CACHE"
  # bench/e2e's statistics self-test; every workload at ~1/20 size behind
  # its gates; and the full-scale cell_serial, whose exit code pins the
  # recorded cell digest (no timing bound).
  python3 bench/e2e/run.py --self-test
  python3 bench/e2e/run.py --smoke
  python3 bench/e2e/run.py --workload cell_serial --seconds 10
}

# The concurrency surface: thread pool, runner, the hierarchical mapper's
# parallel refinement (256 threads scored at 1, 2 and 7 jobs), the service's
# group commit, drain (its stop flag read by the sessions, its stop
# predicate by the accept loop), reconnecting client and network chaos, and
# spcd_pipeline's stop flag (written by its signal handler, read by each
# cell before it starts).
suite_tsan() {
  build sim_engine_test util_thread_pool_test core_runner_test \
    core_hierarchical_mapper_test svc_group_commit_test \
    svc_server_drain_test svc_client_reconnect_test svc_net_chaos_test \
    svc_transport_test integration_signal_shutdown_test
  TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
    GTEST_DEATH_TEST_STYLE=threadsafe \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -R \
    'EngineTest|ThreadPool|ConfiguredJobs|RunnerTest|HierarchicalMapperTest\.ResultIsIdenticalAtAnyRefineJobCount|SvcGroupCommit|SvcServerDrain|SvcClientReconnect|SvcNetChaos|SvcTransport|SignalShutdown'
}

for suite in "${@:-}"; do
  [[ " ${SUITES[*]} " == *" $suite "* ]] && continue
  echo "ci/smoke.sh: unknown suite '$suite'; suites: ${SUITES[*]}" >&2
  exit 2
done

# Each suite runs in a background subshell: errexit stays on inside it (a
# subshell tested by `if` would switch it off), its exports stay inside,
# and the children it leaves behind (a daemon after a failed check) are
# killed when it exits.
failed=()
for suite in "$@"; do
  dir=$ARTIFACTS/$suite
  rm -rf "$dir" && mkdir -p "$dir"
  start=$SECONDS
  echo "=== $suite"
  (trap 'pkill -P $BASHPID || true; wait' EXIT
    "suite_${suite//-/_}" "$dir") &
  if wait $!; then
    echo "=== $suite passed in $((SECONDS - start)) s"
  else
    echo "=== $suite FAILED after $((SECONDS - start)) s" >&2
    failed+=("$suite")
  fi
done
[ ${#failed[@]} -eq 0 ] || { echo "failed: ${failed[*]}" >&2; exit 1; }

#!/usr/bin/env bash
# CI smoke runner: one place for every `python -m repro ...` smoke the
# workflow used to inline.  Each subcommand is a fast end-to-end check
# of one subsystem; JSON-emitting smokes tee their payloads into
# $SMOKE_OUT so the workflow can upload them as artifacts.
#
# Usage:
#   scripts/ci_smoke.sh <serve|chaos|fleet-chaos|profile|kernels|integer|sim|sweep|search|control|all>
#
# Environment:
#   SMOKE_OUT   directory for JSON artifacts (default /tmp/repro-smoke)
set -euo pipefail

export PYTHONPATH="${PYTHONPATH:-src}"
OUT="${SMOKE_OUT:-/tmp/repro-smoke}"
mkdir -p "$OUT"

smoke_serve() {
  echo "== smoke: serving engine"
  python -m repro serve-bench \
    --requests 64 --workers 2 --max-batch 8 \
    --concurrency 16 --calibration 64 --skip-baseline \
    --json | tee "$OUT/serve.json" >/dev/null
  python - "$OUT/serve.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["report"]["completed"] == 64, payload["report"]
assert payload["client_errors"] == 0
# the backend the servable ran on; nothing picks another one
assert payload["backend"] == "fused", payload["backend"]
print(f"serve smoke: {payload['report']['throughput_ips']:.0f} img/s, "
      f"p99 {payload['report']['latency_ms_p99']:.1f} ms")
EOF
}

smoke_chaos() {
  echo "== smoke: seeded chaos, zero lost futures"
  local chaos_run=(python -m repro serve-bench \
    --requests 256 --workers 2 --max-batch 8 \
    --concurrency 16 --calibration 64 --skip-baseline \
    --chaos 0 --deadline-ms 500)
  "${chaos_run[@]}" --json | tee "$OUT/chaos.json" >/dev/null
  # the text report exits by the same rule: typed failures are the
  # point of chaos, so only a lost future may fail it
  "${chaos_run[@]}" >/dev/null
  python - "$OUT/chaos.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["lost"] == 0, payload
print(f"chaos smoke: {payload['accounted']}/{payload['submitted']} "
      f"accounted, {payload['injected_faults']} faults injected")
EOF
}

smoke_fleet_chaos() {
  echo "== smoke: fleet chaos (2 replicas, one killed mid-run)"
  # --crash-after makes replica 1 die after two batches; the CLI exits
  # non-zero unless the monitor respawned it (restarts >= 1) and every
  # future resolved (lost == 0)
  python -m repro serve-bench \
    --requests 128 --max-batch 8 --concurrency 16 \
    --calibration 32 --skip-baseline \
    --replicas 2 --crash-after 2 \
    --json | tee "$OUT/fleet_chaos.json" >/dev/null
  python - "$OUT/fleet_chaos.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["lost"] == 0, payload
assert payload["fleet"]["restarts"] >= 1, payload["fleet"]
assert payload["report"]["completed"] == 128, payload["report"]
# the replica-side view counts the crashed incarnation's batches too
assert payload["replica_compute"]["completed"] == 128, payload["replica_compute"]
# every replica, the respawned incarnation too, computes on one BLAS
# thread wherever this process can see an OpenBLAS
from repro.parallel.blas import blas_threads
if blas_threads() is not None:
    threads = {i: r["blas_threads"] for i, r in payload["fleet"]["replicas"].items()}
    assert set(threads.values()) == {1}, threads
print(f"fleet-chaos smoke: {payload['fleet']['restarts']} restart(s), "
      f"{payload['fleet']['resubmissions']} resubmission(s), 0 lost")
EOF
}

smoke_profile() {
  echo "== smoke: energy/latency profiler (default and reference backends)"
  python -m repro profile --precision fixed8 --limit 64
  python -m repro profile --backend reference --precision fixed8 --limit 16
}

smoke_kernels() {
  echo "== smoke: fused kernels (per-unit table + bitwise parity gate)"
  python -m repro profile --backend fused --precision fixed8 --limit 64
  python -m repro profile --backend fused --network convnet \
    --precision fixed4 --limit 32
  # padded channel-major convs, a ceil-mode max pool and avg pools
  python -m repro profile --backend fused --network alex_small \
    --precision binary --limit 64
  python -m pytest -q tests/kernels/test_parity.py
  # The rectifier, quantizer, pooling and layout oracles again, on
  # numpy's baseline SIMD loops: which zero fmax returns for a
  # (-0.0, +0.0) tie depends on the loop numpy dispatches, and the pools
  # walk contiguous or strided views depending on their input's memory
  # order.  The training pins follow the exp/log/tanh loops too; their
  # canary must notice and skip them, never fail.
  local dispatched
  dispatched=$(python -c "from numpy._core import _multiarray_umath as m
print(' '.join(f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f)))")
  echo "== baseline SIMD loops (NPY_DISABLE_CPU_FEATURES='$dispatched')"
  NPY_DISABLE_CPU_FEATURES="$dispatched" python -m pytest -q \
    tests/nn/test_activations.py tests/nn/test_pooling.py \
    tests/nn/test_layout.py tests/kernels/test_parity.py \
    tests/core/test_fixed_point.py tests/core/test_training_bitwise.py
}

smoke_integer() {
  echo "== smoke: integer golden model (logits bit-identical to the emulation)"
  # exit status is the verdict: the example exits 1 unless every
  # integer logit equals the float emulation's
  python examples/integer_deployment.py
}

smoke_sim() {
  echo "== smoke: cycle-level simulator cross-check"
  python -m repro simulate --network lenet_small --precision fixed8 \
    --json | tee "$OUT/sim.json" >/dev/null
  python -m repro simulate --network lenet --validate
}

smoke_sweep() {
  echo "== smoke: parallel precision sweep"
  run_sweep() {
    python -m repro sweep \
      --network lenet_small \
      --precisions float32 fixed8 binary \
      --n-train 128 --n-test 64 --float-epochs 1 --qat-epochs 1 \
      --json "$@"
  }
  # A cold cache, so the 2-worker run trains on its pool workers (one
  # BLAS thread each); the 1-worker run trains in this process at the
  # host's BLAS thread count, and must give the same results.
  rm -rf /tmp/repro-sweep-cache
  run_sweep --workers 2 --cache-dir /tmp/repro-sweep-cache \
    | tee "$OUT/sweep.json" >/dev/null
  run_sweep --workers 1 --no-cache | tee "$OUT/sweep-1worker.json" >/dev/null
  python - "$OUT/sweep.json" "$OUT/sweep-1worker.json" <<'EOF'
import json, sys
two, one = (json.load(open(path)) for path in sys.argv[1:])
points = [[(r["precision"], r["accuracy"], r["converged"]) for r in run["results"]]
          for run in (two, one)]
assert points[0] == points[1], points
print(f"sweep smoke: {len(points[0])} points identical at 2 workers "
      f"({two['elapsed_s']:.2f} s) and 1 worker ({one['elapsed_s']:.2f} s)")
EOF
}

smoke_search() {
  echo "== smoke: mixed-precision & width search -> promoted channel"
  rm -rf /tmp/repro-search-cache /tmp/repro-search-registry \
    /tmp/repro-search-registry-replay
  run_search() {
    python -m repro search \
      --task lenet_small --energy-budget 50 \
      --generations 2 --population 3 --survivors 3 \
      --widths 0.5 1.0 --weight-bits 2 4 8 \
      --n-train 256 --n-test 96 --float-epochs 1 --qat-epochs 1 \
      --cache-dir /tmp/repro-search-cache --json "$@"
  }
  run_search --registry /tmp/repro-search-registry \
    | tee "$OUT/search.json" >/dev/null
  # The replay serves every point from the cache, so publishing reads
  # each published point's weights from its .npz on first use; no other
  # CI step exercises that path.
  run_search --resume --registry /tmp/repro-search-registry-replay \
    | tee "$OUT/search-replay.json" >/dev/null
  python - "$OUT/search.json" "$OUT/search-replay.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["promoted"], payload.get("rejected")
assert payload["frontier"], payload
assert all(p["energy_uj"] <= 50.0 for p in payload["frontier"]), payload
print(f"search smoke: {payload['evaluated']} evaluated, "
      f"{len(payload['frontier'])} frontier point(s), "
      f"{len(payload['promoted'])} promoted, "
      f"dominates_fixed_grid={payload['dominates_fixed_grid']}")

replay = json.load(open(sys.argv[2]))
assert replay["cache_misses"] == 0, replay["cache_misses"]
frontier = [[(p["label"], p["accuracy"], p["energy_uj"]) for p in run["frontier"]]
            for run in (payload, replay)]
assert frontier[0] == frontier[1], frontier
promoted = [[(e["label"], e["digest"]) for e in run["promoted"]]
            for run in (payload, replay)]
assert promoted[0] == promoted[1], promoted
print(f"search replay: {replay['cache_hits']} hits, 0 misses, same frontier, "
      f"{len(replay['promoted'])} identical promoted digest(s)")
EOF
  # search -> registry -> serve: the channel the search just promoted
  # serves its head (often a per-layer spec such as fixed:2,4,8,8:8) at
  # the head's own widths, in process and from one replica.
  local replicas
  for replicas in 0 1; do
    python -m repro serve-bench \
      --registry /tmp/repro-search-registry --channel search-lenet_small \
      --replicas "$replicas" --skip-baseline --json \
      | tee "$OUT/search-serve-$replicas.json" >/dev/null
  done
  python - /tmp/repro-search-registry "$OUT"/search-serve-{0,1}.json <<'EOF'
import json, sys
from repro import registry
store = registry.ArtifactStore(sys.argv[1])
head = registry.Channel(store, "search-lenet_small").active_manifest()
for path in sys.argv[2:]:
    payload = json.load(open(path))
    assert payload["lost"] == 0, payload
    assert payload["client_errors"] == 0, payload
    assert payload["precision"] == head.precision, (payload["precision"], head)
    assert payload["registry"]["digest"] == head.digest, payload["registry"]
print(f"search serve: {head.network}|{head.precision} "
      f"({head.digest[:12]}) served in process and from a replica, 0 lost")
EOF
  # A corrupt resume state is a usage error (exit 2, `error:` on
  # stderr) that says to delete the file, not a traceback.
  local state status=0
  for state in /tmp/repro-search-cache/search-*.json; do
    printf '{not json' > "$state"
  done
  run_search --resume >/dev/null 2>"$OUT/search-corrupt.err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q '^error: resume:' "$OUT/search-corrupt.err"; then
    echo "search smoke: a corrupt state file exited $status:" >&2
    cat "$OUT/search-corrupt.err" >&2
    return 1
  fi
  echo "search resume: a corrupt state file exits 2 with a typed error"
}

smoke_control() {
  echo "== smoke: closed-loop autotuner under a flash crowd"
  # exit status is the verdict: non-zero unless the SLO held and no
  # request was lost, so the scenario itself is the assertion
  python -m repro serve-bench \
    --autotune --scenario flash_crowd --scenario-time-scale 0.2 \
    --workers 1 --max-batch 8 --slo-ms 8 --calibration 64 \
    --json | tee "$OUT/control.json" >/dev/null
  python - "$OUT/control.json" <<'EOF'
import json, sys
payload = json.load(open(sys.argv[1]))
control = payload["control"]
assert control["passed"], control
assert control["attainment"] >= control["attainment_target"], control
assert control["lost"] == 0, control
assert control["knob_trajectory"], control
print(f"control smoke: attainment {100 * control['attainment']:.1f}% "
      f"over {control['windows']} windows, "
      f"{len(control['actions'])} action(s), "
      f"energy saved {control['energy_saved_pct']:.1f}%")
EOF
}

usage() {
  grep '^#   scripts/' "$0" | sed 's/^# *//'
  exit 2
}

[ $# -ge 1 ] || usage
for target in "$@"; do
  case "$target" in
    serve)        smoke_serve ;;
    chaos)        smoke_chaos ;;
    fleet-chaos)  smoke_fleet_chaos ;;
    profile)      smoke_profile ;;
    kernels)      smoke_kernels ;;
    integer)      smoke_integer ;;
    sim)          smoke_sim ;;
    sweep)        smoke_sweep ;;
    search)       smoke_search ;;
    control)      smoke_control ;;
    all)          smoke_serve; smoke_chaos; smoke_fleet_chaos; \
                  smoke_profile; smoke_kernels; smoke_integer; smoke_sim; \
                  smoke_sweep; smoke_search; smoke_control ;;
    *)            echo "unknown smoke target: $target" >&2; usage ;;
  esac
done

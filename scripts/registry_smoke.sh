#!/usr/bin/env bash
# End-to-end registry lifecycle smoke for CI: train a tiny sweep,
# publish the artifacts, promote through the Pareto gate, serve the
# active artifact, roll back, and verify the prior digest is active
# again.  Mirrors docs/registry.md; any step failing fails the run.
set -euo pipefail

ROOT="${1:-$(mktemp -d)}"
mkdir -p "$ROOT"
export PYTHONPATH="${PYTHONPATH:-src}"

echo "== registry smoke: root=$ROOT"

python -m repro sweep --network lenet_small \
  --precisions float32 fixed8 \
  --n-train 128 --n-test 64 --float-epochs 1 --qat-epochs 0 \
  --no-cache --publish "$ROOT" --json > "$ROOT/sweep.json"

digest_for() {
  python - "$ROOT/sweep.json" "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as handle:
    payload = json.load(handle)
print(next(a["digest"] for a in payload["artifacts"]
           if a["precision"] == sys.argv[2]))
EOF
}

FLOAT_DIGEST=$(digest_for float32)
FIXED_DIGEST=$(digest_for fixed8)
echo "== published float32=$FLOAT_DIGEST fixed8=$FIXED_DIGEST"
python -m repro registry list --root "$ROOT"

# v1: the float baseline (no incumbent, the gate trivially passes).
python -m repro registry promote --root "$ROOT" --channel prod "$FLOAT_DIGEST"
# v2: fixed8 is strictly cheaper on energy, so the incumbent can never
# dominate it — the Pareto gate must admit this promotion.
python -m repro registry promote --root "$ROOT" --channel prod "$FIXED_DIGEST"

# Serve the active artifact; the exit code is non-zero on any client
# error or lost request.
python -m repro serve-bench --registry "$ROOT" --channel prod \
  --requests 32 --concurrency 8 --workers 2 --skip-baseline

# Roll back and verify the prior digest is active again.
python -m repro registry rollback --root "$ROOT" --channel prod

active_digest() {
  python - "$ROOT" <<'EOF'
import json, os, sys
with open(os.path.join(sys.argv[1], "channels", "prod.json")) as handle:
    payload = json.load(handle)
entry = next(v for v in payload["versions"] if v["version"] == payload["active"])
print(entry["digest"])
EOF
}

ACTIVE=$(active_digest)
if [ "$ACTIVE" != "$FLOAT_DIGEST" ]; then
  echo "rollback did not restore the prior digest:" \
       "active=$ACTIVE expected=$FLOAT_DIGEST" >&2
  exit 1
fi
echo "== rollback restored v1 ($FLOAT_DIGEST)"

# -- fleet canary rollouts -------------------------------------------
# Healthy canary: the fixed8 candidate runs on one of two replicas,
# beats the float incumbent's error rate/p99, and is auto-promoted.
# --expect makes the CLI exit non-zero on any other outcome.
python -m repro serve-bench --registry "$ROOT" --channel prod \
  --replicas 2 --requests 64 --concurrency 8 --max-batch 8 \
  --calibration 32 --skip-baseline \
  --canary "$FIXED_DIGEST" --canary-min-requests 10 \
  --expect promoted --json > "$ROOT/canary_promote.json"

ACTIVE=$(active_digest)
if [ "$ACTIVE" != "$FIXED_DIGEST" ]; then
  echo "healthy canary did not promote the candidate:" \
       "active=$ACTIVE expected=$FIXED_DIGEST" >&2
  exit 1
fi
echo "== healthy canary promoted fixed8 ($FIXED_DIGEST)"

# Regressing canary: redeploy the float artifact as a canary with its
# forward path sabotaged; the controller must roll it back and leave
# the channel pointer untouched.
python -m repro serve-bench --registry "$ROOT" --channel prod \
  --replicas 2 --requests 64 --concurrency 8 --max-batch 8 \
  --calibration 32 --skip-baseline \
  --canary "$FLOAT_DIGEST" --canary-min-requests 10 --sabotage-canary \
  --expect rolled_back --json > "$ROOT/canary_rollback.json"

ACTIVE=$(active_digest)
if [ "$ACTIVE" != "$FIXED_DIGEST" ]; then
  echo "sabotaged canary moved the channel pointer:" \
       "active=$ACTIVE expected=$FIXED_DIGEST" >&2
  exit 1
fi
echo "== sabotaged canary rolled back, channel still on $FIXED_DIGEST"
echo "== registry smoke OK"

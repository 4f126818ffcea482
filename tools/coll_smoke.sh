#!/usr/bin/env bash
# Smoke-run the collectives bench at a small scale, validate its JSON
# against the mcnet-bench-v1 schema, and gate on two invariants:
#   * the zero-churn allreduce point completes every phase with zero
#     re-issued chunks (a quiet view never restarts, so nothing is ever
#     sent twice), and
#   * the all-to-all broadcast step model completes on every torus within
#     2x the Jung & Sakho lower bound ceil((k^n - 1) / (2n)).
# Then run the bench again at scale 1 and require its series to equal the
# committed BENCH_collectives.json exactly, so every simulated count and
# time of the collective layer is a regression oracle (about 0.3 s).
# Run from anywhere:
#   tools/coll_smoke.sh <build-dir> [out-dir]
set -euo pipefail

build_dir=${1:?usage: coll_smoke.sh <build-dir> [out-dir]}
out_dir=${2:-"${build_dir}/coll-smoke"}
repo_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
mkdir -p "${out_dir}/scale1"

export MCNET_BENCH_SCALE=${MCNET_BENCH_SCALE:-0.5}
export MCNET_BENCH_JSON_DIR="${out_dir}"

echo "== bench_collectives (scale ${MCNET_BENCH_SCALE}) =="
"${build_dir}/bench/bench_collectives"

"${build_dir}/tools/mcnet_bench_validate" "${out_dir}/bench_collectives.json"

python3 - "${out_dir}/bench_collectives.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
series = {s["name"]: s["points"] for s in doc["series"]}
for name in ("size", "chunk", "churn", "atab", "atab_model"):
    assert series.get(name), f"missing series {name!r}"

# Healthy baseline: a quiet view never re-issues a chunk and every
# started phase completes.
zero = [p for p in series["churn"] if p["x"] == 0.0]
assert zero, "churn series has no zero-churn baseline point"
p = zero[0]
assert p["chunks_reissued"] == 0, f"zero-churn allreduce re-issued chunks: {p['chunks_reissued']}"
assert p["phases_completed"] == p["phases_started"] > 0, (
    f"zero-churn phases {p['phases_completed']}/{p['phases_started']}")

# Exactly-once reduction holds on every point of every series.
for name, points in series.items():
    for pt in points:
        if "double_applies" in pt:
            assert pt["double_applies"] == 0, f"{name} x={pt['x']}: double-applied contributions"

# All-to-all broadcast step model: complete, and within 2x the Jung &
# Sakho bound ceil((k^n - 1) / (2n)) on every torus.
for pt in series["atab_model"]:
    k = int(pt["x"])
    lb = pt["atab_lower_bound"]
    steps = pt["atab_steps"]
    assert pt["atab_complete"], f"atab k={k}: schedule incomplete"
    assert lb == (pt["nodes"] - 1 + 3) // 4, f"atab k={k}: bound mismatch ({lb})"
    assert steps >= lb, f"atab k={k}: steps {steps} beat the lower bound {lb}"
    assert steps <= 2 * lb, f"atab k={k}: steps {steps} exceed 2x bound {lb}"

print(f"coll smoke: zero-churn allreduce reissued 0 chunks across "
      f"{zero[0]['phases_completed']} phases; atab within 2x bound on "
      f"{len(series['atab_model'])} tori")
EOF

echo "== bench_collectives (scale 1, against BENCH_collectives.json) =="
MCNET_BENCH_SCALE=1 MCNET_BENCH_JSON_DIR="${out_dir}/scale1" \
  "${build_dir}/bench/bench_collectives" > /dev/null

python3 - "${repo_dir}/BENCH_collectives.json" "${out_dir}/scale1/bench_collectives.json" <<'EOF'
import json, sys

committed, fresh = (json.load(open(p)) for p in sys.argv[1:3])
assert committed["scale"] == fresh["scale"] == 1, "the oracle compares scale-1 runs only"
want = {s["name"]: s["points"] for s in committed["series"]}
got = {s["name"]: s["points"] for s in fresh["series"]}
diffs = []
for name in sorted(set(want) | set(got)):
    a, b = want.get(name, []), got.get(name, [])
    if len(a) != len(b):
        diffs.append(f"{name}: {len(a)} committed points, {len(b)} now")
        continue
    for pa, pb in zip(a, b):
        fields = sorted(k for k in set(pa) | set(pb) if pa.get(k) != pb.get(k))
        if fields:
            diffs.append(f"{name} x={pa.get('x')}: " + ", ".join(
                f"{k} {pa.get(k)!r} -> {pb.get(k)!r}" for k in fields))
if diffs or fresh["series"] != committed["series"]:
    print("coll smoke: scale-1 series differ from BENCH_collectives.json:")
    for d in diffs:
        print("  " + d)
    sys.exit(1)
print(f"coll smoke: scale-1 series equal BENCH_collectives.json "
      f"({sum(len(p) for p in got.values())} points)")
EOF

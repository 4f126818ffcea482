#!/usr/bin/env bash
# Smoke-run one bench per family at a tiny scale and validate every JSON
# result file against the mcnet-bench-v1 schema.  Run from anywhere:
#   tools/bench_smoke.sh <build-dir> [out-dir]
# Exit status is non-zero when a bench fails or emits invalid JSON.
set -euo pipefail

build_dir=${1:?usage: bench_smoke.sh <build-dir> [out-dir]}
out_dir=${2:-"${build_dir}/bench-smoke"}
mkdir -p "${out_dir}"

# shellcheck source=tools/topology_matrix.sh
source "$(dirname "${BASH_SOURCE[0]}")/topology_matrix.sh"

export MCNET_BENCH_SCALE=${MCNET_BENCH_SCALE:-0.05}
export MCNET_BENCH_JSON_DIR="${out_dir}"

# One representative per family: static sweep, dynamic load sweep, dynamic
# destination sweep, ablation, fault robustness, analytic tables, and the
# mixed-traffic extension.
benches=(
  bench_fig7_01_mp_mesh       # static sweep
  bench_fig7_08_dyn_load_dc   # dynamic load sweep
  bench_fig7_09_dyn_dests_dc  # dynamic destination sweep
  bench_ablation_vct          # ablation (two sweeps, one JSON)
  bench_fault_sweep           # reliable delivery under faults
  bench_tables_ch5            # analytic tables
  bench_fig2_3_switching      # switching-model comparison
  bench_route_throughput      # cached routing throughput
)

for bench in "${benches[@]}"; do
  echo "== ${bench} (scale ${MCNET_BENCH_SCALE}) =="
  "${build_dir}/bench/${bench}" > /dev/null
done

# The kernel bench runs at full scale: its headline gate compares the
# calendar-vs-heap speedup against the committed baseline, and that ratio
# only develops once the heap's stale-backstop pending set has had time to
# bloat -- at 5 % scale the heap never degrades and the ratio undershoots.
echo "== bench_kernel (scale 1.0, headline gate) =="
MCNET_BENCH_SCALE=1.0 "${build_dir}/bench/bench_kernel" > /dev/null

# The simulator driver's trace output must stay loadable too.
"${build_dir}/tools/mcnet_sim" --topology "${MCNET_SIM_TOPOLOGY}" --algorithm dual-path \
  --dests 5 --messages 50 --interarrival-us 300 \
  --trace "${out_dir}/mcnet_sim_trace.json" --metrics > /dev/null
python3 - "${out_dir}/mcnet_sim_trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert isinstance(doc["traceEvents"], list) and doc["traceEvents"], "empty trace"
EOF

"${build_dir}/tools/mcnet_bench_validate" "${out_dir}"/bench_*.json
echo "bench smoke: all JSON results valid"

# Kernel regression gate.  Absolute events/sec are machine-dependent, so the
# gate compares the machine-independent calendar-vs-heap speedup ratio: the
# smoke run must keep >= 0.9x the committed BENCH_kernel.json headline ratio.
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
python3 - "${out_dir}/bench_kernel.json" "${repo_root}/BENCH_kernel.json" <<'EOF'
import json, sys
smoke = json.load(open(sys.argv[1]))["meta"]["headline"]
base = json.load(open(sys.argv[2]))["meta"]["headline"]
floor = 0.9 * base["speedup"]
print(f"kernel gate: smoke speedup {smoke['speedup']:.2f}x vs "
      f"baseline {base['speedup']:.2f}x (floor {floor:.2f}x)")
assert smoke["speedup"] >= floor, "kernel headline speedup regressed"
EOF
echo "bench smoke: kernel headline gate passed"

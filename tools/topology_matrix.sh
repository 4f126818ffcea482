# Topology matrix shared by the CI verification and smoke scripts.  Source
# this file (from tools/static_verify.sh or tools/bench_smoke.sh); do not
# execute it directly.

# Topology the simulator trace smoke test drives (bench_smoke.sh).
MCNET_SIM_TOPOLOGY=${MCNET_SIM_TOPOLOGY:-mesh:8x8}

# mcnet_verify matrix: "topology algorithm expectation" triples.  The naive
# tree algorithms must produce concrete deadlock witnesses; the Chapter 6
# algorithms must prove clean (no CDG cycle, no invariant violation).
MCNET_VERIFY_MATRIX=(
  # 2-D mesh
  "mesh:5x4 X-first-MT deadlock"
  "mesh:5x4 dc-X-first-tree clean"
  "mesh:5x4 dual-path clean"
  "mesh:5x4 multi-path clean"
  "mesh:5x4 fixed-path clean"
  # hypercube
  "cube:4 ecube-MT deadlock"
  "cube:4 binomial-broadcast deadlock"
  "cube:4 dual-path clean"
  "cube:4 multi-path clean"
  "cube:4 fixed-path clean"
  # 6-cube: the nCUBE-2 broadcast tree's counterexample at the paper's
  # scale (every instance from one source routes the same 63-link tree)
  "cube:6 ecube-MT deadlock"
  "cube:6 binomial-broadcast deadlock"
  "cube:6 dual-path clean"
  "cube:6 multi-path clean"
  "cube:6 fixed-path clean"
  # 3-D mesh
  "mesh3:3x3x3 dual-path clean"
  "mesh3:3x3x3 multi-path clean"
  "mesh3:3x3x3 fixed-path clean"
  # k-ary 2-cube (wraparound torus)
  "kary:4x2 dual-path clean"
  "kary:4x2 multi-path clean"
  "kary:4x2 fixed-path clean"
  # Unicast routing functions (plain Dally-Seitz CDG).  Dimension-order
  # routing deadlocks on wraparound rings with k >= 4 -- the classic torus
  # result motivating virtual channels -- but is clean on the mesh variant.
  "mesh:5x4 xfirst clean"
  "cube:4 ecube clean"
  "mesh3:3x3x3 zfirst clean"
  "karymesh:4x3 dimension-order clean"
  "kary:4x2 dimension-order deadlock"
  "mesh:5x4 label-high clean"
  "mesh:5x4 label-low clean"
  "cube:3 label-high clean"
  "cube:3 label-low clean"
)

# Adaptive-relation matrix: "topology relation mode expectation" rows, run
# with mcnet_verify --relation (mode "escape" adds --escape-channels, so
# the verdict must come from the Duato escape-channel certification; mode
# "plain" accepts CDG acyclicity).  adaptive-dual-path must certify CLEAN
# via escape channels on all five CI topologies; the deterministic relation
# views must reproduce the PR 4 verdicts; the planted min-adaptive control
# (no escape) must produce a deadlock witness everywhere, and the
# dimension-order escape control stays CLEAN except on the wraparound ring
# (the classic torus escape cycle).
MCNET_RELATION_MATRIX=(
  # Section 8.2 randomized adaptive dual-path: escape = the label router R.
  "mesh:5x4 adaptive-dual-path escape clean"
  "cube:4 adaptive-dual-path escape clean"
  "mesh3:3x3x3 adaptive-dual-path escape clean"
  "kary:4x2 adaptive-dual-path escape clean"
  "karymesh:4x3 adaptive-dual-path escape clean"
  # Deterministic relation views (validation oracles against PR 4).
  "mesh:5x4 dual-path plain clean"
  "mesh:5x4 multi-path plain clean"
  "mesh:5x4 fixed-path plain clean"
  "cube:4 dual-path plain clean"
  "cube:4 multi-path plain clean"
  "cube:4 fixed-path plain clean"
  "mesh3:3x3x3 dual-path plain clean"
  "mesh3:3x3x3 multi-path plain clean"
  "kary:4x2 dual-path plain clean"
  "kary:4x2 fixed-path plain clean"
  # Planted controls.
  "mesh:5x4 min-adaptive plain deadlock"
  "cube:4 min-adaptive plain deadlock"
  "mesh3:3x3x3 min-adaptive plain deadlock"
  "kary:4x2 min-adaptive plain deadlock"
  "karymesh:4x3 min-adaptive plain deadlock"
  "mesh:5x4 min-adaptive-escape escape clean"
  "cube:4 min-adaptive-escape escape clean"
  "mesh3:3x3x3 min-adaptive-escape escape clean"
  "karymesh:4x3 min-adaptive-escape escape clean"
  "kary:4x2 min-adaptive-escape escape deadlock"
)

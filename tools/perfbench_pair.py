#!/usr/bin/env python3
"""Paired full-stack benchmark runs: a parent checkout against a change.

    python3 tools/perfbench_pair.py PARENT CHANGE_DIR \\
        [--workload W] [--pairs N] [--seed-base S] [--seconds T]

PARENT is a checkout directory or a git revision of the repository this
tool belongs to (HEAD~1, a branch, a commit id).  A revision is checked out
with `git worktree add` into a temporary directory, which is removed again
when the tool exits.  So the parent of the working tree is one command:

    python3 tools/perfbench_pair.py HEAD~1 . --pairs 20 --seed-base 1 --seconds 2

Each pair runs perfbench/run.py once in each checkout with the same seed
(seed S + pair index), alternating which side goes first.  Workloads,
metrics, bounds and the default run length (run_seconds) come from the
BENCHMARK.json next to this tool; --workload is repeatable and defaults to
every workload.  Both sides are built (and warmed up with a
one-second run) before the first timed run.  Each pair prints a line with
its fingerprint check and both sides' run_s.

For each workload and end-to-end metric the report prints both sides'
median and quartiles, the relative change of the median, the parent's
spread (IQR / median), how many pairs the change won (ties count for
neither side) and a verdict:

    gain          >= 10 pairs, the change won >= 9/10 of them, and the
                  medians differ by more than the parent's IQR
    regression    the change's median is worse by more than the bound
    unresolved    the parent's spread exceeds the bound, so a regression
                  of that size could hide in it
    better        the spread exceeds the bound but every change run beat
                  every parent run
    identical     every pair reported the same value
    within bound  none of the above

Exit status is non-zero when a run fails or reports correct = false, or
when the two sides' fingerprint lines (kernel events, deliveries, latency
hash) differ for a seed.  Verdicts do not affect it.
"""

import argparse
import contextlib
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(checkout, workload, seed, seconds):
    """One perfbench run; returns (result JSON or None, fingerprint line)."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = out.stdout.strip().splitlines()
    fingerprint = next((line for line in lines if line.startswith("fingerprint ")), "")
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        return None, fingerprint
    try:
        return json.loads(lines[-1]), fingerprint
    except json.JSONDecodeError:
        sys.stderr.write(out.stdout[-2000:])
        return None, fingerprint


@contextlib.contextmanager
def parent_checkout(parent, parser):
    """PARENT as a directory: itself, or a temporary worktree of a revision."""
    if pathlib.Path(parent).is_dir():
        yield pathlib.Path(parent).resolve()
        return
    git = ["git", "-C", str(ROOT)]
    rev = subprocess.run(git + ["rev-parse", "--verify", "--quiet", parent + "^{commit}"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        parser.error(f"parent {parent!r} is neither a directory nor a git revision of {ROOT}")
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="perfbench_pair_"))
    tree = tmp / "parent"
    try:
        subprocess.run(git + ["worktree", "add", "--detach", "--quiet", str(tree),
                              rev.stdout.strip()], check=True)
        yield tree
    finally:
        subprocess.run(git + ["worktree", "remove", "--force", str(tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(git + ["worktree", "prune"], capture_output=True)


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(metric, parent, change):
    """Verdict on one end-to-end metric from paired value lists."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pairs = len(parent)
    if all(p == c for p, c in zip(parent, change)):
        return "identical", 0
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    med_p, q1_p, q3_p = quartiles(parent)
    med_c = statistics.median(change)
    gap = (med_p - med_c) if lower else (med_c - med_p)  # > 0: change is better
    iqr = q3_p - q1_p
    spread = iqr / abs(med_p) if med_p else float("inf")
    worse = -gap / abs(med_p) if med_p else (0.0 if gap >= 0 else float("inf"))
    if pairs >= 10 and wins >= 0.9 * pairs and gap > iqr:
        return "gain", wins
    if worse > bound:
        return "regression", wins
    if spread > bound:
        every = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        return ("better" if every else "unresolved"), wins
    return "within bound", wins


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent checkout directory or git revision")
    parser.add_argument("change_dir", type=pathlib.Path)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with parent_checkout(args.parent, parser) as parent_dir:
        return compare(spec, args, parser, parent_dir)


def compare(spec, args, parser, parent_dir):
    sides = {"parent": parent_dir, "change": args.change_dir.resolve()}
    for name, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{name} checkout {checkout} has no perfbench/run.py")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    ok = True

    # Build both sides and let first-run set-up happen outside the pairs.
    for name, checkout in sides.items():
        result, _ = run(checkout, workloads[0], args.seed_base, 1)
        if result is None:
            print(f"{name}: warm-up run failed", flush=True)
            return 1

    for workload in workloads:
        values = {name: {m["name"]: [] for m in metrics} for name in sides}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            fingerprints = {}
            results = {}
            for name in order:
                result, fingerprints[name] = run(sides[name], workload, seed, args.seconds)
                if result is None or not result.get("correct"):
                    print(f"{workload} seed {seed} {name}: FAILED", flush=True)
                    ok = False
                else:
                    results[name] = result
            if len(results) < len(sides):
                continue  # keep the value lists paired
            for name, result in results.items():
                for m in metrics:
                    values[name][m["name"]].append(result["metrics"][m["name"]]["value"])
            same = fingerprints["parent"] == fingerprints["change"] and fingerprints["parent"]
            run_s = {name: values[name]["run_s"][-1] for name in sides}
            print(f"{workload} seed {seed}: {order[0]} first, fingerprint "
                  f"{'match' if same else 'MISMATCH'}, run_s parent {run_s['parent']:.4f} "
                  f"change {run_s['change']:.4f}", flush=True)
            if not same:
                ok = False
                for name in sides:
                    print(f"  {name}: {fingerprints[name] or '(none)'}", flush=True)

        done = len(values["parent"][metrics[0]["name"]])
        print(f"\n== {workload}: {done} of {args.pairs} pairs, seeds {args.seed_base}.."
              f"{args.seed_base + args.pairs - 1}, {args.seconds} s per run")
        print(f"{'metric':20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'change':>8} {'IQR/med':>8} {'wins':>6} {'bound':>6}  verdict")
        for m in metrics:
            name = m["name"]
            parent, change = values["parent"][name], values["change"][name]
            if not parent:
                continue
            med_p, q1_p, q3_p = quartiles(parent)
            med_c, q1_c, q3_c = quartiles(change)
            rel = (med_c - med_p) / abs(med_p) if med_p else 0.0
            spread = (q3_p - q1_p) / abs(med_p) if med_p else 0.0
            result, wins = verdict(m, parent, change)
            print(f"{name:20} {med_p:12.6g} [{q1_p:9.4g}, {q3_p:9.4g}] "
                  f"{med_c:12.6g} [{q1_c:9.4g}, {q3_c:9.4g}] {rel:+8.1%} {spread:8.3f} "
                  f"{wins:>3}/{len(parent):<2} {m['bound']:6}  {result}", flush=True)
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""A/B comparison of the repository benchmark between a parent revision
and the working tree.

Run from the root of a git checkout:

    python3 .github/perf_ab.py --parent HEAD --workload burst-idle-lfs \\
        --seed 1 --seconds 25 --pairs 10 --claim host_ops_s

Exports the parent revision with `git archive` into a temporary directory
(no worktree is registered, so an interrupted run leaves nothing behind in
.git) and builds perfbench/perfbench.exe there and in the working tree,
each into its own dune build directory under the temporary directory; the
working tree's _build is not touched. It then runs the pairs, alternating
which side runs first (the parent in odd pairs, the change in even ones):

    perfbench.exe --workload W --seed S --seconds T --trace 0

For each side it prints the median and quartiles of every `end_to_end`
metric listed in BENCHMARK.json. For the claimed metric it prints how many
pairs the change won and the verdict of the choosing-metrics rule: a gain
holds when the change wins at least 9 of every 10 pairs and the two
medians are further apart than the parent's interquartile range.

Exit status: 0 when every run was correct and every `sim_*` value was the
same on both sides and across runs; 1 otherwise; 2 on a usage or build
error. The verdict itself does not set the exit status.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile


def fail(msg, code=2):
    print("perf_ab: " + msg, file=sys.stderr)
    sys.exit(code)


def build(src, build_dir):
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./perfbench/perfbench.exe"],
        cwd=src, stdout=sys.stderr,
    )
    if r.returncode != 0:
        fail("build failed in " + src)
    return os.path.join(build_dir, "default", "perfbench", "perfbench.exe")


def run(exe, args, timeout):
    r = subprocess.run([exe] + args, capture_output=True, text=True, timeout=timeout)
    lines = r.stdout.strip().splitlines()
    try:
        d = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, r.stdout + r.stderr
    if r.returncode != 0 or d.get("correct") is not True:
        return None, r.stdout + r.stderr
    return {k: v["value"] for k, v in d["metrics"].items()}, ""


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", default="host_ops_s", help="end_to_end metric claimed to improve")
    a = ap.parse_args()
    # A terminated run still removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if a.pairs < 1:
        fail("--pairs must be at least 1")
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True).stdout.strip()
    if not root:
        fail("not inside a git checkout")
    rev = subprocess.run(["git", "rev-parse", "--verify", a.parent + "^{commit}"],
                         cwd=root, capture_output=True, text=True).stdout.strip()
    if not rev:
        fail("unknown revision " + a.parent)
    bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if a.claim not in metrics:
        fail("--claim must be an end_to_end metric of BENCHMARK.json")

    with tempfile.TemporaryDirectory(prefix="perf_ab.") as tmp:
        src = os.path.join(tmp, "parent")
        os.mkdir(src)
        archive = subprocess.Popen(["git", "archive", rev], cwd=root, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            fail("git archive failed")
        exes = {
            "parent": build(src, os.path.join(tmp, "parent-build")),
            "change": build(root, os.path.join(tmp, "change-build")),
        }
        args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", "0"]
        timeout = 4 * a.seconds + 170
        results = {"parent": [], "change": []}
        for i in range(a.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                got, err = run(exes[side], args, timeout)
                if got is None:
                    print(err, file=sys.stderr)
                    fail("%s run %d failed or was incorrect" % (side, i + 1), code=1)
                results[side].append(got)
                print("pair %d %s %s %.6g" % (i + 1, side, a.claim, got[a.claim]),
                      file=sys.stderr)

    print("perf_ab: parent %s vs working tree; workload %s, seed %d, %g s runs, %d pairs"
          % (rev[:12], a.workload, a.seed, a.seconds, a.pairs))
    print("%-20s %-6s %-7s %32s %32s %8s" % ("metric", "unit", "better", "parent median [q1, q3]",
                                             "change median [q1, q3]", "change"))
    for name, m in metrics.items():
        if name not in results["parent"][0]:
            continue
        p = quartiles([r[name] for r in results["parent"]])
        c = quartiles([r[name] for r in results["change"]])
        rel = "%+.1f%%" % (100 * (c[1] / p[1] - 1)) if p[1] else "-"
        print("%-20s %-6s %-7s %32s %32s %8s" % (
            name, m["unit"], m["better"],
            "%.6g [%.6g, %.6g]" % (p[1], p[0], p[2]),
            "%.6g [%.6g, %.6g]" % (c[1], c[0], c[2]), rel))

    sign = 1 if metrics[a.claim]["better"] == "higher" else -1
    wins = sum(1 for p, c in zip(results["parent"], results["change"])
               if sign * (c[a.claim] - p[a.claim]) > 0)
    pq1, pmed, pq3 = quartiles([r[a.claim] for r in results["parent"]])
    cmed = quartiles([r[a.claim] for r in results["change"]])[1]
    gap = sign * (cmed - pmed)
    holds = wins * 10 >= 9 * a.pairs and gap > pq3 - pq1
    print("claim %s: change wins %d/%d pairs; median gap %.6g against parent IQR %.6g: %s"
          % (a.claim, wins, a.pairs, gap, pq3 - pq1, "gain holds" if holds else "no gain shown"))

    sims = {json.dumps({k: v for k, v in r.items() if k.startswith("sim_")}, sort_keys=True)
            for side in results.values() for r in side}
    if len(sims) != 1:
        print("sim_* values differ between runs:", file=sys.stderr)
        for s in sorted(sims):
            print("  " + s, file=sys.stderr)
        return 1
    print("sim_*: identical on both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())

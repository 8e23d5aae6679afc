#!/usr/bin/env python3
"""Interleaved A/B of the end-to-end benchmark between two git revisions.

Builds `lcws-e2e` for a base and a head revision, each from a fresh
`git archive` export under a scratch directory, then runs N benchmark-form
pairs per workload (`--workload W --seed S --seconds T --trace 0`, the
form BENCHMARK.json's command runs, T its `run_seconds`), alternating
which side goes first and giving every pair a fresh seed. Per end-to-end
metric it prints the base median and IQR, the head median, the relative
change, the pairs the head won, and a verdict against the metric's
BENCHMARK.json bound, first rule that applies:

  unresolved  either side's IQR is wider than the bound (as a share of its
              median), unless every head run lies on one side of every
              base run
  worse       head median worse than base by more than the bound
  better      head won >= 9/10 of the pairs and |delta median| > base IQR
  unresolved  |delta median| > base IQR, but neither of the above
  same        |delta median| <= base IQR, inside the bound

With `--child W:comp[:workers]` (repeatable; workers default to 2) it
runs one benchmark child per side and pair instead, the fast A/B of one
composition:

    printf 'rounds 8000 5\nfinish\n' | lcws-e2e --child --kind workload \
        --workload W --comp comp --workers P --seed S --trace 0 --warmup_ms 500

and judges the child's `values.round_ms` by the same rules, under the
bound of BENCHMARK.json's `round_ms.<comp>`.

It also records the host (`nproc`, CPU model, `/proc/stat` steal share
over the runs) and deletes its exports unless `--keep` is given.
Stdlib only, offline.

Usage:
    scripts/ab.py [--base HEAD~1] [--head HEAD] [--workloads a,b]
                  [--child W:comp[:workers]]... [--pairs 10] [--seed0 1000]
                  [--scratch DIR] [--keep]
    scripts/ab.py --self-test
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
CHILD_SCRIPT = "rounds 8000 5\nfinish\n"


def median(xs):
    return statistics.median(xs)


def iqr(xs):
    """Q3 - Q1 by linear interpolation between order statistics."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def wins(base, head, better):
    """Pairs (matched by index) in which the head is strictly better."""
    if better == "lower":
        return sum(h < b for b, h in zip(base, head))
    return sum(h > b for b, h in zip(base, head))


def spread(xs):
    """IQR as a share of the median (0 for a zero median)."""
    m = median(xs)
    return iqr(xs) / abs(m) if m else 0.0


def verdict(base, head, better, bound):
    """One metric's verdict; the rules are in the module doc."""
    mb, mh = median(base), median(head)
    separated = max(head) < min(base) or min(head) > max(base)
    if max(spread(base), spread(head)) > bound and not separated:
        return "unresolved"
    worse_by = (mh - mb) if better == "lower" else (mb - mh)
    if mb != 0 and worse_by / abs(mb) > bound:
        return "worse"
    beyond_noise = abs(mh - mb) > iqr(base)
    n = min(len(base), len(head))
    if worse_by < 0 and beyond_noise and wins(base, head, better) >= math.ceil(WIN_SHARE * n):
        return "better"
    return "unresolved" if beyond_noise else "same"


def summarize(base, head, better, bound):
    mb, mh = median(base), median(head)
    return {
        "base_median": mb,
        "base_iqr": iqr(base),
        "head_median": mh,
        "head_iqr": iqr(head),
        "delta": (mh - mb) / mb if mb else float("nan"),
        "wins": wins(base, head, better),
        "pairs": min(len(base), len(head)),
        "verdict": verdict(base, head, better, bound),
    }


def parse_child(spec):
    """`W:comp[:workers]` -> (workload, comp, workers); ValueError if malformed."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not all(parts):
        raise ValueError(f"--child wants W:comp[:workers], got {spec!r}")
    workers = int(parts[2]) if len(parts) == 3 else 2
    if workers < 1:
        raise ValueError(f"--child {spec!r}: workers must be >= 1")
    return parts[0], parts[1], workers


def self_test():
    assert median([3, 1, 2]) == 2 and median([4, 1, 3, 2]) == 2.5
    assert iqr([1, 2, 3, 4, 5]) == 2.0 and iqr([7]) == 0.0
    base = [100, 102, 98, 101, 99, 103, 100, 97, 104, 100]
    faster = [85, 86, 84, 88, 83, 87, 101, 85, 86, 84]
    assert wins(base, faster, "lower") == 9
    s = summarize(base, faster, "lower", 0.25)
    assert s["verdict"] == "better", s
    assert abs(s["delta"] + 0.145) < 1e-9, s
    # Eight wins of ten is not enough, however large the gain.
    assert verdict(base, faster[:8] + [200, 200], "lower", 10.0) == "unresolved"
    # A move inside the base IQR is the same.
    assert verdict(base, [x - 1 for x in base], "lower", 0.25) == "same"
    assert verdict([100] * 4, [100] * 4, "lower", 0.25) == "same"
    # Beyond the bound is worse, in either direction of "better"; a
    # consistent loss inside the bound is not "same".
    assert verdict([100] * 4, [130] * 4, "lower", 0.25) == "worse"
    assert verdict([100] * 4, [120] * 4, "lower", 0.25) == "unresolved"
    assert verdict([100] * 4, [70] * 4, "higher", 0.25) == "worse"
    assert verdict([100] * 10, [120] * 10, "higher", 0.25) == "better"
    # A spread wider than the bound cannot carry a verdict, even with 10/10
    # wins, unless the two sides do not overlap at all.
    noisy = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
    assert abs(spread(noisy) - 0.35) < 1e-9
    assert wins(noisy, [x - 30 for x in noisy], "lower") == 10
    assert verdict(noisy, [x - 30 for x in noisy], "lower", 0.25) == "unresolved"
    assert verdict(noisy, [50] * 10, "lower", 0.25) == "better"
    assert verdict(noisy, [200] * 10, "lower", 0.25) == "worse"
    assert verdict([100] * 10, noisy, "lower", 0.25) == "unresolved"
    assert parse_child("forkjoin_balanced:uslcws") == ("forkjoin_balanced", "uslcws", 2)
    assert parse_child("pbbs_mix:ws:4") == ("pbbs_mix", "ws", 4)
    for bad in ("pbbs_mix", "pbbs_mix:", ":ws", "pbbs_mix:ws:", "pbbs_mix:ws:0",
                "pbbs_mix:ws:two", "pbbs_mix:ws:2:1"):
        try:
            parse_child(bad)
        except ValueError:
            continue
        raise AssertionError(f"parse_child accepted {bad!r}")
    print("ab.py self-test OK")


def git(*args):
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev, dest):
    """Check `rev` out into `dest` (no worktree metadata left in the repo)."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def build(tree):
    manifest = tree / "lcws-e2e" / "Cargo.toml"
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", str(manifest)],
        check=True,
    )
    return tree / "lcws-e2e" / "target" / "release" / "lcws-e2e"


def last_json(binary, args, stdin=None):
    out = subprocess.run([str(binary), *args], input=stdin, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{binary} {' '.join(args)}: no output\n{out.stderr}")
    return json.loads(lines[-1])


def run_once(binary, workload, seed, seconds):
    line = last_json(binary, ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"])
    values = {k: v["value"] for k, v in line["metrics"].items()}
    return values, line["attempted"], line["failed"]


def run_child(binary, workload, comp, workers, seed):
    line = last_json(binary, ["--child", "--kind", "workload", "--workload", workload,
                              "--comp", comp, "--workers", str(workers), "--seed", str(seed),
                              "--trace", "0", "--warmup_ms", "500"], CHILD_SCRIPT)
    return {f"round_ms.{comp}": line["values"]["round_ms"]}, line["attempted"], line["failed"]


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--head", default="HEAD")
    ap.add_argument("--workloads", help="comma list (default: all of BENCHMARK.json)")
    ap.add_argument("--child", action="append", metavar="W:comp[:workers]",
                    help="one-child pairs of this composition instead of --workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000, help="first pair's seed")
    ap.add_argument("--scratch", help="export/build directory (default: a temp dir)")
    ap.add_argument("--keep", action="store_true", help="keep the exports")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        self_test()
        return

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    # label -> run(binary, seed) -> (values, attempted, failed)
    cases = {}
    for spec in a.child or []:
        try:
            w, comp, workers = parse_child(spec)
        except ValueError as e:
            raise SystemExit(str(e))
        if f"round_ms.{comp}" not in metrics:
            raise SystemExit(f"--child {spec}: BENCHMARK.json has no round_ms.{comp}")
        cases[spec] = lambda b, s, w=w, c=comp, p=workers: run_child(b, w, c, p, s)
    if not cases:
        cases = {w: lambda b, s, w=w: run_once(b, w, s, seconds) for w in workloads}
    scratch = Path(a.scratch or tempfile.mkdtemp(prefix="lcws-ab-")).resolve()
    revs = {"base": git("rev-parse", a.base), "head": git("rev-parse", a.head)}
    trees = {side: scratch / f"{side}-{sha[:12]}" for side, sha in revs.items()}
    try:
        binaries = {}
        for side, sha in revs.items():
            if not trees[side].exists():
                export(sha, trees[side])
            print(f"building {side} {sha[:12]} in {trees[side]}", flush=True)
            binaries[side] = build(trees[side])

        before = cpu_times()
        raw = {w: {"base": [], "head": [], "attempted": {"base": 0, "head": 0},
                   "failed": {"base": 0, "head": 0}} for w in cases}
        for i in range(a.pairs):
            seed = a.seed0 + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for w, run in cases.items():
                for side in order:
                    values, attempted, failed = run(binaries[side], seed)
                    raw[w][side].append(values)
                    raw[w]["attempted"][side] += attempted
                    raw[w]["failed"][side] += failed
                print(f"pair {i + 1}/{a.pairs} seed {seed} {w} done", flush=True)
        after = cpu_times()
    finally:
        if not a.keep:
            for tree in trees.values():
                shutil.rmtree(tree, ignore_errors=True)
            if not a.scratch:
                shutil.rmtree(scratch, ignore_errors=True)

    steal = "n/a"
    if before and after and after[1] > before[1]:
        steal = f"{100.0 * (after[0] - before[0]) / (after[1] - before[1]):.1f} %"
    print(f"\nhost: nproc {os.cpu_count()}, {cpu_model()}, steal {steal}")
    form = "one-child runs" if a.child else f"{seconds} s runs"
    print(f"base {revs['base'][:12]} vs head {revs['head'][:12]}, "
          f"{a.pairs} pairs, seeds {a.seed0}-{a.seed0 + a.pairs - 1}, {form}")
    regressed = False
    for w in cases:
        r = raw[w]
        fb, fh = r["failed"]["base"], r["failed"]["head"]
        print(f"\n## {w}  (failed ops: base {fb}/{r['attempted']['base']}, "
              f"head {fh}/{r['attempted']['head']})")
        print("| metric | base median | base IQR | head median | head IQR | delta | wins | verdict |")
        print("|---|---:|---:|---:|---:|---:|---:|---|")
        for name, m in metrics.items():
            base = [v[name] for v in r["base"] if name in v]
            head = [v[name] for v in r["head"] if name in v]
            if not base or len(base) != len(head):
                continue
            s = summarize(base, head, m["better"], m["bound"])
            regressed |= s["verdict"] == "worse"
            print(f"| {name} | {s['base_median']:.4g} | {s['base_iqr']:.3g} | "
                  f"{s['head_median']:.4g} | {s['head_iqr']:.3g} | {100 * s['delta']:+.1f} % | "
                  f"{s['wins']}/{s['pairs']} | {s['verdict']} |")
        regressed |= fh * max(r["attempted"]["base"], 1) > fb * max(r["attempted"]["head"], 1)
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()

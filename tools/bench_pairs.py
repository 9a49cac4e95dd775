#!/usr/bin/env python3
"""Alternating parent/change pairs of servebench/run.py, kept as records.

    tools/bench_pairs.py run --parent DIR --change DIR --workload hot \\
        --seeds 1501-1510 --out bench/records/NAME.jsonl [--seconds 20] \\
        [--trace 0|1]
    tools/bench_pairs.py summary bench/records/NAME.jsonl [--workload hot]

`run` runs `python3 servebench/run.py --workload W --seed S` once in each
checkout per seed, the two sides in turns (the parent first on the first
seed, the change first on the next, and so on), so that a drift of the
host's speed falls on both sides alike. Each checkout builds its own
server (run.py builds into DIR/.bench_build). After every run one JSON
object is appended to the --out file:

    side, git (DIR's HEAD, short), dirty (DIR had uncommitted changes),
    workload, seed, seconds, trace, steal_s (the host's steal time during
    the run, from run.py's `host:` line), correct, attempted, failed,
    metrics (run.py's final JSON line: {name: {value, unit}})

`summary` prints, per workload (traced runs apart) and metric, each
side's median and quartiles, the ratio of the medians, the pairs (same
seed) the change won, and the median gap over the parent's quartile
spread; a metric's better direction comes from BENCHMARK.json. The rule
a claimed gain must meet: the change wins at least nine pairs in ten,
and its median is ahead of the parent's by more than the parent's
quartile spread (gap/spread > 1).
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEAL_RE = re.compile(r"^host: .* steal ([0-9.]+) s$")


def git(checkout, *args):
    out = subprocess.run(["git", "-C", str(checkout), *args],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(side, checkout, args, seed):
    cmd = [sys.executable, "servebench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d: run.py exited %d"
                         % (side, seed, proc.returncode))
    result = json.loads(lines[-1])
    steal = next((float(m.group(1)) for m in map(STEAL_RE.match, lines) if m),
                 None)
    return {
        "side": side,
        "git": git(checkout, "rev-parse", "--short", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain",
                          "--untracked-files=no")),
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steal_s": steal,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def cmd_run(args):
    sides = [("parent", Path(args.parent).resolve()),
             ("change", Path(args.change).resolve())]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(seeds_of(args.seeds)):
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            record = run_once(side, checkout, args, seed)
            with out.open("a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
            print("%s %s seed %d: correct %s failed %d steal %.2f s %s" % (
                args.workload, side, seed, record["correct"],
                record["failed"], record["steal_s"] or 0.0,
                " ".join("%s %.6g" % (k, v["value"])
                         for k, v in sorted(record["metrics"].items()))),
                flush=True)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def cmd_summary(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    records = [json.loads(line) for line in Path(args.file).open()]
    groups = sorted({(r["workload"], r["trace"]) for r in records})
    for workload, trace in groups:
        if args.workload and workload != args.workload:
            continue
        runs = [r for r in records
                if r["workload"] == workload and r["trace"] == trace]
        by_side = {s: {r["seed"]: r for r in runs if r["side"] == s}
                   for s in ("parent", "change")}
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print("%s%s: %d pairs (seeds %s), %d runs not correct or with "
              "failures" % (workload, " traced" if trace else "", len(seeds),
                            ",".join(map(str, seeds)), len(bad)))
        names = sorted({n for r in runs for n in r["metrics"]})
        for name in names:
            cols = {}
            for side in ("parent", "change"):
                vals = [by_side[side][s]["metrics"][name]["value"]
                        for s in seeds if name in by_side[side][s]["metrics"]]
                cols[side] = vals
            if not cols["parent"] or len(cols["parent"]) != len(cols["change"]):
                continue
            sign = -1 if better.get(name) == "lower" else 1
            won = sum(sign * (c - p) > 0
                      for p, c in zip(cols["parent"], cols["change"]))
            med = {s: statistics.median(v) for s, v in cols.items()}
            q1, q3 = quartiles(cols["parent"])
            c1, c3 = quartiles(cols["change"])
            ratio = med["change"] / med["parent"] if med["parent"] else 0.0
            gap = sign * (med["change"] - med["parent"])
            print("  %-22s parent %.6g [%.6g-%.6g]  change %.6g [%.6g-%.6g]"
                  "  ratio %.3f  won %d/%d  gap/spread %s" % (
                      name, med["parent"], q1, q3, med["change"], c1, c3,
                      ratio, won, len(seeds),
                      "%.2f" % (gap / (q3 - q1)) if q3 > q1 else "n/a"))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", required=True, help="e.g. 1501-1510,1601")
    run.add_argument("--out", required=True)
    run.add_argument("--seconds", type=int, default=20)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    summary = sub.add_parser("summary")
    summary.add_argument("file")
    summary.add_argument("--workload")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_summary(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness report: repeated runs of the benchmark, one seed each.

    python3 e2ebench/steady.py --workload serve-warm --runs 10 --first-seed 101 \\
        [--trace 0] [--out e2ebench/results/x.json] [--compare e2ebench/results/y.json]

For every metric it prints the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, and
flags any metric the bound cannot resolve (spread at or above the
bound) or only barely resolves (spread above a third of it). Each run's
seed, nproc, source revision and the host's CPU steal during its window
go into the --out file with its metrics. --compare reads an earlier
--out file of the same workloads and flags every metric whose median
got worse by more than its bound. The exit code is non-zero when any
metric is flagged, any result is incorrect, or any median got worse
beyond its bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import harness  # noqa: E402

ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (seed %d):\n%s" % (seed, done.stderr[-2000:]))
    meta = {}
    steal = None
    for line in lines:
        if line.startswith("# meta "):
            meta = json.loads(line[len("# meta "):])
        elif line.startswith("# host steal "):
            steal = float(line.split()[3].rstrip("%")) / 100
    result = json.loads(lines[-1])
    return {"seed": seed, "meta": meta, "steal": steal, "result": result}


def summarize(runs, specs):
    """Per metric: median, quartiles, spread, bound and flag."""
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = harness.quartiles(values)
        spread = harness.spread(values)
        bound = specs.get(name, {}).get("bound")
        if bound is None:
            flag = ""
        elif spread >= bound:
            flag = "UNRESOLVED"
        elif spread > bound / 3:
            flag = "above bound/3"
        else:
            flag = "ok"
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bound, "flag": flag, "values": values}
    return out


def compare(now, before, specs):
    """Metrics whose median moved the worse way by more than the bound."""
    rows = []
    for name, s in now.items():
        spec = specs.get(name)
        if not spec or name not in before:
            continue
        m1, m2 = before[name]["median"], s["median"]
        change = (m2 - m1) / m1 if m1 else 0.0
        worse = change if spec["better"] == "lower" else -change
        rows.append((name, m1, m2, change, spec["bound"], worse > spec["bound"]))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    report = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    before = {}
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)["workloads"]
    all_ok = True
    for workload in args.workload:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, seconds, args.trace)
            runs.append(r)
            print("%s seed %d: correct=%s failed=%d/%d steal=%s" % (
                workload, seed, r["result"]["correct"], r["result"]["failed"],
                r["result"]["attempted"], r["steal"]), file=sys.stderr, flush=True)
        summary = summarize(runs, specs)
        meta = runs[0]["meta"]
        print("\n%s: %d runs, seeds %d..%d, %s s each, nproc %s, commit %s, source %s" % (
            workload, len(runs), args.first_seed, args.first_seed + len(runs) - 1, seconds,
            meta.get("nproc"), meta.get("commit"), meta.get("source_sha256")))
        print("%-36s %12s %12s %12s %8s %6s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "flag"))
        for name, s in summary.items():
            print("%-36s %12.5g %12.5g %12.5g %8.4f %6s  %s" % (
                name, s["q1"], s["median"], s["q3"], s["spread"],
                "" if s["bound"] is None else s["bound"], s["flag"]))
            all_ok &= s["flag"] in ("", "ok")
        incorrect = [r["seed"] for r in runs if not r["result"]["correct"]]
        if incorrect:
            all_ok = False
            print("incorrect results for seeds %s" % incorrect)
        if workload in before:
            print("\nagainst %s:" % args.compare)
            for name, m1, m2, change, bound, bad in compare(summary, before[workload]["summary"], specs):
                print("%-36s %12.5g -> %12.5g  %+7.2f%%  bound %g  %s" % (
                    name, m1, m2, 100 * change, bound, "WORSE BEYOND BOUND" if bad else "ok"))
                all_ok &= not bad
        report["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "runs": runs,
            "summary": summary,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, sort_keys=True)
            f.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

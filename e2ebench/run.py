#!/usr/bin/env python3
"""End-to-end benchmark of the release `ethainter` binaries.

    python3 e2ebench/run.py --workload scan-cold --seed 1 --seconds 16 --trace 0

Builds `ethainter` and the in-process probe from source, generates the
workload's inputs from the seed, runs the program as a child process,
checks every verdict, and prints the metrics. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` — the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. Lines before it (prefixed `#`) repeat every
metric with its unit, the failed ops and the run's seed, nproc and
source revision. See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import client  # noqa: E402
import harness  # noqa: E402

ROOT = os.path.dirname(HERE)

# Set-up is repeated this many times per run, half of them before the
# measured window and half after it; setup_s is the median. A daemon
# set-up is ~3 ms of process start and wake-ups, so a burst of load from
# elsewhere on the machine moves single set-ups by several times; many
# reps spread over the run keep the median steady.
SETUP_REPS = 41
# Contracts per second `batch --jobs 2` took at realistic scale when the
# benchmark was defined; scan-cold analyzes seconds * SCAN_RATE of them.
SCAN_RATE = 16.0
# Distinct contracts serve-warm cycles through.
WARM_CONTRACTS = 120
# Ops per second serve-witness ran at when the benchmark was defined,
# and the headroom of distinct contracts generated beyond that.
WITNESS_RATE = 7.0
WITNESS_HEADROOM = 2.5
# Unmeasured load before serve-warm's window.
WARMUP_S = 2.0
# peak_rss_mb is the median of this many peaks: of as many batch
# processes on scan-cold, of as many equal parts of the window on the
# daemons. One process's peak over a whole run moved between ~190 and
# ~260 MB on identical inputs (allocator retention), a median of
# quarters by a few percent.
RSS_PARTS = 4


class Fail(Exception):
    """The benchmark cannot produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def say(msg):
    print("# " + msg, flush=True)


# ---------------------------------------------------------------------------
# Build and environment


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "ethainter-cli"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "probe", "Cargo.toml"),
        ],
    ):
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            raise Fail("build failed: " + " ".join(argv))
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "ethainter"), os.path.join(release, "e2eprobe")


def source_revision():
    """The git commit when there is one, and a digest of the sources the
    binaries and the benchmark are made of (checkouts without .git have
    only that). Markdown files and the recorded results are left out, so
    the digest of a recorded run matches the tree it was committed in."""
    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = done.stdout.split()
        # Only this checkout's own repository, not one it sits inside.
        if done.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("__pycache__", "target", "results"))
            files += [os.path.join(d, n) for n in sorted(names) if not n.endswith(".md")]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return commit, digest.hexdigest()[:16]


def run_probe(probe, *args):
    done = subprocess.run(
        [probe] + [str(a) for a in args], capture_output=True, text=True, stdin=subprocess.DEVNULL
    )
    if done.returncode != 0:
        raise Fail("e2eprobe %s failed: %s" % (args[0], done.stderr.strip()))
    return done.stdout


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


class Run:
    """One benchmark run: its work directory, binaries and inputs."""

    def __init__(self, args, ethainter, probe, work):
        self.args = args
        self.ethainter = ethainter
        self.probe = probe
        self.work = work
        self.env = dict(os.environ, TMPDIR=self.path("tmp"))
        os.makedirs(self.env["TMPDIR"])
        self.inputs_dir = self.path("inputs")
        self.inputs = {}
        self.order = []
        self.refs = {}
        # Share of the machine's CPU the hypervisor stole during the last
        # measured window (a diagnostic printed with the result).
        self.steal = 0.0

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def generate(self, count):
        run_probe(self.probe, "gen", "--seed", self.args.seed, "--count", count, "--out", self.inputs_dir)
        for rec in read_jsonl(os.path.join(self.inputs_dir, "inputs.jsonl")):
            self.inputs[rec["name"]] = rec
            self.order.append(rec["name"])

    def hex_path(self, name):
        return os.path.join(self.inputs_dir, "hex", name + ".hex")

    def hex_code(self, name):
        with open(self.hex_path(name)) as f:
            return f.read().strip()

    def references(self, names, fill_cache=None):
        """Reference verdicts of `names`, computed in process; with
        `fill_cache` the results also go into that result cache."""
        names_file = self.path("ref-names.txt")
        write_lines(names_file, sorted(set(names)))
        out = self.path("reference.jsonl")
        args = ["reference", "--inputs", self.inputs_dir, "--names", names_file,
                "--jobs", 2, "--out", out]
        if fill_cache:
            args += ["--fill-cache", fill_cache]
        run_probe(self.probe, *args)
        self.refs.update({r["name"]: r for r in read_jsonl(out)})

    def serve(self, jobs, cache_dir, tag):
        argv = [self.ethainter, "serve", "--addr", "127.0.0.1:0", "--jobs", str(jobs),
                "--cache-dir", cache_dir]
        return client.Daemon(argv, self.env, self.path("serve-%s.log" % tag))

    def batch(self, names, extra, log_name):
        """Runs `ethainter batch` over the inputs `names`; returns (wall
        seconds, CPU seconds, peak RSS MB) of the child, from its rusage."""
        argv = [self.ethainter, "batch", "--jobs", "2", "--no-progress"] + extra
        argv += [self.hex_path(n) for n in names]
        with open(self.path(log_name), "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=out, env=self.env, stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise Fail("ethainter batch exited %d (see %s)" % (proc.returncode, log_name))
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Workloads. Each returns (ops, end-to-end measurements, traced-run spec).


def scan_cold(run):
    """`batch --jobs 2` with a fresh cache over distinct contracts, split
    into RSS_PARTS processes (interleaved, so each part is stratified)."""
    run.generate(max(20, round(run.args.seconds * SCAN_RATE)))
    parts = [run.order[k::RSS_PARTS] for k in range(RSS_PARTS)]

    def setup(i):
        extra = ["--cache-dir", run.path("setup-%d" % i), "--limit", "0"]
        return run.batch(parts[i % RSS_PARTS], extra, "setup.log")[0]

    setups = [setup(i) for i in range(SETUP_REPS // 2)]
    window_s = cpu_s = 0.0
    peaks = []
    ops = []
    host0 = client.host_cpu()
    for k, part in enumerate(parts):
        outcomes = run.path("outcomes-%d.jsonl" % k)
        extra = ["--cache-dir", run.path("cache-%d" % k), "--out", outcomes]
        wall, cpu, rss = run.batch(part, extra, "batch.log")
        window_s += wall
        cpu_s += cpu
        peaks.append(rss)
        for rec in read_jsonl(outcomes):
            name = os.path.splitext(os.path.basename(rec["id"]))[0]
            ops.append({"name": name, "http": None, "status": rec["status"], "error": None,
                        "cached": False, "latency_ms": float(rec["elapsed_ms"])})
    run.steal = client.steal_frac(host0, client.host_cpu())
    setups += [setup(i) for i in range(SETUP_REPS // 2, SETUP_REPS)]
    seen = {op["name"] for op in ops}
    for name in run.order:
        if name not in seen:
            ops.append({"name": name, "http": None, "status": None, "error": "no outcome record"})
    e2e = {"setup": setups, "window_s": window_s, "cpu_s": cpu_s,
           "rss_mb": statistics.median(peaks)}
    trace = {"jobs": 2, "hit_cache": None, "witness": False}
    return ops, e2e, trace


def serve_load(run, jobs, witness, cache_dir_of, cycle, warmup_s):
    """Common body of the daemon workloads: daemon starts (the last one
    serves the window), the closed-loop window, then the remaining
    SETUP_REPS daemon starts."""
    requests = []
    for name in run.order:
        raw = client.job_request(run.hex_code(name), name, witness)
        requests.append((name, raw))
    setups = []

    def setup(i):
        daemon = run.serve(jobs, cache_dir_of(i), str(i))
        setups.append(daemon.setup_s)
        return daemon

    before = SETUP_REPS // 2 + 1
    for i in range(before - 1):
        setup(i).stop()
    daemon = setup(before - 1)
    try:
        if warmup_s:
            client.closed_loop(daemon.addr, requests, warmup_s, cycle=True)
        peak_reset = daemon.reset_peak_rss()
        peaks = []

        def next_part():
            peaks.append(daemon.peak_rss_mb())
            daemon.reset_peak_rss()

        cpu0 = daemon.cpu_s()
        host0 = client.host_cpu()
        ops, window_s = client.closed_loop(daemon.addr, requests, run.args.seconds, cycle=cycle,
                                           segments=RSS_PARTS, on_segment=next_part)
        run.steal = client.steal_frac(host0, client.host_cpu())
        cpu_s = daemon.cpu_s() - cpu0
        peaks.append(daemon.peak_rss_mb())
    finally:
        daemon.stop()
    for i in range(before, SETUP_REPS):
        setup(i).stop()
    if not peak_reset:
        say("warning: clear_refs refused; peak_rss_mb covers the daemon's whole life")
    e2e = {"setup": setups, "window_s": window_s, "cpu_s": cpu_s,
           "rss_mb": statistics.median(peaks)}
    return ops, e2e, dict(requests)


def serve_warm(run):
    """A restarted daemon whose cache already holds every contract."""
    run.generate(WARM_CONTRACTS)
    cache = run.path("cache")
    run.references(run.order, fill_cache=cache)
    ops, e2e, requests = serve_load(run, 2, False, lambda i: cache, True, WARMUP_S)
    trace = {"jobs": 2, "hit_cache": cache, "witness": False, "requests": requests}
    return ops, e2e, trace


def serve_witness(run):
    """A fresh one-worker daemon analyzing distinct contracts with
    witnesses on, fed by two clients."""
    run.generate(max(20, round(run.args.seconds * WITNESS_RATE * WITNESS_HEADROOM)))
    ops, e2e, requests = serve_load(
        run, 1, True, lambda i: run.path("cache-%d" % i), False, 0.0)
    if len(ops) >= len(run.order):
        say("warning: serve-witness used every generated contract before its window ended")
    trace = {"jobs": 1, "hit_cache": None, "witness": True, "requests": requests}
    return ops, e2e, trace


WORKLOADS = {
    "scan-cold": (scan_cold, harness.PARTS_BATCH, False),
    "serve-warm": (serve_warm, harness.PARTS_SERVE, False),
    "serve-witness": (serve_witness, harness.PARTS_SERVE, True),
}


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(ops, e2e):
    done = [op for op in ops if op.get("status") is not None]
    if not done:
        raise Fail("no op reached a verdict")
    latencies = [op["latency_ms"] for op in done]
    tail_value, tail_pct, n = harness.tail(latencies)
    metrics = {
        "setup_s": statistics.median(e2e["setup"]),
        "ops_per_s": len(done) / e2e["window_s"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_value,
        "cpu_ms_per_op": e2e["cpu_s"] * 1e3 / len(done),
        "peak_rss_mb": e2e["rss_mb"],
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(e2e["setup"]),
        "ops_per_s": "%d ops in %.3f s" % (len(done), e2e["window_s"]),
        "latency_p50_ms": "n=%d" % n,
        "latency_tail_ms": "p%.1f, n=%d, %d beyond" % (tail_pct, n, harness.TAIL_BEYOND),
        "peak_rss_mb": "median of %d peaks" % RSS_PARTS,
    }
    return metrics, notes


def traced_layers(run, ops, spec, parts, e2e_p50):
    """The traced run: replays every op in process through the probe."""
    req_dir = run.path("requests")
    os.makedirs(req_dir)
    specs = []
    done_bodies = {}
    for op in ops:
        if op.get("status") is None:
            continue
        rec = {"name": op["name"], "cached": bool(op.get("cached")), "witness": spec["witness"]}
        if "requests" in spec:
            name = op["name"]
            rec["request"] = os.path.join(req_dir, name + ".http")
            rec["done"] = os.path.join(req_dir, name + ".done.json")
            if name not in done_bodies:
                with open(rec["request"], "wb") as f:
                    f.write(spec["requests"][name])
            done_bodies[name] = op["done_body"]
        specs.append(json.dumps(rec))
    for name, body in done_bodies.items():
        with open(os.path.join(req_dir, name + ".done.json"), "wb") as f:
            f.write(body)
    ops_file = run.path("trace-ops.jsonl")
    write_lines(ops_file, specs)
    rows_file = run.path("trace-rows.jsonl")
    args = ["trace", "--inputs", run.inputs_dir, "--ops", ops_file, "--jobs", spec["jobs"],
            "--miss-cache", run.path("trace-cache"), "--out", rows_file]
    if spec["hit_cache"]:
        args += ["--hit-cache", spec["hit_cache"]]
    summary = json.loads(run_probe(run.probe, *args).strip().splitlines()[-1])
    rows = read_jsonl(rows_file)

    served = [op for op in ops if op.get("total_ms") is not None]
    run_layers = {
        "store.open_ms": summary["open_ms"],
        # Means: the done bodies carry whole milliseconds, and a cache
        # hit's wait and job time are mostly 0 ms.
        "server.queue_wait_ms": harness.mean_or_zero([op["wait_ms"] for op in served]),
        "server.job_ms": harness.mean_or_zero([op["total_ms"] for op in served]),
        "client.polls_per_op": harness.median_or_zero([op["polls"] for op in served]),
        "client.overhead_ms": harness.median_or_zero(
            [op["latency_ms"] - op["total_ms"] for op in served]),
        "e2e.latency_p50_ms": e2e_p50,
    }
    failures = {}
    for row in rows:
        truth = run.inputs[row["name"]]
        if not row["analyzed"]:
            continue
        ok, why = harness.ground_truth_ok(row["classes"], truth["exploitable"], truth["decoy"])
        if not ok:
            failures[row["name"]] = "traced analysis: " + why
    return harness.fold_layers(rows, run_layers, parts), failures


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        log("e2ebench: no Cargo.toml at %s; run from a full checkout" % ROOT)
        return 2
    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    work_root = os.path.join(ROOT, ".bench_work")
    shutil.rmtree(work_root, ignore_errors=True)
    work = os.path.join(work_root, "run-%d" % os.getpid())
    os.makedirs(work)
    try:
        return bench(args, target_dir, work)
    except Fail as e:
        log("e2ebench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def bench(args, target_dir, work):
    ethainter, probe = build(target_dir)
    commit, tree = source_revision()
    run = Run(args, ethainter, probe, work)
    workload, parts, need_witness = WORKLOADS[args.workload]
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "commit": commit, "source_sha256": tree}
    say("meta " + json.dumps(meta, sort_keys=True))

    ops, e2e, spec = workload(run)
    e2e_metrics, notes = end_to_end(ops, e2e)
    missing = {op["name"] for op in ops if op.get("status") is not None} - set(run.refs)
    if missing:
        run.references(missing)

    # One failure reason per failed op; a traced analysis that breaks the
    # ground truth fails every op of that contract.
    traced_failures = {}
    if args.trace:
        metrics, traced_failures = traced_layers(run, ops, spec, parts, e2e_metrics["latency_p50_ms"])
        catalogue = harness.per_layer_catalogue()
        values = {name: v for name, (v, _) in metrics.items()}
    else:
        catalogue = harness.END_TO_END
        values = e2e_metrics
    failures = []
    for op in ops:
        why = harness.check_op(op, run.refs.get(op["name"]), run.inputs[op["name"]], need_witness)
        why = why or traced_failures.get(op["name"])
        if why:
            failures.append((op["name"], why))

    attempted = len(ops)
    failed = len(failures)
    # Refusals are failed ops, but not wrong outputs.
    correct = all(why.startswith("refused") for _, why in failures)
    say("ops attempted=%d failed=%d correct=%s" % (attempted, failed, str(correct).lower()))
    say("host steal %.2f%% of CPU time during the window" % (100 * run.steal))
    for name, why in failures[:20]:
        say("failed op %s (%s): %s" % (name, run.inputs[name]["family"], why))
    say("failed_frac %.6f 1" % (failed / attempted))
    for name, unit in catalogue:
        note = "" if args.trace else notes.get(name, "")
        say("%s %.6g %s%s" % (name, values[name], unit, "  (" + note + ")" if note else ""))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalogue},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

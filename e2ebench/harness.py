"""Pure helpers of the end-to-end benchmark: statistics, verdict checks,
failure accounting and the metric catalogue. No I/O, so
`test_harness.py` covers all of it."""

import re
import statistics

# Metric names: a letter or digit first, at most 64 characters.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

# ---------------------------------------------------------------------------
# Statistics


def tail(values):
    """The highest percentile that has at least TAIL_BEYOND samples beyond
    it, as (value, percentile, sample_count). It is never reported below
    the median: with fewer than 2 * TAIL_BEYOND samples the median stands
    in for it."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    k = n - TAIL_BEYOND - 1  # s[k] has exactly TAIL_BEYOND samples above it
    pct = 100.0 * (k + 1) / n
    if k < 0 or pct < 50.0:
        return statistics.median(s), 50.0, n
    return s[k], pct, n


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them
    (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (the steadiness measure the bounds are checked against); 0
    for values that never move, even at 0."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / q2 if q2 else float("inf")


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def mean_or_zero(values):
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# Verdicts


def ground_truth_ok(classes, exploitable, decoy):
    """The D2 rule: every exploitable class is flagged, and nothing is
    flagged outside exploitable ∪ decoy. Returns (ok, reason)."""
    flagged = set(classes)
    missed = sorted(set(exploitable) - flagged)
    spurious = sorted(flagged - set(exploitable) - set(decoy))
    if missed:
        return False, "missed " + ",".join(missed)
    if spurious:
        return False, "spurious " + ",".join(spurious)
    return True, ""


def status_tag(status):
    """`Analyzed`, `TimedOut`, `Panicked` or `DecompileFailed`."""
    if isinstance(status, str):
        return status
    if isinstance(status, dict) and len(status) == 1:
        return next(iter(status))
    return "Malformed"


def verdict_only(status):
    """Python twin of `driver::Status::verdict_only`: drops the timings
    and witness riders and zeroes `rounds`, so two statuses compare equal
    exactly when their verdicts do."""
    if status_tag(status) != "Analyzed":
        return status
    body = dict(status["Analyzed"])
    body.pop("timings", None)
    body.pop("witness", None)
    body["rounds"] = 0
    return {"Analyzed": body}


def check_op(op, reference, truth, need_witness=False):
    """Why an op failed, or None when it succeeded.

    `op` holds the transport outcome (`http`: the final HTTP status, or
    None for a batch record; `error`: a transport error) and the
    `status` the program returned. A 429 or 503 refusal, any other HTTP
    or transport failure, a status other than `Analyzed`, a verdict
    different from the reference, a reference that breaks the D2 rule,
    and (with `need_witness`) a fresh result without a witness for each
    finding all count as failures."""
    if op.get("error"):
        return "transport: " + op["error"]
    http = op.get("http")
    if http in (429, 503):
        return "refused %d" % http
    if http is not None and http != 200:
        return "http %d" % http
    status = op.get("status")
    tag = status_tag(status)
    if tag != "Analyzed":
        return "status " + tag
    if reference is None:
        return "no reference"
    if verdict_only(status) != verdict_only(reference["verdict"]):
        return "verdict differs from the reference"
    if reference.get("unexplained"):
        return "reference findings without a witness"
    ok, why = ground_truth_ok(reference["classes"], truth["exploitable"], truth["decoy"])
    if not ok:
        return "ground truth: " + why
    if need_witness and not op.get("cached"):
        body = status["Analyzed"]
        witnesses = body.get("witness") or []
        if len(witnesses) != body["findings"]:
            return "fresh result has %d witness(es) for %d finding(s)" % (
                len(witnesses),
                body["findings"],
            )
        ok, why = ground_truth_ok(
            [w["vuln"] for w in witnesses], truth["exploitable"], truth["decoy"]
        )
        if not ok:
            return "witness classes: " + why
    return None


# ---------------------------------------------------------------------------
# Metric catalogue

# End-to-end metrics, in print order: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics the traced probe measures per op:
# (metric name, probe field, unit, how ops are folded).
PROBE_LAYERS = [
    ("decompiler.decompile_ms", "decompile_ms", "ms", "median"),
    ("decompiler.validate_ms", "validate_ms", "ms", "median"),
    ("decompiler.optimize_ms", "optimize_ms", "ms", "median"),
    ("decompiler.optimize.removed_frac", "removed_frac", "1", "median"),
    ("ethainter.dominators_ms", "dominators_ms", "ms", "median"),
    ("ethainter.defuse_ms", "defuse_ms", "ms", "median"),
    ("ethainter.consts_ms", "consts_ms", "ms", "median"),
    ("ethainter.intervals_ms", "intervals_ms", "ms", "median"),
    ("ethainter.intervals.dead_edge_frac", "dead_edge_frac", "1", "median"),
    ("ethainter.artifacts_build_ms", "artifacts_build_ms", "ms", "median"),
    ("ethainter.evaluate_ms", "evaluate_ms", "ms", "median"),
    ("ethainter.fixpoint_rounds", "fixpoint_rounds", "count", "median"),
    ("ethainter.witness_ms", "witness_ms", "ms", "median"),
    ("driver.sandbox_ms", "sandbox_ms", "ms", "median"),
    ("driver.unattributed_ms", "unattributed_ms", "ms", "median"),
    ("store.put_ms", "put_ms", "ms", "median"),
    ("store.get_ms", "get_ms", "ms", "median"),
    ("store.hit_frac", "hit", "1", "mean"),
    ("serde_json.parse_request_ms", "parse_request_ms", "ms", "median"),
    ("serde_json.request_kb", "request_kb", "KB", "median"),
    ("serde_json.write_status_ms", "write_status_ms", "ms", "median"),
    ("server.http_read_ms", "http_read_ms", "ms", "median"),
]

# Per-layer metrics not folded from probe rows: the probe's timing of
# `SharedCache::open`, and the untraced run's own records.
RUN_LAYERS = [
    ("store.open_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.job_ms", "ms"),
    ("client.polls_per_op", "count"),
    ("client.overhead_ms", "ms"),
    ("e2e.latency_p50_ms", "ms"),
]

# The calls that make up one op's latency, per latency definition. For
# scan-cold the latency is the `driver` crate's per-contract `elapsed_ms`; for
# the daemons it runs from the client's submit to the verdict it sees.
PARTS_BATCH = [
    "decompiler.decompile_ms",
    "decompiler.validate_ms",
    "decompiler.optimize_ms",
    "ethainter.artifacts_build_ms",
    "ethainter.evaluate_ms",
    "ethainter.witness_ms",
    "driver.sandbox_ms",
    "driver.unattributed_ms",
]
PARTS_SERVE = [
    "server.http_read_ms",
    "serde_json.parse_request_ms",
    "server.queue_wait_ms",
    "store.get_ms",
    "store.put_ms",
] + PARTS_BATCH + ["serde_json.write_status_ms"]


def share_name(metric):
    """`decompiler.decompile_ms` → `decompiler.decompile_share`."""
    assert metric.endswith("_ms"), metric
    return metric[: -len("_ms")] + "_share"


def per_layer_catalogue():
    """Every per-layer metric a traced run prints: (name, unit)."""
    base = [(name, unit) for name, _, unit, _ in PROBE_LAYERS] + RUN_LAYERS
    shares = [
        (share_name(name), "1")
        for name, unit in base
        if unit == "ms" and name != "e2e.latency_p50_ms"
    ]
    return base + shares + [("unattributed_frac", "1")]


def fold_layers(rows, run_layers, parts):
    """Per-layer metrics from traced probe rows plus the run's own layer
    values: each metric's fold over ops, each time's share of the
    untraced p50 latency, and the share of that latency no part covers."""
    out = {}
    for name, field, unit, how in PROBE_LAYERS:
        values = [r[field] for r in rows]
        fold = median_or_zero if how == "median" else mean_or_zero
        out[name] = (fold(values), unit)
    for name, unit in RUN_LAYERS:
        out[name] = (run_layers[name], unit)
    p50 = run_layers["e2e.latency_p50_ms"]
    for name, (value, unit) in list(out.items()):
        if unit == "ms" and name != "e2e.latency_p50_ms":
            out[share_name(name)] = (value / p50 if p50 else 0.0, "1")
    covered = sum(out[share_name(p)][0] for p in parts)
    out["unattributed_frac"] = (1.0 - covered, "1")
    return out

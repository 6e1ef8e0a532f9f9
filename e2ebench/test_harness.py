"""Tests of the benchmark itself (no build needed):

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import re
import socketserver
import threading
import unittest

import client
import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

GOOD = {
    "Analyzed": {
        "findings": 1,
        "composite": 1,
        "blocks": 10,
        "stmts": 100,
        "rounds": 2,
        "facts": {"guards": 1},
        "lint": [],
        "timings": {"total_us": 1234},
    }
}
TRUTH = {"exploitable": ["TaintedOwnerVariable"], "decoy": []}
REFERENCE = {
    "verdict": dict(GOOD, Analyzed=dict(GOOD["Analyzed"], rounds=0, timings={"total_us": 0})),
    "classes": ["TaintedOwnerVariable"],
    "unexplained": 0,
}


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = harness.tail(values)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(v > value for v in values), harness.TAIL_BEYOND)

    def test_large_samples_move_the_percentile_up(self):
        value, pct, n = harness.tail(list(range(1000)))
        self.assertEqual((value, pct, n), (989, 99.0, 1000))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0] * 20
        self.assertEqual(harness.tail(values), harness.tail(sorted(values)))

    def test_never_below_the_median(self):
        for n in (1, 5, 11, 19):
            value, pct, _ = harness.tail(list(range(n)))
            self.assertEqual(pct, 50.0)
            self.assertEqual(value, harness.statistics.median(range(n)))
        value, pct, _ = harness.tail(list(range(20)))
        self.assertEqual((value, pct), (9, 50.0))

    def test_spread_is_the_interquartile_share_of_the_median(self):
        values = [8, 9, 10, 11, 12]
        q1, q2, q3 = harness.quartiles(values)
        self.assertAlmostEqual(harness.spread(values), (q3 - q1) / q2)

    def test_a_spread_at_the_bound_is_unresolved_for_every_metric(self):
        import steady

        specs = {name: {"bound": 0.25} for name in ("setup_s", "ops_per_s")}
        wide = [1.0, 1.0, 2.0, 2.0]
        runs = [{"result": {"metrics": {"setup_s": {"value": v}, "ops_per_s": {"value": v}}}}
                for v in wide]
        summary = steady.summarize(runs, specs)
        self.assertEqual(summary["setup_s"]["flag"], "UNRESOLVED")
        self.assertEqual(summary["ops_per_s"]["flag"], "UNRESOLVED")


class MetricNames(unittest.TestCase):
    def test_names_match_the_pattern_and_are_unique(self):
        names = [n for n, _ in harness.END_TO_END] + [n for n, _ in harness.per_layer_catalogue()]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, harness.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_exactly_what_run_py_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]], harness.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]], harness.per_layer_catalogue())
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], unit)

    def test_every_part_has_a_share(self):
        catalogue = dict(harness.per_layer_catalogue())
        for part in harness.PARTS_SERVE:
            self.assertIn(harness.share_name(part), catalogue)


class Verdicts(unittest.TestCase):
    def test_a_matching_op_passes(self):
        op = {"http": 200, "status": GOOD, "cached": True}
        self.assertIsNone(harness.check_op(op, REFERENCE, TRUTH))

    def test_rounds_and_timings_do_not_count(self):
        status = {"Analyzed": dict(GOOD["Analyzed"], rounds=7, timings={"total_us": 9})}
        self.assertIsNone(harness.check_op({"http": 200, "status": status}, REFERENCE, TRUTH))

    def test_injected_wrong_verdict_fails(self):
        wrong = {"Analyzed": dict(GOOD["Analyzed"], findings=0)}
        why = harness.check_op({"http": 200, "status": wrong}, REFERENCE, TRUTH)
        self.assertIn("verdict", why)

    def test_injected_refusals_fail(self):
        for code in (429, 503):
            self.assertIn("refused", harness.check_op({"http": code}, REFERENCE, TRUTH))

    def test_other_statuses_fail(self):
        why = harness.check_op({"http": 200, "status": "TimedOut"}, REFERENCE, TRUTH)
        self.assertEqual(why, "status TimedOut")

    def test_ground_truth_rule(self):
        ok = harness.ground_truth_ok
        self.assertTrue(ok(["A"], ["A"], [])[0])
        self.assertTrue(ok(["A", "B"], ["A"], ["B"])[0])
        self.assertFalse(ok([], ["A"], [])[0])
        self.assertFalse(ok(["A", "C"], ["A"], ["B"])[0])
        bad_ref = dict(REFERENCE, classes=[])
        why = harness.check_op({"http": 200, "status": GOOD}, bad_ref, TRUTH)
        self.assertIn("ground truth", why)

    def test_fresh_witness_results_need_a_witness_per_finding(self):
        op = {"http": 200, "status": GOOD, "cached": False}
        self.assertIn("witness", harness.check_op(op, REFERENCE, TRUTH, need_witness=True))
        explained = {"Analyzed": dict(GOOD["Analyzed"], witness=[{"vuln": "TaintedOwnerVariable"}])}
        op = {"http": 200, "status": explained, "cached": False}
        self.assertIsNone(harness.check_op(op, REFERENCE, TRUTH, need_witness=True))
        # A cache hit carries no witness and needs none.
        self.assertIsNone(harness.check_op(
            {"http": 200, "status": GOOD, "cached": True}, REFERENCE, TRUTH, need_witness=True))


class Attribution(unittest.TestCase):
    def test_unattributed_is_what_the_parts_leave(self):
        row = {field: 0.0 for _, field, _, _ in harness.PROBE_LAYERS}
        row.update(decompile_ms=30.0, evaluate_ms=20.0, hit=1.0)
        run_layers = {name: 0.0 for name, _ in harness.RUN_LAYERS}
        run_layers["e2e.latency_p50_ms"] = 100.0
        out = harness.fold_layers([row, row], run_layers, harness.PARTS_BATCH)
        self.assertAlmostEqual(out["decompiler.decompile_share"][0], 0.3)
        self.assertAlmostEqual(out["unattributed_frac"][0], 0.5)
        self.assertEqual(out["store.hit_frac"][0], 1.0)
        self.assertEqual(
            sorted(out), sorted(name for name, _ in harness.per_layer_catalogue()))


class FakeDaemon(socketserver.ThreadingTCPServer):
    """Answers `POST /jobs` like `ethainter serve`: job `bad` gets a wrong
    verdict, job `busy` a 429, every other job the good one."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), FakeHandler)


class FakeHandler(socketserver.StreamRequestHandler):
    def handle(self):
        line = self.rfile.readline().decode()
        length = 0
        while True:
            header = self.rfile.readline().decode()
            if header in ("\r\n", ""):
                break
            if header.lower().startswith("content-length:"):
                length = int(header.split(":")[1])
        body = self.rfile.read(length)
        method, path = line.split()[:2]
        if method == "POST":
            name = json.loads(body)["id"]
            if name == "busy":
                return self.reply(429, {"error": "queue full"})
            return self.reply(202, {"id": name, "state": "queued"})
        name = path.rsplit("/", 1)[1]
        status = GOOD if name != "bad" else {"Analyzed": dict(GOOD["Analyzed"], composite=0)}
        self.reply(200, {"id": name, "state": "done", "wait_ms": 0, "total_ms": 1,
                         "cached": True, "report": {"status": status}})

    def reply(self, code, doc):
        body = json.dumps(doc).encode()
        self.wfile.write(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
                         % (code, len(body), body))


class ClientFailures(unittest.TestCase):
    def test_injected_wrong_verdict_and_429_each_count_as_a_failed_op(self):
        server = FakeDaemon()
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            requests = [(n, client.job_request("0x00", n, False)) for n in ("ok", "bad", "busy")]
            ops, window_s = client.closed_loop(server.server_address, requests, 5.0, cycle=False)
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        self.assertEqual(len(ops), 3)
        self.assertGreater(window_s, 0)
        failed = {op["name"]: harness.check_op(op, REFERENCE, TRUTH) for op in ops}
        self.assertIsNone(failed["ok"])
        self.assertIn("verdict", failed["bad"])
        self.assertEqual(failed["busy"], "refused 429")
        self.assertEqual(sum(why is not None for why in failed.values()), 2)


if __name__ == "__main__":
    unittest.main()

"""The load generator and the process probes of the end-to-end benchmark.

The client stays out of the daemon's way: one process, at most two
threads, each with at most one connection open, and no spin-waiting. A
job is polled right after its 202, then after 0.5, 1, 2, 4 ms and every
8 ms from there on, so a cache hit (done well under a millisecond after
its 202) is seen after one or two polls while a cold analysis costs
about one poll per 8 ms of its latency. Polls per op are recorded.
"""

import json
import os
import signal
import socket
import subprocess
import threading
import time

POLL_FIRST_S = 0.0005
POLL_CAP_S = 0.008
IO_TIMEOUT_S = 60.0
CLK_TCK = os.sysconf("SC_CLK_TCK")


def http_call(addr, raw, timeout=IO_TIMEOUT_S):
    """Sends one raw HTTP/1.1 request on a fresh connection and returns
    (status, body bytes). The daemon closes each connection after one
    response."""
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise OSError("malformed HTTP response")
    status = int(head.split(b" ", 2)[1])
    return status, body


def get_request(path):
    return ("GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" % path).encode()


def post_request(path, body):
    head = (
        "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n" % (path, len(body))
    )
    return head.encode() + body


def job_request(hex_code, name, witness):
    """The raw `POST /jobs` request of one contract."""
    doc = {"bytecode": hex_code, "id": name}
    if witness:
        doc["config"] = {"witness": True}
    return post_request("/jobs", json.dumps(doc, separators=(",", ":")).encode())


def run_op(addr, name, raw):
    """Submits one job and polls until it is done. Returns the op record:
    client latency, polls, the final HTTP status, and the done body's
    fields."""
    op = {"name": name, "polls": 0, "http": None, "status": None, "error": None}
    t0 = time.perf_counter()
    try:
        code, body = http_call(addr, raw)
        if code != 202:
            op["http"] = code
            op["latency_ms"] = (time.perf_counter() - t0) * 1e3
            return op
        path = "/jobs/" + json.loads(body)["id"]
        delay = POLL_FIRST_S
        while True:
            code, body = http_call(addr, get_request(path))
            op["polls"] += 1
            if code != 200:
                op["http"] = code
                break
            doc = json.loads(body)
            if doc["state"] == "done":
                op["http"] = 200
                op["done_body"] = body
                op["status"] = doc["report"]["status"]
                op["cached"] = doc["cached"]
                op["wait_ms"] = doc["wait_ms"]
                op["total_ms"] = doc["total_ms"]
                break
            time.sleep(delay)
            delay = min(delay * 2, POLL_CAP_S)
    except (OSError, ValueError, KeyError) as e:
        op["error"] = "%s: %s" % (type(e).__name__, e)
    op["latency_ms"] = (time.perf_counter() - t0) * 1e3
    return op


def closed_loop(addr, requests, seconds, clients=2, cycle=True, segments=1, on_segment=None):
    """Runs `clients` closed-loop clients over `requests` ([(name, raw)])
    for `seconds`: each client takes the next request in order (wrapping
    around when `cycle`, stopping at the end otherwise), waits for its
    verdict, and goes on. No op starts after the deadline; ops in flight
    finish. The calling thread, which sends nothing, calls `on_segment()`
    at each of the `segments - 1` inner boundaries of the window.
    Returns (ops in completion order, window seconds)."""
    lock = threading.Lock()
    state = {"next": 0}
    ops = []
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def client():
        while time.perf_counter() < deadline:
            with lock:
                i = state["next"]
                if i >= len(requests) and not cycle:
                    return
                state["next"] = i + 1
            name, raw = requests[i % len(requests)]
            op = run_op(addr, name, raw)
            if op["http"] == 429:
                time.sleep(0.01)  # back off before the next submit
            with lock:
                ops.append(op)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for k in range(1, segments):
        time.sleep(max(0.0, t_start + seconds * k / segments - time.perf_counter()))
        on_segment()
    for t in threads:
        t.join()
    return ops, time.perf_counter() - t_start


def host_cpu():
    """(busy, steal, total) jiffies of the whole machine from /proc/stat;
    steal is time the hypervisor ran someone else on our CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    idle = fields[3] + fields[4]
    steal = fields[7] if len(fields) > 7 else 0
    total = sum(fields[:8])
    return total - idle - steal, steal, total


def steal_frac(before, after):
    """Share of the machine's CPU time stolen between two host_cpu()
    readings."""
    total = after[2] - before[2]
    return (after[1] - before[1]) / total if total else 0.0


class Daemon:
    """One `ethainter serve` child process on an ephemeral port.

    `setup_s` is spawn → first 200 from `/healthz`. The daemon prints
    its address once the listener is bound and the cache replayed, and
    the kernel queues a connection until the accept loop takes it, so
    one blocking `/healthz` call after that line is normally enough; the
    retry after a short sleep covers a refusal."""

    def __init__(self, argv, env, log_path):
        self.log = open(log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.log, env=env, stdin=subprocess.DEVNULL
        )
        try:
            first = self.proc.stdout.readline().decode()
            if "http://" not in first:
                raise RuntimeError("serve did not report its address: %r" % first)
            host, port = first.rsplit("http://", 1)[1].strip().rsplit(":", 1)
            self.addr = (host, int(port))
            health = get_request("/healthz")
            while True:
                try:
                    if http_call(self.addr, health, timeout=5.0)[0] == 200:
                        break
                except OSError:
                    pass
                if self.proc.poll() is not None:
                    raise RuntimeError("serve exited during start-up")
                time.sleep(0.001)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise

    def cpu_s(self):
        """User plus system CPU seconds of the daemon process so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def reset_peak_rss(self):
        """Starts a new peak-RSS window; False when the kernel refuses."""
        try:
            with open("/proc/%d/clear_refs" % self.proc.pid, "w") as f:
                f.write("5")
            return True
        except OSError:
            return False

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pid %d" % self.proc.pid)

    def stop(self):
        """SIGINT (graceful drain), then SIGKILL if it does not exit;
        always waits for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode

"""The serve-small workload: a fresh `cvmt serve` daemon per sample,
driven over TCP by this one generator process.

Every request line is built from a seeded pool of 64 distinct `run`
requests, and every response is checked byte-for-byte against the
reference the in-process probe computed for the same request.
"""

import json
import os
import random
import selectors
import signal
import socket
import subprocess
import time
from pathlib import Path

POOL_SIZE = 64
RUN_CONFIG = {"fast": True, "budget": 500}
SERVE_WORKERS = 3
PHASE_A_DEPTH = 8          # requests in flight per connection in phase A
PHASE_A_REQUESTS = 10000
PHASE_B_REQUESTS = 1000
ID_PREFIX = b'{"id":'


class SampleError(Exception):
    """A sample that cannot complete; the sample is discarded."""


def make_pool(seed, schemes, benchmarks):
    """POOL_SIZE distinct (scheme, four benchmarks) run requests as the
    JSON text after the id field, plus the phase sequences of pool
    indices, all drawn from `seed`."""
    rng = random.Random(seed)
    seen = set()
    bodies = []
    while len(bodies) < POOL_SIZE:
        pair = (rng.choice(schemes), tuple(rng.sample(benchmarks, 4)))
        if pair in seen:
            continue
        seen.add(pair)
        body = json.dumps({"type": "run", "scheme": pair[0],
                           "benchmarks": list(pair[1]),
                           "config": RUN_CONFIG}, separators=(",", ":"))
        bodies.append(body[1:])  # drop "{": the id field goes first
    seq_a = [rng.randrange(POOL_SIZE) for _ in range(PHASE_A_REQUESTS)]
    seq_b = [rng.randrange(POOL_SIZE) for _ in range(PHASE_B_REQUESTS)]
    return bodies, seq_a, seq_b


def request_line(request_id, body):
    return b"%s%d,%s\n" % (ID_PREFIX, request_id, body)


class Pool:
    """Request bodies with their reference response suffixes (the
    response text after `{"id":N,`) and simulated instruction counts."""

    def __init__(self, bodies, refs):
        prefix = '{"id":0,'
        self.bodies = [b.encode() for b in bodies]
        self.suffixes = []
        self.instructions = []
        for ref in refs:
            if not ref["response"].startswith(prefix):
                raise ValueError("reference response lacks the id prefix")
            self.suffixes.append(ref["response"][len(prefix):].encode())
            self.instructions.append(ref["instructions"])


def check_response(line, inflight, suffixes):
    """Matches one response line to its request. Returns (request_id,
    entry, reason): `entry` is the popped inflight value, None when the
    id is unknown or duplicated; `reason` is empty when the bytes equal
    the reference."""
    comma = line.find(b",", len(ID_PREFIX))
    if not line.startswith(ID_PREFIX) or comma < 0:
        return None, None, "response without a leading id: %r" % line[:80]
    try:
        request_id = int(line[len(ID_PREFIX):comma])
    except ValueError:
        return None, None, "non-integer response id: %r" % line[:80]
    entry = inflight.pop(request_id, None)
    if entry is None:
        return request_id, None, "unknown or duplicated id %d" % request_id
    if line[comma + 1:] != suffixes[entry[0]]:
        return request_id, entry, "response %d differs from the in-process " \
                                  "result: %r" % (request_id, line[:120])
    return request_id, entry, ""


class Conn:
    """One client connection with its receive buffer."""

    def __init__(self, port, timeout):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.inflight = {}

    def recv_lines(self):
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise SampleError("daemon closed the connection")
        *lines, self.buf = (self.buf + chunk).split(b"\n")
        return lines

    def call(self, line):
        """Sends one inline request and returns its parsed response."""
        self.sock.sendall(line)
        lines = []
        while not lines:
            lines = self.recv_lines()
        if len(lines) != 1 or self.buf:
            raise SampleError("unexpected extra response lines")
        return json.loads(lines[0])

    def close(self):
        self.sock.close()


class Generator:
    """Closed-loop request sender over one or more connections."""

    def __init__(self, pool, outcomes, deadline):
        self.pool = pool
        self.outcomes = outcomes
        self.deadline = deadline
        self.next_id = 1
        self.sent_lines = 0
        self.runs_sent = 0
        self.spans = None      # list: record one span per request
        self.origin_ns = 0

    def inline(self, conn, kind):
        self.sent_lines += 1
        rid = self.next_id
        self.next_id += 1
        reply = conn.call(b'{"id":%d,"type":"%s"}\n' % (rid, kind.encode()))
        if reply.get("id") != rid or reply.get("ok") is not True:
            raise SampleError("%s failed: %r" % (kind, reply))
        self.outcomes.record(True)
        return reply["result"]

    def closed_loop(self, conns, depth, seq, latencies=None):
        """Sends the run requests `seq` (pool indices), keeping `depth` in
        flight per connection. Returns the phase's wall time in seconds."""
        sel = selectors.DefaultSelector()
        issued = outstanding = 0
        start = time.perf_counter_ns()

        def refill(conn, count):
            nonlocal issued, outstanding
            out = []
            now = time.perf_counter_ns()
            while count > 0 and issued < len(seq):
                index = seq[issued]
                rid = self.next_id
                self.next_id += 1
                out.append(request_line(rid, self.pool.bodies[index]))
                conn.inflight[rid] = (index, now)
                issued += 1
                count -= 1
            if out:
                conn.sock.sendall(b"".join(out))
                outstanding += len(out)
                self.sent_lines += len(out)
                self.runs_sent += len(out)

        try:
            for conn in conns:
                sel.register(conn.sock, selectors.EVENT_READ, conn)
                refill(conn, depth)
            while outstanding > 0:
                timeout = self.deadline - time.monotonic()
                if timeout <= 0:
                    lost = sum(len(c.inflight) for c in conns)
                    for _ in range(lost):
                        self.outcomes.fail("lost response (timeout)")
                    raise SampleError("%d responses lost" % lost)
                for key, _ in sel.select(timeout):
                    conn = key.data
                    lines = conn.recv_lines()
                    now = time.perf_counter_ns()
                    answered = 0
                    for line in lines:
                        rid, entry, reason = check_response(
                            line, conn.inflight, self.pool.suffixes)
                        if entry is None:
                            self.outcomes.fail(reason)
                            continue
                        answered += 1
                        self.outcomes.record(not reason, reason)
                        if latencies is not None:
                            latencies.append((now - entry[1]) / 1e6)
                        if self.spans is not None:
                            self.spans.append({
                                "name": "serve.request",
                                "start_ns": entry[1] - self.origin_ns,
                                "end_ns": now - self.origin_ns,
                                "parent": -1, "request": rid})
                    outstanding -= answered
                    refill(conn, answered)
        finally:
            sel.close()
        return (time.perf_counter_ns() - start) / 1e9


class Daemon:
    """`cvmt serve` under the rusage launcher, in its own session so a
    hung daemon can be killed with everything it started."""

    def __init__(self, spawn, cvmt, workdir, env):
        self.port_file = workdir / "serve.port"
        self.rusage_file = workdir / "serve.rusage"
        for f in (self.port_file, self.rusage_file):
            f.unlink(missing_ok=True)
        self.stderr = open(workdir / "serve.stderr", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(spawn), str(self.rusage_file), str(cvmt), "serve",
             "--port=0", "--port-file=%s" % self.port_file,
             "--workers=%d" % SERVE_WORKERS, "--quiet"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.stderr, start_new_session=True, env=env)

    def wait_port(self, deadline):
        while time.monotonic() < deadline:
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            if self.proc.poll() is not None:
                raise SampleError("daemon exited before listening")
            time.sleep(0.0002)
        raise SampleError("daemon did not write its port file in time")

    def stop(self, timeout):
        """SIGTERM (forwarded to the daemon by the launcher), then the
        daemon's rusage. Raises SampleError on a hang or bad exit."""
        try:
            os.kill(self.proc.pid, signal.SIGTERM)
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise SampleError("daemon did not drain within %.0f s" % timeout)
        finally:
            self.stderr.close()
        usage = json.loads(self.rusage_file.read_text())
        if usage["exit"] != 0:
            raise SampleError("daemon exited with %d" % usage["exit"])
        return usage

    def kill(self):
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        if not self.stderr.closed:
            self.stderr.close()


def check_final_stats(stats, gen, inline_before):
    """The daemon's own accounting must match the generator's: every line
    received, every run answered, nothing failed or refused."""
    req = stats["requests"]
    problems = []
    if req["received"] != gen.sent_lines:
        problems.append("received %d != sent %d" % (req["received"],
                                                    gen.sent_lines))
    if req["completed"] != gen.runs_sent:
        problems.append("completed %d != runs sent %d" % (req["completed"],
                                                          gen.runs_sent))
    if req["inline_served"] != inline_before:
        problems.append("inline_served %d != %d" % (req["inline_served"],
                                                    inline_before))
    for key in ("failed", "rejected_overload", "rejected_draining",
                "protocol_errors"):
        if req[key] != 0:
            problems.append("%s = %d" % (key, req[key]))
    return problems


def run_sample(tools, workdir, env, pool, seq_a, seq_b, outcomes, deadline,
               trace=False):
    """One daemon lifetime: launch, ping, cold pass, phase A, phase B,
    stats, SIGTERM. Returns the sample's measurements, or None when the
    sample failed (the failure is already counted in `outcomes`)."""
    daemon = Daemon(tools["spawn"], tools["cvmt"], workdir, env)
    gen = Generator(pool, outcomes, deadline)
    conns = []
    try:
        port = daemon.wait_port(deadline)
        conns.append(Conn(port, timeout=max(1.0, deadline - time.monotonic())))
        gen.inline(conns[0], "ping")
        inline = 1
        gen.closed_loop(conns[:1], POOL_SIZE, list(range(POOL_SIZE)))
        setup_s = time.perf_counter() - daemon.started
        snapshots = []
        if trace:
            gen.spans, gen.origin_ns = [], time.perf_counter_ns()
            snapshots.append(gen.inline(conns[0], "stats"))
            inline += 1
        width = min(4, os.cpu_count() or 1)
        conns += [Conn(port, timeout=max(1.0, deadline - time.monotonic()))
                  for _ in range(width - 1)]
        cpu0 = time.process_time()
        wall_a = gen.closed_loop(conns, PHASE_A_DEPTH, seq_a)
        if trace:
            snapshots.append(gen.inline(conns[0], "stats"))
            inline += 1
        latencies = []
        wall_b = gen.closed_loop(conns[:1], 1, seq_b, latencies)
        gen_cpu = time.process_time() - cpu0
        final = gen.inline(conns[0], "stats")
        snapshots.append(final)
        problems = check_final_stats(final, gen, inline)
        for conn in conns:
            conn.close()
        conns = []
        usage = daemon.stop(timeout=max(1.0, min(30.0, deadline - time.monotonic())))
        outcomes.record(not problems, "; ".join(problems))
        if problems:
            return None
    except Exception as e:  # any failure fails the sample, never the daemon
        for conn in conns:
            conn.close()
        daemon.kill()
        outcomes.fail("serve sample: %s" % e)
        return None
    # wall_s and sim_mips cover phase A only: phase B's wall time is the sum
    # of one-at-a-time latencies, dominated by their tail, and is reported
    # through the latency median instead.
    instructions = sum(pool.instructions[i] for i in seq_a)
    return {
        "setup_s": setup_s,
        "wall_s": wall_a,
        "wall_a": wall_a,
        "runs_per_s": len(seq_a) / wall_a,
        "cpu_s": usage["user_s"] + usage["sys_s"],
        "peak_rss_mb": usage["maxrss_kb"] / 1024.0,
        "sim_mips": instructions / wall_a / 1e6,
        "latencies_ms": latencies,
        "gen_cpu_ratio": gen_cpu / (wall_a + wall_b),
        "snapshots": snapshots,
        "spans": gen.spans or [],
    }


def write_pool_file(path, bodies):
    """The pool as request lines with id 0, for the probe."""
    Path(path).write_bytes(b"".join(request_line(0, b.encode())
                                    for b in bodies))

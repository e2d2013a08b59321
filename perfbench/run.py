#!/usr/bin/env python3
"""The cvmt benchmark. See perfbench/README.md for the metrics, the
workloads and why each was chosen.

Run from the repository root:

  python3 perfbench/run.py --workload fig10-paper --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seconds 15     # all, interleaved
  python3 perfbench/run.py --workload sweep-fast --trace 1  # per-layer run
  python3 perfbench/run.py --update-reference   # after a deliberate model change

It builds `cvmt` and the benchmark's helpers from this checkout (Release,
into $CARGO_TARGET_DIR or .bench_build), prints a report, and prints one
JSON result object as the last line of standard output. The exit code is
non-zero when any output check failed.
"""

import argparse
import fcntl
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import measure  # noqa: E402
import serve_load  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("fig10-paper", "sweep-fast", "serve-small")
RUN_LIMIT_S = 170          # every run, build excluded, ends inside this
SETUP_REPS = 11
FIG10_POINTS = 144         # 16 schemes x 9 workloads
SERVE_REF_REPS = 5         # timed in-process repetitions per request

END_TO_END = (
    ("wall_s", "s"), ("sim_mips", "M/s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("runs_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
)
# The per-layer metrics every workload's traced run measures; the report
# also prints the layer metrics that exist only on some workloads.
PER_LAYER = (
    ("trace.programs_built", "count"), ("trace.build_ms", "ms"),
    ("core.schemes_compiled", "count"), ("core.compile_ms", "ms"),
    ("sim.runs", "count"), ("sim.run_s", "s"), ("sim.us_per_run", "us"),
    ("sim.ns_per_cycle", "ns"), ("sim.cycles", "count"),
    ("sim.instructions", "count"), ("sim.idle_cycles", "count"),
    ("sim.context_switches", "count"),
    ("mem.icache_accesses", "count"), ("mem.icache_miss_ratio", "ratio"),
    ("mem.dcache_accesses", "count"), ("mem.dcache_miss_ratio", "ratio"),
    ("mem.icache_stall_cycles", "count"),
    ("mem.dcache_stall_cycles", "count"),
)
UNITS = dict(END_TO_END + PER_LAYER)


class BenchError(Exception):
    """Stops the benchmark before any result is printed."""


class CommandError(Exception):
    """One `cvmt` command failed: timeout or non-zero exit."""


# ----------------------------------------------------------------- guards

def guard_environment():
    """Every CLI flag layers over a CVMT_* variable, so a stray one would
    silently measure a different program."""
    stray = sorted(k for k in os.environ if k.startswith("CVMT_"))
    if stray:
        raise BenchError("refusing to run with %s set: every cvmt flag layers "
                         "over its CVMT_* variable" % ", ".join(stray))


def git(*args):
    """stdout of a git command in the checkout, or None on any failure."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def describe_commit(describe):
    """The abbreviated commit in a `git describe --always --dirty --tags`
    string, or None for a bare tag or "unknown"."""
    describe = describe.removesuffix("-dirty")
    m = re.search(r"-g([0-9a-f]{7,40})$", describe)
    if m:
        return m.group(1)
    if re.fullmatch(r"[0-9a-f]{7,40}", describe):
        return describe
    return None


def parse_version(text):
    m = re.fullmatch(r"cvmt (\S+) \((.+), (\S+)\)", text.strip())
    if not m:
        raise BenchError("unrecognised `cvmt version` output: %r" % text)
    return {"describe": m.group(1), "compiler": m.group(2),
            "build_type": m.group(3)}


def check_provenance(version, head, tag_commit=None):
    """Problems that make the binary a different program than this
    checkout's HEAD in a Release build (empty when none). `head` is None
    outside a git work tree; `tag_commit` resolves a bare tag."""
    problems = []
    if version["build_type"] != "Release":
        problems.append("build type is %s, not Release" %
                        version["build_type"])
    describe = version["describe"]
    if head is None:
        if describe != "unknown":
            problems.append("binary reports commit %s but the checkout is "
                            "not a git work tree" % describe)
    else:
        commit = describe_commit(describe) or tag_commit
        if commit is None or not head.startswith(commit):
            problems.append("binary commit %s is not HEAD %s" %
                            (describe, head[:12]))
    return problems


# ------------------------------------------------------------------ build

def build_dir():
    return ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(force_configure=False):
    """Configures (first time) and builds cvmt and the helpers; returns
    their paths. Serialized across concurrent runs by a lock file."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "perfbench-build.log"
    with open(bdir / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if force_configure or not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j",
                      str(os.cpu_count() or 1)])
        with open(log, "ab") as out:
            for step in steps:
                try:
                    code = subprocess.run(step, stdout=out, stderr=out,
                                          stdin=subprocess.DEVNULL,
                                          timeout=850).returncode
                except subprocess.TimeoutExpired:
                    code = -1
                if code != 0:
                    tail = log.read_text(errors="replace")[-3000:]
                    raise BenchError("build step failed: %s\n%s" %
                                     (" ".join(step), tail))
    return {"cvmt": bdir / "cvmt" / "cvmt", "probe": bdir / "perfbench_probe",
            "spawn": bdir / "perfbench_spawn"}


def provenance():
    """Builds, then checks the binary against HEAD and the build type; a
    stale configure-time commit stamp gets one reconfigure. Returns the
    tools and the provenance stamp."""
    head = git("rev-parse", "HEAD")
    tools = build()
    for attempt in range(2):
        text = subprocess.run([str(tools["cvmt"]), "version"],
                              capture_output=True, text=True,
                              timeout=30).stdout
        version = parse_version(text)
        tag_commit = None
        if head and describe_commit(version["describe"]) is None:
            tag_commit = git("rev-parse", version["describe"].removesuffix(
                "-dirty") + "^{commit}")
        problems = check_provenance(version, head, tag_commit)
        if not problems or attempt == 1 or head is None:
            break
        tools = build(force_configure=True)
    if problems:
        raise BenchError("; ".join(problems))
    return tools, {
        "cvmt": text.strip(),
        "commit": head or "unknown (not a git checkout)",
        "dirty": version["describe"].endswith("-dirty"),
        "nproc": os.cpu_count() or 1,
        "kernel": platform.release(),
    }


# ---------------------------------------------------------------- running

class Runner:
    """Starts `cvmt` commands under the rusage launcher, each with a
    timeout inside the run's deadline."""

    def __init__(self, tools, workdir, deadline):
        self.tools = tools
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)

    def remaining(self):
        return self.deadline - time.monotonic()

    def cvmt(self, args, out_path):
        usage_path = self.workdir / "cmd.rusage"
        err_path = self.workdir / "cmd.stderr"
        usage_path.unlink(missing_ok=True)
        timeout = self.remaining()
        if timeout <= 0:
            raise CommandError("no time left in the run")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [str(self.tools["spawn"]), str(usage_path),
                 str(self.tools["cvmt"]), *args],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                start_new_session=True, env=self.env, cwd=ROOT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise CommandError("cvmt %s timed out" % " ".join(args))
        if proc.returncode != 0 or not usage_path.exists():
            tail = err_path.read_text(errors="replace")[-500:]
            raise CommandError("cvmt %s exited with %d: %s" %
                               (" ".join(args), proc.returncode, tail))
        return json.loads(usage_path.read_text())

    def probe(self, args):
        try:
            out = subprocess.run([str(self.tools["probe"]), *args],
                                 capture_output=True, text=True, cwd=ROOT,
                                 timeout=max(1.0, self.remaining()),
                                 env=self.env, stdin=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise CommandError("perfbench_probe %s timed out" % args[0])
        if out.returncode != 0:
            raise CommandError("perfbench_probe %s failed: %s" %
                               (args[0], out.stderr[-500:]))
        return out.stdout


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def span_s(totals, name):
    return totals.get(name, {"total_ns": 0})["total_ns"] / 1e9


def layer_metrics(trace):
    """The PER_LAYER metrics from one probe trace."""
    totals = measure.layer_totals(trace["spans"])
    sim = trace["sim"]
    art = trace["artifacts"]
    run_s = span_s(totals, "sim.run")
    return {
        "trace.programs_built": art["programs_built"],
        "trace.build_ms": (span_s(totals, "trace.program") +
                           span_s(totals, "trace.workload")) * 1e3,
        "core.schemes_compiled": art["schemes_compiled"],
        "core.compile_ms": span_s(totals, "core.scheme") * 1e3,
        "sim.runs": sim["runs"],
        "sim.run_s": run_s,
        "sim.us_per_run": run_s / sim["runs"] * 1e6,
        "sim.ns_per_cycle": run_s / sim["cycles"] * 1e9,
        "sim.cycles": sim["cycles"],
        "sim.instructions": sim["instructions"],
        "sim.idle_cycles": sim["idle_cycles"],
        "sim.context_switches": sim["context_switches"],
        "mem.icache_accesses": sim["icache_accesses"],
        "mem.icache_miss_ratio":
            1.0 - sim["icache_hits"] / sim["icache_accesses"],
        "mem.dcache_accesses": sim["dcache_accesses"],
        "mem.dcache_miss_ratio":
            1.0 - sim["dcache_hits"] / sim["dcache_accesses"],
        "mem.icache_stall_cycles": sim["icache_stall_cycles"],
        "mem.dcache_stall_cycles": sim["dcache_stall_cycles"],
    }


# ---------------------------------------------------------- CLI workloads

class CliWorkload:
    """fig10-paper (`cvmt run fig10` at defaults) and sweep-fast (`cvmt
    run fig10 --fast --store DIR` into a fresh DIR, then `cvmt merge`)."""

    def __init__(self, name, runner, outcomes, reference):
        self.name = name
        self.runner = runner
        self.outcomes = outcomes
        self.sweep = name == "sweep-fast"
        self.reference = reference.get(name)
        if self.reference is None:
            raise BenchError("no reference for %s in %s (run with "
                             "--update-reference)" % (name, REFERENCE))
        self.samples = []
        self.setups = []

    def commands(self, setup, store):
        run = ["run", "fig10", "--format=json"]
        if self.sweep:
            run[2:2] = ["--fast", "--store", str(store)]
        if setup:
            run.append("--budget=1")
        cmds = [run]
        if self.sweep:
            cmds.append(["merge", "--store", str(store), "--format=json"])
        return cmds

    def execute(self, setup):
        """Runs the workload's commands once and checks every output.
        Returns the measurements, or None when anything failed."""
        store = self.runner.workdir / "store"
        shutil.rmtree(store, ignore_errors=True)
        expected = self.reference["setup" if setup else "main"]["sha256"]
        usages, first = [], None
        for i, args in enumerate(self.commands(setup, store)):
            out = self.runner.workdir / ("out%d.json" % i)
            try:
                usages.append(self.runner.cvmt(args, out))
            except CommandError as e:
                self.outcomes.fail("%s: %s" % (self.name, e))
                return None
            data = out.read_bytes()
            if first is None:
                first = data
                ok, reason = measure.check_output(data, expected,
                                                  "%s run" % self.name)
            else:
                ok, reason = measure.check_same(data, first,
                                                "%s merge" % self.name)
            if not self.outcomes.record(ok, reason):
                return None
        return {
            "wall_s": sum(u["wall_s"] for u in usages),
            "cpu_s": sum(u["user_s"] + u["sys_s"] for u in usages),
            "peak_rss_mb": max(u["maxrss_kb"] for u in usages) / 1024.0,
        }

    def prepare(self):
        pass

    def warm_up(self):
        self.execute(setup=False)

    def setup_once(self):
        s = self.execute(setup=True)
        if s is not None:
            self.setups.append(s["wall_s"])

    def sample(self):
        s = self.execute(setup=False)
        if s is not None:
            self.samples.append(s)

    def metrics(self):
        """Each metric with its samples: (value, samples or None)."""
        walls = [s["wall_s"] for s in self.samples]
        wall = measure.median(walls)
        instructions = self.reference["sim"]["instructions"]
        cpus = [s["cpu_s"] for s in self.samples]
        rss = [s["peak_rss_mb"] for s in self.samples]
        return {
            "wall_s": (wall, walls),
            "sim_mips": (instructions / wall / 1e6, None),
            "cpu_s": (measure.median(cpus), cpus),
            "peak_rss_mb": (measure.median(rss), rss),
            "runs_per_s": (FIG10_POINTS / wall, None),
            "latency_p50_ms": (wall * 1e3, [w * 1e3 for w in walls]),
            "setup_s": (measure.median(self.setups), self.setups),
        }

    def traced(self):
        """The probe's traced in-process pass, then the untimed-internals
        commands it is compared against: the workload's command once, and
        `cvmt version` SETUP_REPS times for the per-process cost."""
        pdir = self.runner.workdir / "probe"
        shutil.rmtree(pdir, ignore_errors=True)
        trace_path = self.runner.workdir / "trace.json"
        self.runner.probe(["cli", "--workload=" + self.name,
                           "--dir=" + str(pdir), "--out=" + str(trace_path)])
        trace = json.loads(trace_path.read_text())
        exp_out = (pdir / "exp_output.json").read_bytes()
        self.outcomes.record(*measure.check_output(
            exp_out, self.reference["main"]["sha256"],
            "%s in-process output" % self.name))
        if self.sweep:
            self.outcomes.record(*measure.check_same(
                (pdir / "merge_output.json").read_bytes(), exp_out,
                "%s in-process merge" % self.name))
        for key, want in self.reference["sim"].items():
            got = trace["sim"].get(key)
            self.outcomes.record(got == want, "%s: sim.%s = %s, reference %s"
                                 % (self.name, key, got, want))
        self.sample()
        if not self.samples:
            raise BenchError("the untraced %s command failed" % self.name)
        process_s = [self.runner.cvmt(["version"], self.runner.workdir /
                                      "version.txt")["wall_s"]
                     for _ in range(SETUP_REPS)]
        sample = self.samples[-1]
        layers = layer_metrics(trace)
        totals = measure.layer_totals(trace["spans"])
        nproc = trace["nproc"]
        run_batch_s = span_s(totals, "exp.run_batch")
        extra = {
            "wall_s": (sample["wall_s"], "s"),
            "exp.run_batch_s": (run_batch_s, "s"),
            "exp.pool_efficiency": (
                layers["sim.run_s"] / (nproc * run_batch_s), "ratio"),
            "exp.output_ms": (span_s(totals, "exp.print_result") * 1e3,
                              "ms"),
            "exp.process_ms": (measure.median(process_s) * 1e3, "ms"),
        }
        if self.sweep:
            extra.update({
                "store.points_appended": (trace["store"]["points_appended"],
                                          "count"),
                "store.append_ms": (totals["store.run_point"]["self_ns"] / 1e6,
                                    "ms"),
                "store.log_bytes": (trace["store"]["log_bytes"], "bytes"),
                "store.merge_ms": (span_s(totals, "store.merge") * 1e3, "ms"),
                "sim.batch_run_s": (span_s(totals, "sim.batch_run"), "s"),
                "sim.batch_fused_jobs": (trace["batch"]["fused_jobs"],
                                         "count"),
                "sim.batch_structural_jobs": (
                    trace["batch"]["structural_jobs"], "count"),
                "sim.batch_generic_jobs": (trace["batch"]["generic_jobs"],
                                           "count"),
            })
        split = layers["sim.run_s"] / (nproc * sample["wall_s"])
        checks = [("sim.run_s / (nproc x wall_s)", split, ">= 0.9",
                   split >= 0.9)]
        return layers, extra, trace["overhead"], checks


# ------------------------------------------------------------ serve-small

class ServeWorkload:
    """serve-small: a fresh `cvmt serve --workers=3` per sample under a
    seeded closed-loop `run` load (see serve_load.py)."""

    name = "serve-small"

    def __init__(self, runner, outcomes, seed):
        self.runner = runner
        self.outcomes = outcomes
        self.seed = seed
        self.samples = []
        self.setups = []
        self.pool = None
        self.ref_trace = None

    def prepare(self, reps=1):
        """Draws the request pool from the seed and computes each
        request's reference response in process, once."""
        names = json.loads(self.runner.probe(["names"]))
        bodies, self.seq_a, self.seq_b = serve_load.make_pool(
            self.seed, names["schemes"], names["benchmarks"])
        pool_path = self.runner.workdir / "pool.jsonl"
        serve_load.write_pool_file(pool_path, bodies)
        ref_path = self.runner.workdir / "serve_ref.json"
        self.runner.probe(["serve-ref", "--pool=" + str(pool_path),
                           "--reps=%d" % reps, "--out=" + str(ref_path)])
        self.ref_trace = json.loads(ref_path.read_text())
        self.pool = serve_load.Pool(bodies, self.ref_trace["references"])

    def execute(self, trace=False):
        deadline = min(self.runner.deadline, time.monotonic() + 60)
        return serve_load.run_sample(
            self.runner.tools, self.runner.workdir, self.runner.env,
            self.pool, self.seq_a, self.seq_b, self.outcomes, deadline,
            trace=trace)

    def warm_up(self):
        self.execute()

    def setup_once(self):
        pass  # every sample starts a daemon; its set-up is measured there

    def sample(self):
        s = self.execute()
        if s is not None:
            self.samples.append(s)
            self.setups.append(s["setup_s"])

    def latencies(self):
        return [x for s in self.samples for x in s["latencies_ms"]]

    def metrics(self):
        """Each metric with its samples: (value, samples or None)."""
        def per_sample(key):
            values = [s[key] for s in self.samples]
            return measure.median(values), values
        lat = self.latencies()
        return {
            "wall_s": per_sample("wall_s"),
            "sim_mips": per_sample("sim_mips"),
            "cpu_s": per_sample("cpu_s"),
            "peak_rss_mb": per_sample("peak_rss_mb"),
            "runs_per_s": per_sample("runs_per_s"),
            "latency_p50_ms": (measure.median(lat), lat),
            "setup_s": (measure.median(self.setups), self.setups),
        }

    def traced(self):
        """In-process references and timings (traced probe pass), then one
        daemon sample with a client span per request and `stats`
        snapshots after the cold pass and after phase A."""
        self.prepare(reps=SERVE_REF_REPS)
        s = self.execute(trace=True)
        if s is None:
            raise BenchError("the traced serve-small sample failed")
        self.samples.append(s)
        layers = layer_metrics(self.ref_trace)
        cold, after_a, final = s["snapshots"]

        def busy_jobs(snap):
            return (sum(w["busy_us"] for w in snap["workers"]),
                    sum(w["jobs"] for w in snap["workers"]))
        busy_a = busy_jobs(after_a)[0] - busy_jobs(cold)[0]
        exec_us = busy_a / (busy_jobs(after_a)[1] - busy_jobs(cold)[1])
        sim_us = {}
        for span in self.ref_trace["spans"]:
            if span["name"] == "sim.run":
                sim_us.setdefault(span["request"], []).append(
                    (span["end_ns"] - span["start_ns"]) / 1e3)
        inproc_us = sum(measure.median(sim_us[i]) for i in self.seq_a) / \
            len(self.seq_a)
        client_a = s["spans"][:len(self.seq_a)]
        client_a_us = sum(sp["end_ns"] - sp["start_ns"]
                          for sp in client_a) / len(client_a) / 1e3
        refs = self.ref_trace["references"]
        extra = {
            "runs_per_s": (s["runs_per_s"], "1/s"),
            "latency_p50_ms": (measure.median(s["latencies_ms"]), "ms"),
            "serve.exec_us_mean": (exec_us, "us"),
            "serve.queue_wait_us": (client_a_us - exec_us, "us"),
            "serve.worker_busy_ratio": (
                busy_a / 1e6 / (serve_load.SERVE_WORKERS * s["wall_a"]),
                "ratio"),
            "serve.queue_high_water": (final["queue"]["high_water"], "count"),
            "serve.rejected_overload": (
                final["requests"]["rejected_overload"], "count"),
            "serve.cache_hit_rate": (final["cache"]["hit_rate"], "ratio"),
            "serve.overhead_us": (exec_us - inproc_us, "us"),
            "support.json_parse_us": (
                sum(r["parse_us"] for r in refs) / len(refs), "us"),
            "support.json_dump_us": (
                sum(r["dump_us"] for r in refs) / len(refs), "us"),
            "gen.cpu_ratio": (s["gen_cpu_ratio"], "ratio"),
        }
        checks = [("gen.cpu_ratio", s["gen_cpu_ratio"], "< 1.0",
                   s["gen_cpu_ratio"] < 1.0)]
        return layers, extra, self.ref_trace["overhead"], checks


# -------------------------------------------------------------- reporting

def fmt(value):
    return str(value) if isinstance(value, int) else "%.6g" % value


def report_timed(wl):
    """Every end-to-end metric by name, unit and sample count; timings
    also with their tail percentile and quartile spread."""
    print("workload %s: %d samples, %d set-up runs" %
          (wl.name, len(wl.samples), len(wl.setups)))
    if not wl.samples:
        print("  no valid sample")
        return
    for name, (value, values) in wl.metrics().items():
        line = "  %-16s %12s %-4s" % (name, fmt(value), UNITS[name])
        if values is None:
            line += "  from the median wall_s (n=%d)" % len(wl.samples)
        else:
            tail = measure.tail_percentile(values)
            line += "  median of n=%d; %s; quartile spread %.3f" % (
                len(values),
                "p%g %s" % (tail[0], fmt(tail[1])) if tail else
                "no percentile has 10 samples beyond it",
                measure.quartile_spread(values))
        print(line)


def report_outcomes(outcomes):
    print("  %-16s %12s %-4s  %d failed of %d operations" %
          ("failed_ratio", fmt(outcomes.failed_ratio), "", outcomes.failed,
           outcomes.attempted))
    for reason in outcomes.reasons:
        print("  FAILED: %s" % reason)


def print_provenance(info):
    print("provenance: %s; commit %s%s; nproc %d; kernel %s" % (
        info["cvmt"], info["commit"], " (dirty tree)" if info["dirty"] else "",
        info["nproc"], info["kernel"]))


def final_line(outcomes, metrics):
    return json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": max(1, outcomes.attempted),
        "failed": outcomes.failed,
        "metrics": metrics,
    })


# ------------------------------------------------------------------ modes

def make_workload(name, runner, outcomes, seed, reference):
    if name == "serve-small":
        return ServeWorkload(runner, outcomes, seed)
    return CliWorkload(name, runner, outcomes, reference)


def timed_run(names, runner, seed, seconds, outcomes):
    """Prepare, one discarded warm-up each, SETUP_REPS set-up runs each,
    then sample rounds until `seconds` per workload have passed. With
    several workloads, every round visits each of them in turn."""
    reference = load_reference()
    wls = [make_workload(n, runner, outcomes, seed, reference)
           for n in names]
    for wl in wls:
        wl.prepare()
    for wl in wls:
        wl.warm_up()
    for _ in range(SETUP_REPS):
        for wl in wls:
            wl.setup_once()
    start = time.monotonic()
    while time.monotonic() - start < seconds * len(wls) and \
            runner.remaining() > 0:
        for wl in wls:
            wl.sample()
    metrics = {}
    for wl in wls:
        report_timed(wl)
        if not wl.samples:
            continue
        for key, (value, _) in wl.metrics().items():
            name = key if len(wls) == 1 else wl.name + "." + key
            metrics[name] = {"value": value, "unit": UNITS[key]}
    return metrics


def traced_run(name, runner, seed, outcomes):
    wl = make_workload(name, runner, outcomes, seed, load_reference())
    layers, extra, overhead, checks = wl.traced()
    print("workload %s, traced run (per-layer metrics)" % name)
    for key, unit in PER_LAYER:
        print("  %-28s %14s %s" % (key, fmt(layers[key]), unit))
    for key, (value, unit) in extra.items():
        print("  %-28s %14s %s" % (key, fmt(value), unit))
    diff = overhead["traced_s"] - overhead["untraced_s"]
    print("  tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s "
          "(%+.2f%%)" % (overhead["traced_s"], overhead["untraced_s"], diff,
                         100.0 * diff / overhead["untraced_s"]))
    for label, value, rule, ok in checks:
        print("  layer split: %s = %.3f (want %s): %s" %
              (label, value, rule, "ok" if ok else "NOT MET"))
    return {key: {"value": layers[key], "unit": unit}
            for key, unit in PER_LAYER}


def update_reference(runner):
    """Re-records the CLI workloads' output digests and exact simulated
    totals. Only for a deliberate model change, which must say so."""
    reference = {}
    for name in ("fig10-paper", "sweep-fast"):
        entry = {}
        wl = CliWorkload(name, runner, measure.Outcomes(),
                         {name: {"main": {}, "setup": {}}})
        for kind, setup in (("main", False), ("setup", True)):
            store = runner.workdir / "store"
            shutil.rmtree(store, ignore_errors=True)
            outs = []
            for i, args in enumerate(wl.commands(setup, store)):
                out = runner.workdir / ("out%d.json" % i)
                runner.cvmt(args, out)
                outs.append(out.read_bytes())
            if len(set(outs)) != 1:
                raise BenchError("%s: merge output differs from the run" %
                                 name)
            entry[kind] = {"sha256": measure.digest(outs[0]),
                           "bytes": len(outs[0])}
        pdir = runner.workdir / "probe"
        trace_path = runner.workdir / "trace.json"
        runner.probe(["cli", "--workload=" + name, "--dir=" + str(pdir),
                      "--out=" + str(trace_path)])
        trace = json.loads(trace_path.read_text())
        if measure.digest((pdir / "exp_output.json").read_bytes()) != \
                entry["main"]["sha256"]:
            raise BenchError("%s: in-process output differs from the CLI" %
                             name)
        entry["sim"] = trace["sim"]
        reference[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                         + "\n")
    print("wrote %s" % REFERENCE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.trace and args.workload == "all":
        parser.error("--trace 1 needs one --workload")

    try:
        guard_environment()
        tools, info = provenance()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print_provenance(info)

    workdir = build_dir() / "work" / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(tools, workdir, time.monotonic() + RUN_LIMIT_S)
    outcomes = measure.Outcomes()
    try:
        if args.update_reference:
            update_reference(runner)
            return 0
        if args.trace:
            metrics = traced_run(args.workload, runner, args.seed, outcomes)
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            metrics = timed_run(names, runner, args.seed, args.seconds,
                                outcomes)
        report_outcomes(outcomes)
    except (BenchError, CommandError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(final_line(outcomes, metrics))
    return 0 if outcomes.failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())

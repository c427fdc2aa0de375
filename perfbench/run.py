"""The repository's benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_headline --seed 1 \\
        --seconds 20 --trace 0

Workloads (see README.md for why each exists): ``paper_headline``,
``serve_paper``, ``time_contended`` and ``sweep_grid``. Each job runs
the program in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``; the program receives only the inputs generated from
``--seed``. Jobs repeat until ``--seconds`` have passed (at least
three), and the reported figures are medians over them. Outputs are
checked, and failed operations are counted against attempted ones.

With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run, which alternates traced and untraced jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import openloop  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

#: Every job of a run must end this long after the run starts; a job
#: still running then is killed and counted failed.
RUN_BUDGET_S = 165.0
MIN_JOBS = 3
#: Stops a run whose jobs fail at once from spinning until the deadline.
MAX_JOBS = 50

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "chunks_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "latency_p90_ms": "ms",
}

PER_LAYER = {
    "import.repro_cli_s": "s",
    "sweeps.spawn_import_s": "s",
    "kademlia.overlay_build_s": "s",
    "kademlia.peers_mean": "count",
    "fast.table_build_s": "s",
    "fast.table_encode_s": "s",
    "fast.table_mib": "MiB",
    "fast.run_s": "s",
    "fast.chunks": "count",
    "fast.hops": "count",
    "fast.chunks_per_s": "1/s",
    "workloads.parse_s": "s",
    "workloads.parse_lines": "count",
    "workloads.parse_mib_per_s": "MiB/s",
    "fast.flatten_s": "s",
    "fast.feed_s": "s",
    "fast.feed_calls": "count",
    "streaming.absorb_s": "s",
    "streaming.snapshot_s": "s",
    "serve.emit_s": "s",
    "serve.backlog_max_files": "count",
    "serve.gen_lag_ms_max": "ms",
    "timed.run_s": "s",
    "timed.fast_equiv_run_s": "s",
    "timed.record_wheel_s": "s",
    "perf.table_publish_s": "s",
    "perf.table_attach_s": "s",
    "perf.table_cache_builds": "count",
    "perf.table_cache_hits": "count",
    "sweeps.run_sweep_s": "s",
    "sweeps.run_sweep_serial_s": "s",
    "sweeps.point_run_s": "s",
    "sweeps.store_bytes": "count",
    "sweeps.retries": "count",
    "sweeps.quarantined": "count",
    "fairness.gini_s": "s",
    "experiments.render_s": "s",
    "trace.overhead_s": "s",
}
#: Layers whose self time (span time minus child spans) is reported.
SELF_TIME_LAYERS = ("kademlia", "fast", "workloads", "io", "streaming",
                    "serve", "timed", "wheel", "perf", "sweeps", "fairness",
                    "experiments")
for _layer in SELF_TIME_LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"


class Unavailable(Exception):
    """The checkout holds no program to benchmark."""


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    scratch: Path
    env: dict
    expected: dict | None
    stderr_path: Path
    deadline: float

    def stderr(self):
        return open(self.stderr_path, "ab")

    def time_left(self) -> float:
        return max(self.deadline - time.monotonic(), 1.0)


@dataclass
class Outcome:
    """One invocation's measurements, checks and failure counts."""

    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


# --------------------------------------------------------------------
# Batch jobs (paper_headline, time_contended, sweep_grid)

@dataclass
class Job:
    code: int
    peak_rss_mib: float
    events: dict

    @property
    def ok(self) -> bool:
        return (self.code == 0 and "ready" in self.events
                and "result" in self.events)

    def at(self, event: str) -> float:
        return self.events[event]["t"] - self.events["start"]["t"]


def run_child(ctx: Context, kind: str, config: dict,
              trace_path: Path | None = None) -> Job:
    """One job in a fresh interpreter; reads its ``@bench`` markers."""
    command = [sys.executable, str(BENCH_DIR / "child.py"), kind,
               json.dumps(config)]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    with ctx.stderr() as stderr:
        started = time.monotonic()
        # Its own session, so a timeout also kills the sweep's workers.
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=stderr, cwd=ctx.root, env=ctx.env,
                                start_new_session=True)
        out = bytearray()
        fd = proc.stdout.fileno()
        deadline = started + ctx.time_left()
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.killpg(proc.pid, signal.SIGKILL)
                break
            readable, _, _ = select.select([fd], [], [], left)
            if readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                out += chunk
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    events = {"start": {"t": started}}
    for line in out.decode("utf-8", "replace").splitlines():
        if line.startswith("@bench "):
            message = json.loads(line[len("@bench "):])
            events[message["event"]] = message
    return Job(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0,
               events)


def run_jobs(ctx: Context, make_job, minimum: int = MIN_JOBS) -> list:
    """Repeat *make_job* until ``ctx.seconds`` pass (at least *minimum*)."""
    jobs = []
    started = time.monotonic()
    while True:
        jobs.append(make_job(len(jobs)))
        elapsed = time.monotonic() - started
        typical = elapsed / len(jobs)
        if (len(jobs) >= minimum and elapsed >= ctx.seconds
                or len(jobs) >= MAX_JOBS
                or time.monotonic() + typical > ctx.deadline):
            return jobs


def batch_metrics(jobs: list[Job]) -> dict:
    good = [job for job in jobs if job.ok]
    if not good:
        return {}
    walls = [job.at("result") for job in good]
    rates = [job.events["result"]["chunks"]
             / (job.at("result") - job.at("ready")) for job in good]
    return {
        "setup_s": statistics.median(job.at("ready") for job in good),
        "wall_s": statistics.median(walls),
        "chunks_per_s": statistics.median(rates),
        "peak_rss_mib": statistics.median(job.peak_rss_mib for job in good),
        # Each job is one request, due when it is launched. With fewer
        # than ten jobs the nearest-rank p90 is the slowest job.
        "latency_p90_ms": openloop.percentile(walls, 90) * 1000.0,
    }


def warm_runs(jobs: list[Job]) -> list[float]:
    """Times of the time backend's warm repeats, each job's first left out."""
    return sorted(run for job in jobs if job.ok and "repeats" in job.events
                  for run in job.events["repeats"]["run_s"][1:])


def timed_metrics(jobs: list[Job]) -> dict:
    """Figures of the time backend's warm repeats (see README.md)."""
    good = [job for job in jobs if job.ok and "repeats" in job.events]
    warm = warm_runs(good)
    if not warm:
        return {}
    # The host only ever adds time to a run, in bursts that change from
    # minute to minute; low and high percentiles of dozens of short runs
    # hold still where their median does not.
    fast = openloop.percentile(warm, 10)
    return {
        "setup_s": statistics.median(job.at("ready") for job in good),
        "wall_s": fast,
        "chunks_per_s": good[0].events["result"]["chunks"] / fast,
        "peak_rss_mib": statistics.median(job.peak_rss_mib for job in good),
        "latency_p90_ms": openloop.percentile(warm, 90) * 1000.0,
    }


def measure_batch(ctx: Context, kind: str, config, trace: bool,
                  out: Outcome, metrics=batch_metrics) -> list[Job]:
    """Run *kind* jobs untraced, or traced/untraced pairs; fill metrics.

    *config* maps the job's index to its configuration, and *metrics*
    turns the untraced jobs into the end-to-end figures.
    """
    if not trace:
        jobs = run_jobs(ctx, lambda i: run_child(ctx, kind, config(i)))
        out.metrics = metrics(jobs)
        out.extra["jobs"] = len(jobs)
        return jobs
    pairs = []
    traces = []

    def pair(i):
        plain = run_child(ctx, kind, config(i))
        path = ctx.scratch / f"trace-{i}.json"
        traced = run_child(ctx, kind, config(f"t{i}"), trace_path=path)
        pairs.append((plain, traced))
        if path.exists():
            traces.append(layer_metrics(tracing.load(path)))
        return plain

    run_jobs(ctx, pair, minimum=1)
    out.metrics = median_metrics(traces)
    good = [(p, t) for p, t in pairs if p.ok and t.ok]
    if good:
        out.metrics["trace.overhead_s"] = (
            statistics.median(t.at("result") for _, t in good)
            - statistics.median(p.at("result") for p, _ in good))
    out.metrics.update(import_probes(ctx))
    return [job for both in pairs for job in both]


def expected_for(ctx: Context) -> dict | None:
    if ctx.expected is None:
        return None
    return ctx.expected["seeds"].get(str(ctx.seed))


def workload_paper_headline(ctx: Context, trace: bool) -> Outcome:
    out = Outcome()
    jobs = measure_batch(ctx, "headline", lambda i: {"seed": ctx.seed},
                         trace, out)
    recorded = expected_for(ctx)
    reference = None
    for job in jobs:
        out.attempted += 4
        if not out.check(job.ok, f"headline job exited {job.code}"):
            out.failed += 4
            continue
        cells = job.events["result"]["cells"]
        reference = reference or cells
        for name, cell in cells.items():
            ok = out.check(cell == reference[name],
                           f"headline cell {name} differs between jobs")
            if recorded is not None:
                ok &= out.check(cell == recorded["headline"][name],
                                f"headline cell {name} differs from the "
                                "recorded value")
                if name == "k=4,share=1.0":
                    ok &= out.check(
                        cell == recorded["serve_final"],
                        "headline k=4 / 100 % cell differs from serve's "
                        "recorded final line")
            out.failed += not ok
    if recorded is None:
        out.extra["recorded_values"] = "not recorded for this seed"
    return out


def workload_time_contended(ctx: Context, trace: bool) -> Outcome:
    out = Outcome()
    # Traced jobs run the simulation once, so traced and untraced pairs
    # do the same work for trace.overhead_s.
    repeat_s = 0.0 if trace else ctx.seconds * spec.TIMED_REPEAT_SHARE
    jobs = measure_batch(ctx, "timed",
                         lambda i: {"seed": ctx.seed, "repeat_s": repeat_s},
                         trace, out, metrics=timed_metrics)
    recorded = expected_for(ctx)
    reference = None
    for job in jobs:
        if not out.check(job.ok and "check" in job.events
                         and "repeats" in job.events,
                         f"time job exited {job.code}"):
            out.attempted += 1
            out.failed += 1
            continue
        runs = len(job.events["repeats"]["run_s"])
        out.attempted += runs
        result = {key: job.events["result"][key] for key in
                  ("chunks", "total_hops", "latency_p50_ms",
                   "latency_p99_ms")}
        reference = reference or result
        ok = out.check(job.events["check"]["fast_equal"],
                       "time backend hop counters differ from fast")
        ok &= out.check(job.events["repeats"]["same"],
                        "time backend output differs between repeats")
        ok &= out.check(result == reference,
                        "time backend output differs between jobs")
        if recorded is not None:
            ok &= out.check(result == recorded["timed"],
                            "time backend output differs from the "
                            "recorded value")
        out.failed += 0 if ok else runs
    warm = warm_runs(jobs)
    if warm and not trace:
        out.extra["warm_runs"] = len(warm)
        out.extra["warm_run_min_s"] = warm[0]
        out.extra["warm_run_median_s"] = statistics.median(warm)
        out.extra["warm_run_max_s"] = warm[-1]
    if reference is not None:
        out.extra["simulated_latency_p50_ms"] = reference["latency_p50_ms"]
        out.extra["simulated_latency_p99_ms"] = reference["latency_p99_ms"]
    if recorded is None:
        out.extra["recorded_values"] = "not recorded for this seed"
    return out


def workload_sweep_grid(ctx: Context, trace: bool) -> Outcome:
    out = Outcome()

    def config(i):
        # The first job also runs the --jobs 1 reference of the spec.
        return {"seed": ctx.seed, "jobs": spec.SWEEP_JOBS,
                "store": str(ctx.scratch / f"sweep-{i}.json"),
                "reference": i == 0}

    jobs = measure_batch(ctx, "sweep", config, trace, out)
    good = [job for job in jobs if job.ok]
    if good:
        out.extra["points_per_s"] = statistics.median(
            job.events["result"]["points"]
            / (job.at("result") - job.at("ready")) for job in good)
    reference_sha = jobs[0].events.get("reference", {}).get("store_sha256")
    out.check(reference_sha is not None, "the --jobs 1 reference sweep failed")
    points = spec.SWEEP_POINTS
    for job in jobs:
        out.attempted += points
        if not out.check(job.ok, f"sweep job exited {job.code}"):
            out.failed += points
            continue
        result = job.events["result"]
        if not (out.check(result["code"] == 0, "sweep exited non-zero")
                and out.check(result["store_sha256"] == reference_sha,
                              "sweep store differs from the --jobs 1 "
                              "store")
                and out.check(result["points"] == points,
                              "sweep store misses points")):
            out.failed += points
            continue
        out.failed += result["quarantined"]
    return out


# --------------------------------------------------------------------
# Open-loop serve

def serve_reference(ctx: Context, lines: list[bytes]) -> bytes | None:
    """The ``final`` line of ``serve --batch`` on the same input."""
    command = [sys.executable, *spec.serve_command(), "--batch"]
    with ctx.stderr() as stderr:
        try:
            done = subprocess.run(command, input=b"".join(lines),
                                  stdout=subprocess.PIPE, stderr=stderr,
                                  cwd=ctx.root, env=ctx.env,
                                  timeout=ctx.time_left())
        except subprocess.TimeoutExpired:
            return None
    if done.returncode != 0:
        return None
    finals = [line for line in done.stdout.splitlines()
              if b'"type": "final"' in line]
    return finals[-1] if finals else None


def serve_session(ctx: Context, lines: list[bytes],
                  trace_path: Path | None = None) -> openloop.Session:
    if trace_path is None:
        command = [sys.executable, *spec.serve_command()]
    else:
        command = [sys.executable, str(BENCH_DIR / "child.py"), "serve",
                   "{}", "--trace", str(trace_path)]
    with ctx.stderr() as stderr:
        return openloop.run_session(
            command, lines=lines, warmup=spec.SERVE_WARMUP,
            steps=spec.SERVE_STEPS, cwd=str(ctx.root), env=ctx.env,
            stderr=stderr, timeout=ctx.time_left())


def serve_checks(ctx: Context, sessions, reference: bytes | None,
                 out: Outcome) -> None:
    recorded = expected_for(ctx)
    out.check(reference is not None, "serve --batch reference failed")
    for session in sessions:
        n = len(session.covered)
        out.attempted += n
        ok = out.check(session.returncode == 0,
                       f"serve exited {session.returncode} {session.error}")
        ok &= out.check(session.final is not None, "serve wrote no final line")
        ok &= out.check(session.final == reference,
                        "serve final line differs from serve --batch")
        if recorded is not None and session.final is not None:
            ok &= out.check(
                hashlib.sha256(session.final).hexdigest()
                == recorded["serve_final_sha256"],
                "serve final line differs from the recorded one")
            final = json.loads(session.final)
            ok &= out.check(
                {key: final[key] for key in recorded["serve_final"]}
                == recorded["headline"]["k=4,share=1.0"],
                "serve final line differs from the recorded headline "
                "k=4 / 100 % cell")
        missing = session.uncovered()
        out.check(missing == 0, f"{missing} requests never reached a "
                                "snapshot")
        out.failed += n if not ok else missing
    if recorded is None:
        out.extra["recorded_values"] = "not recorded for this seed"


def serve_step_stats(sessions) -> dict:
    ranges = openloop.step_ranges(spec.SERVE_WARMUP, spec.SERVE_STEPS)
    stats = {}
    for label, rate, _ in spec.SERVE_STEPS:
        start, stop = ranges[label]
        values = []
        for session in sessions:
            values += session.latencies_ms(start, stop)
        stats[label] = {
            "rate": rate,
            "samples": len(values),
            "p50": openloop.percentile(values, 50) if values else None,
            "p90": openloop.percentile(values, 90) if values else None,
            "p99": openloop.percentile(values, 99) if values else None,
            "grows": openloop.backlog_grows(sessions, start, stop,
                                            spec.SERVE_MAX_BATCH),
        }
    return stats


def workload_serve_paper(ctx: Context, trace: bool) -> Outcome:
    out = Outcome()
    lines = spec.serve_lines(ctx.seed)
    reference = serve_reference(ctx, lines)
    if not trace:
        sessions = run_jobs(ctx, lambda i: serve_session(ctx, lines))
        good = [s for s in sessions if s.returncode == 0
                and s.final is not None]
        stats = serve_step_stats(good)
        if good:
            chunk_rates = [json.loads(s.final)["chunks"]
                           / (s.wall_s - s.setup_s) for s in good]
            out.metrics = {
                "setup_s": statistics.median(s.setup_s for s in good),
                "wall_s": statistics.median(s.wall_s for s in good),
                "chunks_per_s": statistics.median(chunk_rates),
                "peak_rss_mib": statistics.median(
                    s.peak_rss_mib for s in good),
                "latency_p90_ms": stats["high"]["p90"],
            }
        passing = [step["rate"] for label, step in stats.items()
                   if label not in ("low", "mid") and step["p99"] is not None
                   and step["p99"] <= spec.SERVE_P99_LIMIT_MS
                   and not step["grows"]]
        out.extra["steps"] = stats
        out.extra["max_rate_rps"] = max(passing) if passing else 0.0
        out.extra["sessions"] = len(sessions)
        out.extra["gen_lag_ms_max"] = max(s.gen_lag_ms_max for s in sessions)
        all_sessions = sessions
    else:
        pairs = []
        traces = []

        def pair(i):
            plain = serve_session(ctx, lines)
            path = ctx.scratch / f"trace-{i}.json"
            traced = serve_session(ctx, lines, trace_path=path)
            pairs.append((plain, traced))
            if path.exists():
                metrics = layer_metrics(tracing.load(path))
                metrics["serve.backlog_max_files"] = traced.backlog_max_files
                metrics["serve.gen_lag_ms_max"] = traced.gen_lag_ms_max
                traces.append(metrics)
            return plain

        run_jobs(ctx, pair, minimum=1)
        out.metrics = median_metrics(traces)
        out.metrics["trace.overhead_s"] = (
            statistics.median(t.wall_s for _, t in pairs)
            - statistics.median(p.wall_s for p, _ in pairs))
        out.metrics.update(import_probes(ctx))
        all_sessions = [s for pair in pairs for s in pair]
    serve_checks(ctx, all_sessions, reference, out)
    return out


# --------------------------------------------------------------------
# Per-layer figures of traced runs

def median_metrics(samples: list[dict]) -> dict:
    if not samples:
        return {}
    return {name: statistics.median(sample.get(name, 0.0)
                                    for sample in samples)
            for name in samples[0]}


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures from one traced job's spans and counters."""
    spans, counts = trace["spans"], trace["counts"]
    total = tracing.totals(spans)
    own = tracing.self_times(spans)

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return counts.get(name, 0.0)

    parse_s = t("workloads.parse") - t("io.stdin_read")
    route_s = t("fast.run") + t("fast.feed")
    metrics = {
        "kademlia.overlay_build_s": t("kademlia.overlay_build"),
        "kademlia.peers_mean": (c("kademlia.peers") / c("kademlia.nodes")
                                if c("kademlia.nodes") else 0.0),
        "fast.table_build_s": t("fast.table_build"),
        "fast.table_encode_s": t("fast.table_encode"),
        "fast.table_mib": c("fast.table_bytes") / 2**20,
        "fast.run_s": t("fast.run"),
        "fast.chunks": c("fast.chunks"),
        "fast.hops": c("fast.hops"),
        "fast.chunks_per_s": c("fast.chunks") / route_s if route_s else 0.0,
        "workloads.parse_s": parse_s,
        "workloads.parse_lines": c("workloads.parse_lines"),
        "workloads.parse_mib_per_s": (c("workloads.parse_bytes") / 2**20
                                      / parse_s if parse_s > 0 else 0.0),
        "fast.flatten_s": t("fast.flatten"),
        "fast.feed_s": t("fast.feed"),
        "fast.feed_calls": c("fast.feed_calls"),
        "streaming.absorb_s": t("streaming.absorb"),
        "streaming.snapshot_s": t("streaming.snapshot"),
        "serve.emit_s": t("serve.emit"),
        "serve.backlog_max_files": 0.0,
        "serve.gen_lag_ms_max": 0.0,
        "timed.run_s": t("timed.run"),
        "timed.fast_equiv_run_s": t("timed.fast_equiv_run"),
        "timed.record_wheel_s": (t("timed.run") - t("timed.fast_equiv_run")
                                 if t("timed.run") else 0.0),
        "perf.table_publish_s": t("perf.table_publish"),
        "perf.table_attach_s": t("perf.table_attach"),
        "perf.table_cache_builds": c("perf.table_cache_builds"),
        "perf.table_cache_hits": c("perf.table_cache_hits"),
        "sweeps.run_sweep_s": t("sweeps.run_sweep"),
        "sweeps.run_sweep_serial_s": t("sweeps.run_sweep_serial"),
        "sweeps.point_run_s": c("sweeps.point_run_s"),
        "sweeps.store_bytes": c("sweeps.store_bytes"),
        "sweeps.retries": c("sweeps.retries"),
        "sweeps.quarantined": c("sweeps.quarantined"),
        "fairness.gini_s": t("fairness.gini"),
        "experiments.render_s": t("experiments.render"),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    return metrics


def import_probes(ctx: Context, repeats: int = 3) -> dict:
    """Import time of a fresh interpreter for the CLI and a sweep worker."""
    probes = {"import.repro_cli_s": "repro.cli",
              "sweeps.spawn_import_s": "repro.sweeps.worker"}
    out = {}
    for name, module in probes.items():
        code = ("import time; t = time.monotonic(); "
                f"import {module}; print(time.monotonic() - t)")
        times = []
        for _ in range(repeats):
            done = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True,
                                  cwd=ctx.root, env=ctx.env,
                                  timeout=ctx.time_left(), check=True)
            times.append(float(done.stdout))
        out[name] = statistics.median(times)
    return out


# --------------------------------------------------------------------

WORKLOADS = {
    "paper_headline": workload_paper_headline,
    "serve_paper": workload_serve_paper,
    "time_contended": workload_time_contended,
    "sweep_grid": workload_sweep_grid,
}


def prepare(root: Path, seed: int, seconds: float) -> Context:
    deadline = time.monotonic() + RUN_BUDGET_S
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise Unavailable(f"no program at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise Unavailable(f"repro imported from {repro.__file__}, not {src}")
    scratch = root / ".bench_tmp" / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH_DIR)])
    env["TMPDIR"] = str(scratch)
    expected_path = BENCH_DIR / "expected.json"
    expected = (json.loads(expected_path.read_text())
                if expected_path.is_file() else None)
    return Context(root=root, seed=seed, seconds=seconds, scratch=scratch,
                   env=env, expected=expected,
                   stderr_path=scratch / "stderr.log", deadline=deadline)


def report(workload: str, trace: bool, out: Outcome) -> dict:
    """Print the human-readable summary; return the result object."""
    names = PER_LAYER if trace else END_TO_END
    print(f"workload {workload}, trace {int(trace)}")
    for name, value in sorted(out.extra.items()):
        if name != "steps":
            print(f"  {name}: {value}")
    for label, step in out.extra.get("steps", {}).items():
        print(f"  latency_p50_ms.{label} = {step['p50']} ms, "
              f"latency_p90_ms.{label} = {step['p90']} ms, "
              f"latency_p99_ms.{label} = {step['p99']} ms "
              f"({step['samples']} samples at {step['rate']:g} req/s"
              f"{', backlog grows' if step['grows'] else ''})")
    fraction = out.failed / out.attempted if out.attempted else 1.0
    print(f"  failed_frac = {fraction} ({out.failed} of {out.attempted})")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    metrics = {}
    for name, unit in names.items():
        value = out.metrics.get(name)
        if value is None:
            out.problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"  {name} = {value} {unit}")
    return {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        ctx = prepare(root, args.seed, args.seconds)
    except Unavailable as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    try:
        out = WORKLOADS[args.workload](ctx, bool(args.trace))
        result = report(args.workload, bool(args.trace), out)
        if out.problems and ctx.stderr_path.exists():
            sys.stderr.write(ctx.stderr_path.read_text(errors="replace")[-4000:])
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-interpreter harness for one benchmark job.

Usage: ``python3 perfbench/child.py KIND CONFIG_JSON [--trace PATH]``
with the checkout's ``src`` on ``PYTHONPATH``. KIND is ``headline``,
``timed``, ``sweep`` or ``serve``.

The batch kinds print ``@bench <json>`` marker lines on stdout: one
``ready`` when overlays and next-hop tables are built, one ``result``
when the job's output exists. ``timed`` then prints ``repeats``: the
time of each run of its simulation, the first and the warm repeats
after it. ``serve`` runs the ``repro-swarm serve``
daemon itself, so stdout stays the daemon's NDJSON; it is only used
for traced serve sessions. With ``--trace``, public functions of each
layer are wrapped in spans (see tracing.py) and the spans are written
to PATH when the job ends.

Nothing runs at import time: spawned sweep workers import this file
as their main module.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import spec
from tracing import Tracer


def emit(event: str, **payload) -> None:
    line = json.dumps({"event": event, "t": time.monotonic(), **payload})
    sys.stdout.write(f"@bench {line}\n")
    sys.stdout.flush()


def build_tables(tracer: Tracer | None, configs) -> None:
    """Build overlay, next-hop table and coded matrix per topology.

    These are the calls every simulation makes on first use; making
    them up front marks where set-up ends.
    """
    from repro.backends.fast import cached_overlay
    from repro.perf.table_cache import global_table_cache

    for config in configs:
        if tracer is None:
            overlay = cached_overlay(config)
            global_table_cache().get(overlay).flat_coded
            continue
        with tracer.span("kademlia.overlay_build"):
            overlay = cached_overlay(config)
        with tracer.span("fast.table_build"):
            table = global_table_cache().get(overlay)
        with tracer.span("fast.table_encode"):
            coded = table.flat_coded
        tracer.add("kademlia.peers", sum(overlay.degree_histogram().values()))
        tracer.add("kademlia.nodes", len(overlay))
        tracer.add("fast.table_bytes", coded.nbytes + table.storer.nbytes)


def trace_fast(tracer: Tracer) -> None:
    """Spans around the route kernel and the Gini evaluations."""
    from repro.backends.fast import FastSimulation
    from repro.backends.result import SimulationResult

    tracer.wrap(FastSimulation, "run", "fast.run",
                lambda r, a, k: {"fast.chunks": r.chunks,
                                 "fast.hops": r.total_hops})
    for name in ("f1_gini", "f2_gini"):
        tracer.wrap(SimulationResult, name, "fairness.gini")


def cache_counts(tracer: Tracer) -> None:
    from repro.perf.table_cache import global_table_cache

    stats = global_table_cache().stats
    tracer.add("perf.table_cache_builds", stats.builds)
    tracer.add("perf.table_cache_hits", stats.hits)


def topology(bucket_size: int):
    from repro.backends.config import FastSimulationConfig

    return FastSimulationConfig(
        n_nodes=spec.N_NODES, bits=spec.BITS, bucket_size=bucket_size,
        overlay_seed=spec.OVERLAY_SEED,
    ).overlay_config()


def run_headline(config: dict, tracer: Tracer | None) -> None:
    from repro.experiments.paper import (
        GRID_BUCKET_SIZES,
        GRID_ORIGINATOR_SHARES,
        run_headline,
    )

    build_tables(tracer, [topology(k) for k in GRID_BUCKET_SIZES])
    emit("ready")
    kwargs = dict(n_files=spec.HEADLINE_FILES, n_nodes=spec.N_NODES,
                  workload_seed=config["seed"])
    if tracer is None:
        report = run_headline(**kwargs)
        rendered = report.render()
    else:
        trace_fast(tracer)
        with tracer.span("experiments.run_headline"):
            report = run_headline(**kwargs)
        with tracer.span("experiments.render"):
            rendered = report.render()
        tracer.restore()
        cache_counts(tracer)
    grid = report.data["results"]
    cells = {
        f"k={k},share={s}": {
            "chunks": int(grid[(k, s)].chunks),
            "total_hops": int(grid[(k, s)].total_hops),
            "f1_gini": grid[(k, s)].f1_gini(),
            "f2_gini": grid[(k, s)].f2_gini(),
        }
        for k in GRID_BUCKET_SIZES for s in GRID_ORIGINATOR_SHARES
    }
    emit("result", cells=cells,
         chunks=sum(cell["chunks"] for cell in cells.values()),
         report_sha256=hashlib.sha256(rendered.encode()).hexdigest())


def run_timed(config: dict, tracer: Tracer | None) -> None:
    from repro.backends.fast import FastSimulation
    from repro.backends.timed import FluidWheel, TimedSimulation

    def summary(result) -> dict:
        stats = result.latency_stats()
        return {"chunks": int(result.chunks),
                "total_hops": int(result.total_hops),
                "latency_p50_ms": stats.p50_ms,
                "latency_p99_ms": stats.p99_ms}

    sim_config = spec.timed_config(config["seed"])
    build_tables(tracer, [sim_config.overlay_config()])
    emit("ready")
    started = time.monotonic()
    if tracer is None:
        result = TimedSimulation(sim_config).run()
    else:
        trace_fast(tracer)
        tracer.wrap(FluidWheel, "run", "wheel.run")
        with tracer.span("timed.run"):
            result = TimedSimulation(sim_config).run()
        tracer.restore()
        trace_fast(tracer)
    run_s = [time.monotonic() - started]
    first = summary(result)
    emit("result", **first)
    # Untraced, the warm process repeats the same simulation, each time
    # as a user would call it; every repeat must give the same output.
    same = True
    repeat_until = started + config.get("repeat_s", 0.0)
    while tracer is None and (time.monotonic() < repeat_until
                              or len(run_s) < spec.TIMED_MIN_REPEATS):
        started = time.monotonic()
        again = TimedSimulation(sim_config).run()
        run_s.append(time.monotonic() - started)
        same &= summary(again) == first
    emit("repeats", run_s=run_s, same=same)
    # The hop counters must match the timeless kernel on the same
    # config; the time backend only adds the transfer timeline.
    if tracer is None:
        fast = FastSimulation(sim_config).run()
    else:
        with tracer.span("timed.fast_equiv_run"):
            fast = FastSimulation(sim_config).run()
        tracer.restore()
        cache_counts(tracer)
    import numpy as np

    same = (fast.chunks == result.chunks
            and fast.total_hops == result.total_hops
            and np.array_equal(fast.forwarded, result.forwarded)
            and np.array_equal(fast.first_hop, result.first_hop)
            and dict(fast.hop_histogram) == dict(result.hop_histogram))
    emit("check", fast_equal=bool(same))


def store_summary(path: str) -> dict:
    with open(path, "rb") as handle:
        raw = handle.read()
    data = json.loads(raw)
    points = data.get("points", {})
    return {
        "store_sha256": hashlib.sha256(raw).hexdigest(),
        "store_bytes": len(raw),
        "points": len(points),
        "chunks": sum(int(p["metrics"]["chunks"]) for p in points.values()),
        "quarantined": len(data.get("failures", {})),
    }


def run_sweep(config: dict, tracer: Tracer | None) -> None:
    from repro.backends.config import FastSimulationConfig
    from repro.cli import build_parser, main
    from repro.sweeps import SweepSpec, parse_grid_arguments, table_topologies
    from repro.sweeps.engine import run_sweep as engine_run_sweep

    argv = spec.sweep_argv(config["seed"], config["store"], config["jobs"])
    args = build_parser().parse_args(argv)
    sweep_spec = SweepSpec(
        base=FastSimulationConfig(n_nodes=args.nodes, n_files=args.files),
        grid=parse_grid_arguments(args.grid), backends=("fast",),
        seeds=args.seeds, seed_entropy=args.entropy,
    )
    topologies = list(table_topologies(sweep_spec.base, sweep_spec.points()))
    build_tables(tracer, topologies)
    emit("ready")
    if tracer is not None:
        trace_sweep(tracer, topologies)
    code = main(argv)
    emit("result", code=code, **store_summary(config["store"]))
    if tracer is not None:
        tracer.restore()
        tracer.add("sweeps.store_bytes", os.path.getsize(config["store"]))
    if config["reference"] or tracer is not None:
        # The serial engine in this process, on the same spec: its store
        # is the --jobs 1 reference. Traced, its spans split the engine
        # from the points.
        serial_store = config["store"] + ".serial"
        if tracer is None:
            engine_run_sweep(sweep_spec, jobs=1, store_path=serial_store,
                             resume=False)
        else:
            tracer.wrap(sys.modules["repro.sweeps.executors"],
                        "execute_point", "sweeps.point")
            trace_fast(tracer)
            with tracer.span("sweeps.run_sweep_serial"):
                engine_run_sweep(sweep_spec, jobs=1,
                                 store_path=serial_store, resume=False)
            cache_counts(tracer)
        emit("reference", **store_summary(serial_store))


def trace_sweep(tracer: Tracer, topologies) -> None:
    import repro.sweeps
    from repro.backends.fast import cached_overlay
    from repro.perf.shared import SharedTableRegistry, attach_table
    from repro.perf.table_cache import global_table_cache
    from repro.sweeps import engine, resilience

    # Attach is what each worker does with a published table; probe it
    # here, where spans can see it.
    registry = SharedTableRegistry()
    overlay = cached_overlay(topologies[0])
    handle = registry.acquire(global_table_cache().get(overlay))
    try:
        with tracer.span("perf.table_attach"):
            attach_table(handle, overlay)
    finally:
        registry.release(handle.fingerprint)

    tracer.wrap(SharedTableRegistry, "acquire", "perf.table_publish")
    tracer.wrap(repro.sweeps, "run_sweep", "sweeps.run_sweep")
    tracer.wrap(engine, "outcome_record", "sweeps.record",
                lambda r, a, k: {"sweeps.point_run_s": a[0].elapsed})
    tracer.wrap(resilience.FailureTracker, "record_reported",
                "sweeps.failure",
                lambda r, a, k: {"sweeps.retries": r is None,
                                 "sweeps.quarantined": r is not None})


def run_serve(config: dict, tracer: Tracer | None) -> int:
    """The serve daemon with the streaming layers wrapped in spans."""
    import repro.serve
    from repro.analysis.streaming import StreamingAggregator
    from repro.backends.fast import FastSimulation, StreamSession
    from repro.cli import main
    from repro.workloads.streams import RequestStream

    build_tables(tracer, [spec.serve_config(0).overlay_config()])

    def count_lines(batch, args, kwargs):
        return {"workloads.parse_lines": len(batch)}

    tracer.wrap_generator(RequestStream, "batches", "workloads.parse",
                          count_lines)
    skip_header = repro.serve._skip_trace_header

    def timed_lines(lines, serve_config):
        # Reading stdin blocks until the load generator sends the next
        # line; that wait is its own span so parse time excludes it.
        iterator = iter(skip_header(lines, serve_config))
        while True:
            with tracer.span("io.stdin_read"):
                line = next(iterator, None)
            if line is None:
                return
            tracer.add("workloads.parse_bytes", len(line))
            yield line

    tracer.patch(repro.serve, "_skip_trace_header", timed_lines)
    tracer.wrap(FastSimulation, "flatten_events", "fast.flatten")
    tracer.wrap(StreamSession, "feed", "fast.feed",
                lambda r, a, k: {"fast.feed_calls": 1,
                                 "fast.chunks": len(a[2]),
                                 "fast.hops": k["into"].total_hops})
    tracer.wrap(StreamingAggregator, "absorb", "streaming.absorb")
    tracer.wrap(StreamingAggregator, "snapshot", "streaming.snapshot")
    for name in ("f1_gini", "f2_gini"):
        tracer.wrap(StreamingAggregator, name, "fairness.gini")
    tracer.wrap(repro.serve, "_emit", "serve.emit")
    code = main(spec.serve_command()[2:])
    cache_counts(tracer)
    return code


KINDS = {"headline": run_headline, "timed": run_timed, "sweep": run_sweep,
         "serve": run_serve}


def main(argv: list[str]) -> int:
    kind, config = argv[0], json.loads(argv[1])
    trace_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    tracer = Tracer() if trace_path else None
    try:
        return KINDS[kind](config, tracer) or 0
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

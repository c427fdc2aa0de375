"""The benchmark's workload definitions and seeded input builders.

Every workload runs over one overlay: 200 nodes in the paper's 16-bit
address space, overlay seed 42. The paper's 1000-node grid does not
fit the benchmark's time budget: its k=20 next-hop table alone takes
about 30 s to build on a 2-core machine, and each run sets the
program up several times. At 200 nodes the headline keeps the paper's
shape: table build is about four times the routing work.
"""

from __future__ import annotations

import json

N_NODES = 200
BITS = 16
OVERLAY_SEED = 42

#: Files per headline cell. Equal to the serve request count, so the
#: k=4 / 100 % cell and serve's ``final`` line describe the same work.
HEADLINE_FILES = 6144

SERVE_BUCKET_SIZE = 4
SERVE_MAX_BATCH = 256
#: Sent at spawn; set-up ends when the snapshot covering them arrives.
SERVE_WARMUP = 256
#: Open-loop rate steps: (label, requests per second, requests). Each
#: step is a whole number of micro-batches, so no request waits for
#: the next step's lines to fill its batch. The steps above ``high``
#: form the ladder that ``max_rate_rps`` is read from.
SERVE_STEPS = (
    ("low", 250.0, 512),
    ("mid", 1000.0, 1024),
    ("high", 4000.0, 1280),
    ("ladder-6000", 6000.0, 768),
    ("ladder-9000", 9000.0, 768),
    ("ladder-13000", 13000.0, 768),
    ("ladder-20000", 20000.0, 768),
)
#: The p99 limit a ladder step must meet to count toward max_rate_rps.
SERVE_P99_LIMIT_MS = 500.0

#: The time backend's contended profile (repro.perf.bench's
#: LATENCY_PROFILE) with the arrival rate scaled from 200 files/s on
#: 1000 nodes to the same per-node load on 200 nodes. 300 files span
#: 7.5 simulated seconds, long enough for the contended steady state
#: (simulated p50 and p99 stay near those of 2000 files), and short
#: enough that a run repeats the simulation dozens of times.
TIMED_FILES = 300
TIMED_ARRIVAL_RATE = 40.0
#: A time job repeats the simulation in its warm process for this
#: share of the run's seconds, and at least TIMED_MIN_REPEATS times.
TIMED_REPEAT_SHARE = 0.25
TIMED_MIN_REPEATS = 3

SWEEP_SEEDS = 4
SWEEP_ARGS = ("--grid", "bucket_size=4,8", "--seeds", str(SWEEP_SEEDS),
              "--files", "500", "--nodes", str(N_NODES))
SWEEP_POINTS = 2 * SWEEP_SEEDS
SWEEP_JOBS = 2


def serve_request_count() -> int:
    return SERVE_WARMUP + sum(count for _, _, count in SERVE_STEPS)


def serve_config(seed: int):
    """The paper workload (k=4, 100 % originators) the serve input uses."""
    from repro.backends.config import FastSimulationConfig

    return FastSimulationConfig(
        n_nodes=N_NODES, bits=BITS, bucket_size=SERVE_BUCKET_SIZE,
        originator_share=1.0, n_files=serve_request_count(),
        overlay_seed=OVERLAY_SEED, workload_seed=seed,
    )


def serve_lines(seed: int) -> list[bytes]:
    """The NDJSON request lines for *seed*, one per download."""
    from repro.backends.fast import cached_overlay

    config = serve_config(seed)
    overlay = cached_overlay(config.overlay_config())
    events = config.workload().events(overlay.address_array(), overlay.space)
    return [
        (json.dumps({"originator": int(event.originator),
                     "chunks": event.chunk_addresses.tolist()})
         + "\n").encode("ascii")
        for event in events
    ]


def serve_command() -> list[str]:
    return ["-m", "repro.cli", "serve", "--nodes", str(N_NODES),
            "--bits", str(BITS), "--bucket-size", str(SERVE_BUCKET_SIZE),
            "--overlay-seed", str(OVERLAY_SEED),
            "--max-batch", str(SERVE_MAX_BATCH)]


def timed_config(seed: int):
    from repro.backends.config import FastSimulationConfig
    from repro.perf.bench import LATENCY_PROFILE

    profile = dict(LATENCY_PROFILE, arrival_rate=TIMED_ARRIVAL_RATE)
    return FastSimulationConfig(
        n_nodes=N_NODES, bits=BITS, bucket_size=4, n_files=TIMED_FILES,
        overlay_seed=OVERLAY_SEED, workload_seed=seed, arrival_seed=seed,
        **profile,
    )


def sweep_argv(seed: int, store: str, jobs: int) -> list[str]:
    return ["sweep", *SWEEP_ARGS, "--jobs", str(jobs),
            "--entropy", str(seed), "--store", store, "--no-resume"]

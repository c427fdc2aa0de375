"""Record the outputs the benchmark checks, per workload seed.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record_expected.py 0 63

It writes ``perfbench/expected.json`` with, for every seed in the
inclusive range: the four headline cells, the ``final`` line of
``serve --batch`` on the serve input (its SHA-256 and the fields that
must equal the headline's k=4 / 100 % cell), and the time backend's
hop counters and simulated latency quantiles. Re-record only when a
change is meant to alter these outputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spec  # noqa: E402

CELL_FIELDS = ("chunks", "total_hops", "f1_gini", "f2_gini")


def record(seed: int) -> dict:
    from repro.backends.config import FastSimulationConfig
    from repro.backends.timed import TimedSimulation
    from repro.experiments.paper import run_headline
    from repro.serve import run_serve

    report = run_headline(n_files=spec.HEADLINE_FILES, n_nodes=spec.N_NODES,
                          workload_seed=seed)
    headline = {
        f"k={k},share={s}": {
            "chunks": int(r.chunks), "total_hops": int(r.total_hops),
            "f1_gini": r.f1_gini(), "f2_gini": r.f2_gini(),
        }
        for (k, s), r in report.data["results"].items()
    }
    # The daemon's own config, as ``repro-swarm serve`` builds it.
    serve_config = FastSimulationConfig(
        n_nodes=spec.N_NODES, bits=spec.BITS,
        bucket_size=spec.SERVE_BUCKET_SIZE, overlay_seed=spec.OVERLAY_SEED,
        batch_files=spec.SERVE_MAX_BATCH,
    )
    lines = [line.decode("ascii") for line in spec.serve_lines(seed)]
    out = io.StringIO()
    run_serve(serve_config, lines, out, max_batch=spec.SERVE_MAX_BATCH,
              batch_mode=True)
    final = out.getvalue().splitlines()[-1].encode("ascii")
    final_fields = {key: json.loads(final)[key] for key in CELL_FIELDS}
    if final_fields != headline["k=4,share=1.0"]:
        raise SystemExit(f"seed {seed}: serve final differs from the "
                         "headline k=4 / 100 % cell")
    timed = TimedSimulation(spec.timed_config(seed)).run()
    stats = timed.latency_stats()
    return {
        "headline": headline,
        "serve_final": final_fields,
        "serve_final_sha256": hashlib.sha256(final).hexdigest(),
        "timed": {"chunks": int(timed.chunks),
                  "total_hops": int(timed.total_hops),
                  "latency_p50_ms": stats.p50_ms,
                  "latency_p99_ms": stats.p99_ms},
    }


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    path = BENCH_DIR / "expected.json"
    seeds = {}
    for seed in range(first, last + 1):
        seeds[str(seed)] = record(seed)
        print(f"seed {seed} recorded", flush=True)
    path.write_text(json.dumps({"seeds": seeds}, indent=1, sort_keys=True)
                    + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

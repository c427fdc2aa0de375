"""Performance subsystem: table caching, sharing, and benchmarking.

PR 2 measured ``sweep --jobs 4`` running *slower* than serial because
every worker process rebuilt the dense
:class:`~repro.backends.fast.NextHopTable` (then about 5 s, now
0.6–1.0 s, and 131 MB at paper scale) for every sweep point. This package removes that
redundancy and tracks the repository's performance trajectory:

* :mod:`~repro.perf.table_cache` — a process-global, content-addressed
  :class:`TableCache` keyed by
  :meth:`~repro.kademlia.overlay.Overlay.fingerprint`; every consumer
  of :func:`repro.backends.fast.cached_next_hop_table` goes through
  it, so one topology is built at most once per process;
* :mod:`~repro.perf.shared` — publishes built tables into
  :mod:`multiprocessing.shared_memory` (refcounted, unlinked when the
  last sweep releases them) and attaches them read-only in worker
  processes, so a K-seed x M-parameter sweep over one topology builds
  its table exactly once machine-wide;
* :mod:`~repro.perf.bench` — the ``repro-swarm bench`` headline
  benchmark, which emits ``BENCH_headline.json`` with git/seed
  provenance and compares against a committed baseline (the CI perf
  smoke gate).

The epoch-driven scenario layer adds :class:`EpochTableCache` beside
the dense-table cache: per-epoch storer tables under topology change
are content-addressed by chained delta fingerprints and satisfied by
incremental patches of the parent epoch's table (see
:mod:`repro.kademlia.table` and :mod:`repro.scenarios.plan`), so
replayed scenario schedules — sweep seed replicas in particular —
never recompute an epoch's table twice in one process.
"""

from .bench import BENCH_FORMAT, check_regression, headline_bench
from .shared import (
    SharedArraySpec,
    SharedTableHandle,
    SharedTableRegistry,
    attach_table,
    shared_table_registry,
)
from .table_cache import (
    EPOCH_TABLE_LOG_ENV,
    CacheStats,
    EpochCacheStats,
    EpochTableCache,
    TableCache,
    global_epoch_table_cache,
    global_table_cache,
)

__all__ = [
    "BENCH_FORMAT",
    "CacheStats",
    "EPOCH_TABLE_LOG_ENV",
    "EpochCacheStats",
    "EpochTableCache",
    "SharedArraySpec",
    "SharedTableHandle",
    "SharedTableRegistry",
    "TableCache",
    "attach_table",
    "check_regression",
    "global_epoch_table_cache",
    "global_table_cache",
    "headline_bench",
    "shared_table_registry",
]

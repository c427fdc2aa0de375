"""Property tests: the fluid wheel against its heap-scheduled oracle.

:class:`~repro.backends.timed.FluidWheel` keeps per-node occupancy
counters, compacts its active arrays stably and merges release batches
with one pending completion slot. The oracle in
``tests/backends/wheel_oracle.py`` re-bincounts every endpoint on
every event and runs on the general
:class:`~repro.engine.des.EventScheduler`. The two must return
bit-for-bit equal completion times on every input: the benchmark and
the latency goldens compare simulated latencies for exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import timed
from repro.backends.config import FastSimulationConfig
from repro.backends.timed import FluidWheel, TimedSimulation
from repro.perf.bench import LATENCY_PROFILE
from tests.backends.wheel_oracle import FluidWheel as OracleWheel

#: Bandwidth in bytes/s; 0 means unbounded.
bandwidths = st.sampled_from([0.0, 700.0, 1000.0, 2500.0])
#: Release instants from a coarse grid (many ties) or anywhere.
release_times = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)


@st.composite
def wheel_inputs(draw) -> dict:
    """A random small wheel: 2-8 nodes, 0-40 chunks of 1-4 hops."""
    n_nodes = draw(st.integers(2, 8))
    n_chunks = draw(st.integers(0, 40))
    node = st.integers(0, n_nodes - 1)
    hops = draw(st.lists(st.integers(1, 4), min_size=n_chunks,
                         max_size=n_chunks))
    total = sum(hops)
    nodes = draw(st.lists(node, min_size=total, max_size=total))
    origins = draw(st.lists(node, min_size=n_chunks, max_size=n_chunks))
    releases = draw(st.lists(release_times, min_size=n_chunks,
                             max_size=n_chunks))
    hops = np.asarray(hops, dtype=np.int32)
    offsets = np.zeros(n_chunks, dtype=np.int64)
    if n_chunks:
        np.cumsum(hops[:-1], out=offsets[1:])
    return dict(
        n_nodes=n_nodes,
        chunk_bytes=1000.0,
        up_bytes_s=draw(bandwidths),
        down_bytes_s=draw(bandwidths),
        max_concurrent=draw(st.sampled_from([0, 1, 2])),
        quantum_s=draw(st.sampled_from([0.0, 0.1, 0.3])),
        release_s=np.asarray(releases, dtype=np.float64),
        hops=hops,
        offsets=offsets,
        nodes=np.asarray(nodes, dtype=np.int32),
        origins=np.asarray(origins, dtype=np.int64),
    )


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(wheel_inputs())
    def test_completion_times_bit_identical(self, inputs):
        done = FluidWheel(**inputs).run()
        expected = OracleWheel(**inputs).run()
        assert np.array_equal(done, expected)

    @settings(max_examples=60, deadline=None)
    @given(wheel_inputs(), st.integers(1, 2))
    def test_unbounded_links_with_a_cap(self, inputs, cap):
        # Both endpoints unbounded: every transfer completes the instant
        # it is admitted, and only the cap orders the hops.
        inputs.update(up_bytes_s=0.0, down_bytes_s=0.0, max_concurrent=cap)
        done = FluidWheel(**inputs).run()
        assert np.array_equal(done, OracleWheel(**inputs).run())


@pytest.mark.parametrize("max_concurrent", [0, 2])
def test_latency_profile_simulation_matches_oracle(monkeypatch,
                                                   max_concurrent):
    """A whole time-backend run under the benchmark's contended profile."""
    config = FastSimulationConfig(
        n_nodes=60, n_files=80, overlay_seed=3, workload_seed=5,
        arrival_seed=5, max_concurrent=max_concurrent, **LATENCY_PROFILE,
    )
    result = TimedSimulation(config).run()
    monkeypatch.setattr(timed, "FluidWheel", OracleWheel)
    expected = TimedSimulation(config).run()
    assert result.latency_ms.size > 0
    assert np.array_equal(result.latency_ms, expected.latency_ms)

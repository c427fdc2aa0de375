"""Property tests for the trie-fill next-hop table build (hypothesis).

:func:`~repro.kademlia.address.xor_closest_fill` builds both the
per-node forwarding rows of :class:`~repro.backends.fast.NextHopTable`
and the overlay's storer table. The oracle here is the brute-force
construction: a running XOR minimum over every candidate across the
whole address space, followed by the terminal coding written out from
its definition (see :mod:`repro.backends.fast`). The built coded
matrix, the lazily decoded raw matrix and the storer column must all
match it exactly, on built overlays and on arbitrary peer graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.fast import NextHopTable, table_entry_dtype
from repro.errors import AddressError, ConfigurationError, OverlayError
from repro.kademlia import (
    AddressSpace,
    BucketLimits,
    Overlay,
    OverlayConfig,
    RoutingTable,
    xor_closest_fill,
)


def brute_force_closest(size: int, addresses, values) -> np.ndarray:
    """Running XOR minimum over every candidate: O(candidates) passes."""
    targets = np.arange(size, dtype=np.uint64)
    best = np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)
    out = np.zeros(size, dtype=np.int64)
    for address, value in zip(addresses, values):
        distance = targets ^ np.uint64(address)
        closer = distance < best
        best = np.where(closer, distance, best)
        out[closer] = value
    return out


def oracle(overlay: Overlay) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force ``(next_hop, storer, coded_transposed)`` for *overlay*."""
    size = overlay.space.size
    n = len(overlay)
    dtype = table_entry_dtype(n)
    sentinel = int(np.iinfo(dtype).max)
    storer = brute_force_closest(size, overlay.addresses, range(n))
    next_hop = np.empty((n, size), dtype=np.int64)
    for index, owner in enumerate(overlay.addresses):
        peers = overlay.table(owner).peers()
        next_hop[index] = brute_force_closest(
            size,
            [owner, *peers],
            [sentinel, *(overlay.index_of(peer) for peer in peers)],
        )
    coded = np.where(next_hop == sentinel, storer + 2 * n,
                     np.where(next_hop == storer, next_hop + n, next_hop))
    return (next_hop.astype(dtype), storer.astype(dtype),
            np.ascontiguousarray(coded.T).astype(dtype))


def assert_matches_oracle(overlay: Overlay) -> None:
    next_hop, storer, coded = oracle(overlay)
    table = NextHopTable(overlay)
    assert table.coded_transposed.dtype == coded.dtype
    np.testing.assert_array_equal(table.coded_transposed, coded)
    np.testing.assert_array_equal(table.storer, storer)
    np.testing.assert_array_equal(overlay.storer_table(), storer)
    np.testing.assert_array_equal(table.next_hop, next_hop)


def overlay_from_peers(bits: int, peers: dict[int, list[int]]) -> Overlay:
    """An overlay whose nodes know exactly the given peers."""
    space = AddressSpace(bits)
    limits = BucketLimits.uniform(1 << bits)
    tables = {}
    for owner, known in peers.items():
        table = RoutingTable(owner, space, limits)
        for peer in known:
            table.add_unbounded(peer)
        tables[owner] = table
    config = OverlayConfig(n_nodes=len(peers), bits=bits, limits=limits)
    return Overlay.from_tables(config, tables)


@st.composite
def built_overlays(draw) -> Overlay:
    bits = draw(st.integers(min_value=1, max_value=12))
    n_nodes = draw(st.integers(min_value=2, max_value=min(1 << bits, 40)))
    return Overlay.build(OverlayConfig(
        n_nodes=n_nodes,
        bits=bits,
        limits=BucketLimits.uniform(draw(st.integers(1, 4))),
        seed=draw(st.integers(0, 2**16)),
        neighborhood_min=draw(st.integers(1, 4)),
        symmetric_neighborhood=draw(st.booleans()),
    ))


@st.composite
def peer_graphs(draw) -> Overlay:
    """Arbitrary (not Kademlia-shaped) directed peer graphs."""
    bits = draw(st.integers(min_value=1, max_value=12))
    addresses = draw(st.lists(
        st.integers(0, (1 << bits) - 1), min_size=2,
        max_size=min(1 << bits, 24), unique=True,
    ))
    peers = {}
    for owner in addresses:
        others = [address for address in addresses if address != owner]
        peers[owner] = draw(st.lists(st.sampled_from(others), unique=True))
    return overlay_from_peers(bits, peers)


class TestXorClosestFill:
    @given(st.integers(min_value=0, max_value=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_running_minimum(self, bits, data):
        addresses = data.draw(st.lists(
            st.integers(0, (1 << bits) - 1), min_size=1,
            max_size=min(1 << bits, 64), unique=True,
        ))
        values = data.draw(st.lists(
            st.integers(0, 2**31 - 1), min_size=len(addresses),
            max_size=len(addresses),
        ))
        out = np.empty(1 << bits, dtype=np.int64)
        assert xor_closest_fill(out, addresses, values) is out
        np.testing.assert_array_equal(
            out, brute_force_closest(1 << bits, addresses, values))

    def test_rejects_malformed_input(self):
        out = np.empty(8, dtype=np.int64)
        with pytest.raises(ConfigurationError, match="at least one"):
            xor_closest_fill(out, [], [])
        with pytest.raises(ConfigurationError, match="distinct"):
            xor_closest_fill(out, [3, 3], [0, 1])
        with pytest.raises(ConfigurationError, match="values"):
            xor_closest_fill(out, [1, 2], [0])
        with pytest.raises(AddressError):
            xor_closest_fill(out, [8], [0])
        with pytest.raises(ConfigurationError, match="power-of-two"):
            xor_closest_fill(np.empty(6, dtype=np.int64), [1], [0])


class TestNextHopTableAgainstOracle:
    @given(built_overlays())
    @settings(max_examples=60, deadline=None)
    def test_built_overlays(self, overlay):
        assert_matches_oracle(overlay)

    @given(peer_graphs())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_peer_graphs(self, overlay):
        assert_matches_oracle(overlay)

    def test_node_without_peers(self):
        assert_matches_oracle(overlay_from_peers(
            6, {5: [], 17: [40], 40: [5, 17]}))

    def test_node_with_one_peer(self):
        assert_matches_oracle(overlay_from_peers(
            8, {0: [255], 255: [0], 100: [0]}))

    def test_peer_differing_only_in_lowest_bit(self):
        assert_matches_oracle(overlay_from_peers(
            10, {612: [613], 613: [612, 3], 3: [613]}))

    def test_full_mesh(self):
        addresses = [1, 6, 7, 30, 31, 44, 63]
        assert_matches_oracle(overlay_from_peers(6, {
            owner: [peer for peer in addresses if peer != owner]
            for owner in addresses
        }))

    def test_full_space_mesh(self):
        addresses = list(range(16))
        assert_matches_oracle(overlay_from_peers(4, {
            owner: [peer for peer in addresses if peer != owner]
            for owner in addresses
        }))


def test_peer_outside_the_overlay_is_rejected():
    overlay = overlay_from_peers(6, {5: [9, 63], 9: [5]})
    with pytest.raises(OverlayError, match="not overlay nodes"):
        NextHopTable(overlay)


def test_build_decodes_raw_matrix_only_on_demand():
    overlay = Overlay.build(OverlayConfig(n_nodes=30, bits=9, seed=3))
    table = NextHopTable(overlay)
    assert table._next_hop is None
    table.flat_coded  # routing through the coded matrix decodes nothing
    assert table._next_hop is None
    raw = table.next_hop
    assert table._next_hop is raw
    np.testing.assert_array_equal(raw, oracle(overlay)[0])

"""Property tests for the capacity-bounded consistent-hash ring.

The fleet issue mandates two properties: load balance within ±15% at
256 vnodes, and minimal key remap (< 2/N of the keyspace) when a node
is added or quarantined out.  Both are checked on the real assignment,
not a model of it.
"""

import numpy as np
import pytest

from repro.fleet.ring import DEFAULT_VNODES, ConsistentHashRing, mix64, name_token


def _names(n: int) -> list[str]:
    return [f"s{i:04d}" for i in range(n)]


def _reference_owner(ring: ConsistentHashRing) -> np.ndarray:
    """The plain definition of the assignment, kept as the oracle: every
    partition ranks all nodes by descending weight (stable argsort of
    ``~w``, so ties go to the lower node index) and takes the first node
    of that list still under the cap, in partition order.  The
    preference lists are sorted a block of rows at a time only to bound
    the oracle's memory; each row's list is the same either way."""
    part_tokens = mix64(np.arange(ring.partitions, dtype=np.uint64))
    node_tokens = np.array(
        [name_token(name, ring.salt) for name in ring.nodes], dtype=np.uint64
    )
    loads = np.zeros(len(ring.nodes), dtype=np.int64)
    owner = np.empty(ring.partitions, dtype=np.int32)
    for lo in range(0, ring.partitions, 4096):
        weights = mix64(part_tokens[lo:lo + 4096, None] ^ node_tokens[None, :])
        prefs = np.argsort(~weights, axis=1, kind="stable")
        for row, part in enumerate(range(lo, lo + len(prefs))):
            for choice in prefs[row]:
                if loads[choice] < ring.capacity:
                    owner[part] = choice
                    loads[choice] += 1
                    break
    return owner


def _assert_matches_reference(ring: ConsistentHashRing) -> None:
    expected = _reference_owner(ring)
    assert ring.owner_of_partition.tobytes() == expected.tobytes()


class TestBalance:
    @pytest.mark.parametrize("shards", [4, 16, 64])
    def test_load_within_15_percent_at_256_vnodes(self, shards):
        ring = ConsistentHashRing(_names(shards), vnodes=DEFAULT_VNODES)
        low, high = ring.load_spread()
        assert low >= -0.15, f"most-underloaded shard at {low:+.1%}"
        assert high <= 0.15, f"most-overloaded shard at {high:+.1%}"

    def test_capacity_cap_gives_pigeonhole_balance(self):
        # With cap_factor=1.0 total capacity equals demand, so every
        # shard holds either floor or ceil of the mean partition count.
        ring = ConsistentHashRing(_names(16), vnodes=DEFAULT_VNODES)
        counts = ring.partition_counts()
        mean = ring.partitions / len(ring.nodes)
        assert counts.min() >= int(np.floor(mean))
        assert counts.max() <= int(np.ceil(mean))

    def test_every_partition_owned(self):
        ring = ConsistentHashRing(_names(8), vnodes=32)
        assert int(ring.partition_counts().sum()) == ring.partitions


class TestRemap:
    @pytest.mark.parametrize("shards", [16, 32])
    def test_quarantine_one_node_remaps_under_2_over_n(self, shards):
        ring = ConsistentHashRing(_names(shards), vnodes=DEFAULT_VNODES)
        shrunk = ring.without(ring.nodes[shards // 2])
        fraction = ring.remap_fraction(shrunk)
        bound = 2.0 / shards
        # removing a node must move at least its own ~1/N share...
        assert fraction >= 0.5 / shards
        # ...but never more than the issue's 2/N minimal-remap bound.
        assert fraction < bound, f"remap {fraction:.4f} >= 2/N {bound:.4f}"

    @pytest.mark.parametrize("shards", [16, 32])
    def test_add_one_node_remaps_under_2_over_n(self, shards):
        ring = ConsistentHashRing(_names(shards), vnodes=DEFAULT_VNODES)
        grown = ring.with_nodes(f"s{9000 + shards:04d}")
        fraction = ring.remap_fraction(grown)
        assert 0.0 < fraction < 2.0 / shards

    def test_surviving_nodes_keep_untouched_partitions(self):
        # Quarantining s0005 must never move a key between two survivors'
        # *first-choice* partitions: survivors only ever gain partitions.
        ring = ConsistentHashRing(_names(8), vnodes=64)
        shrunk = ring.without("s0005")
        removed_idx = ring.nodes.index("s0005")
        mine = np.asarray(ring.nodes, dtype=object)[ring.owner_of_partition]
        theirs = np.asarray(shrunk.nodes, dtype=object)[shrunk.owner_of_partition]
        moved = mine != theirs
        # every partition the removed node owned must move somewhere
        assert np.all(moved[ring.owner_of_partition == removed_idx])

    def test_remap_requires_shared_partition_grid(self):
        a = ConsistentHashRing(_names(4), vnodes=16)
        b = ConsistentHashRing(_names(4), vnodes=64)
        with pytest.raises(ValueError):
            a.remap_fraction(b)


class TestReferenceEquality:
    """The streaming assignment (first-choice argmax, bulk prefix, greedy
    tail, incremental ``without``) must reproduce the plain definition
    byte for byte, tie-breaks included.  Balance and remap bounds alone
    would not notice a different-but-balanced assignment."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8, 13, 31, 64])
    @pytest.mark.parametrize("vnodes", [1, 16, 64])
    @pytest.mark.parametrize("cap_factor", [1.0, 1.5])
    def test_fresh_build(self, shards, vnodes, cap_factor):
        ring = ConsistentHashRing(
            _names(shards), vnodes=vnodes, salt=shards, cap_factor=cap_factor
        )
        _assert_matches_reference(ring)

    @pytest.mark.parametrize("salt", [0, 7, "fleet"])
    @pytest.mark.parametrize("shards", [4, 16])
    def test_default_vnodes_across_salts(self, salt, shards):
        _assert_matches_reference(
            ConsistentHashRing(_names(shards), vnodes=DEFAULT_VNODES, salt=salt)
        )

    @pytest.mark.parametrize("partitions", [8, 64, 1024])
    @pytest.mark.parametrize("cap_factor", [1.0, 1.5])
    def test_explicit_partitions(self, partitions, cap_factor):
        ring = ConsistentHashRing(
            _names(6), partitions=partitions, salt=3, cap_factor=cap_factor
        )
        _assert_matches_reference(ring)

    @pytest.mark.parametrize("cap_factor", [1.0, 1.5])
    @pytest.mark.parametrize("salt", [0, 11])
    def test_without_single_multi_and_chained(self, cap_factor, salt):
        ring = ConsistentHashRing(
            _names(24), vnodes=16, salt=salt, cap_factor=cap_factor
        )
        single = ring.without("s0007")
        multi = ring.without("s0000", "s0011", "s0023")
        chained = single.without("s0000").without("s0011", "s0023")
        for derived in (single, multi, chained):
            _assert_matches_reference(derived)
        assert chained.owner_of_partition.tobytes() == (
            ring.without("s0007", "s0000", "s0011", "s0023")
            .owner_of_partition.tobytes()
        )

    def test_without_down_to_one_node(self):
        ring = ConsistentHashRing(_names(5), vnodes=16, salt=2)
        last = ring.without(*_names(5)[1:])
        assert last.nodes == ("s0000",)
        _assert_matches_reference(last)

    @pytest.mark.parametrize("cap_factor", [1.0, 1.5])
    def test_with_nodes(self, cap_factor):
        ring = ConsistentHashRing(
            _names(12), vnodes=64, salt=5, cap_factor=cap_factor
        )
        _assert_matches_reference(ring.with_nodes("s0100", "s0101"))
        _assert_matches_reference(ring.with_nodes("s0100").without("s0003"))

    def test_fleet_chaos_shape(self):
        # 256 shards x 256 vnodes = 65536 partitions, named and salted as
        # FleetTopology names and salts them, then a five-shard outage
        ring = ConsistentHashRing(_names(256), vnodes=DEFAULT_VNODES, salt=3)
        assert ring.partitions == 65536
        _assert_matches_reference(ring)
        _assert_matches_reference(ring.without(*_names(256)[40:45]))


class TestDeterminism:
    def test_assignment_is_a_pure_function_of_inputs(self):
        a = ConsistentHashRing(_names(12), vnodes=64, salt=7)
        b = ConsistentHashRing(list(reversed(_names(12))), vnodes=64, salt=7)
        assert a.nodes == b.nodes
        assert np.array_equal(a.owner_of_partition, b.owner_of_partition)

    def test_salt_changes_assignment(self):
        a = ConsistentHashRing(_names(12), vnodes=64, salt=1)
        b = ConsistentHashRing(_names(12), vnodes=64, salt=2)
        assert not np.array_equal(a.owner_of_partition, b.owner_of_partition)

    def test_lookup_matches_bulk_assign(self):
        ring = ConsistentHashRing(_names(6), vnodes=32)
        hashes = mix64(np.arange(512, dtype=np.uint64))
        owners = ring.assign(hashes)
        for i in range(0, 512, 37):
            assert ring.lookup(int(hashes[i])) == ring.nodes[int(owners[i])]

    def test_name_token_is_not_builtin_hash(self):
        # sha256-derived: stable across processes, sensitive to the salt.
        assert name_token("s0001", 0) == name_token("s0001", 0)
        assert name_token("s0001", 0) != name_token("s0001", 1)
        assert name_token("s0001", 0) != hash("s0001")

    def test_mix64_scalar_matches_vector(self):
        xs = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        vec = mix64(xs)
        for i, x in enumerate([0, 1, 2**63, 2**64 - 1]):
            assert mix64(x) == int(vec[i])


class TestValidation:
    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])

    def test_non_power_of_two_partitions_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(_names(4), partitions=100)

    def test_cap_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(_names(4), cap_factor=0.5)

    def test_without_unknown_node_rejected(self):
        # an unknown name must not read as a zero-remap quarantine
        ring = ConsistentHashRing(_names(4), vnodes=16)
        with pytest.raises(ValueError, match="s0009, s0042"):
            ring.without("s0001", "s0042", "s0009")

    def test_without_every_node_rejected(self):
        ring = ConsistentHashRing(_names(2), vnodes=16)
        with pytest.raises(ValueError):
            ring.without(*ring.nodes)

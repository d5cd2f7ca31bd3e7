"""Consistent-hash ring sharding the versioned keyspace across the fleet.

The classic token ring (random vnode positions on a circle) has a
well-known flaw at our scale: even with 256 vnodes per shard, the gap
lengths between tokens follow an exponential distribution and per-shard
load spreads by ±20% or worse — a non-starter when each shard's validator
pool is provisioned for its share of the keyspace.  We instead use
*capacity-bounded rendezvous hashing over ring partitions* (the scheme
behind Ceph's straw buckets and envoy's bounded-load ring):

1. The hash space is split into ``partitions`` equal slices (a power of
   two, so ``key_hash % partitions`` is exact); a key's partition never
   changes as shards come and go.
2. Each (partition, shard) pair gets a pseudo-random weight
   ``mix64(partition_token ^ shard_token)``; every partition ranks all
   shards by descending weight (rendezvous / highest-random-weight).
3. Partitions are assigned greedily, in partition order, to the
   highest-ranked shard that still has headroom under a capacity cap of
   ``ceil(partitions / shards * cap_factor)``.

Properties (enforced by ``tests/fleet/test_ring.py``):

* **balance** — with the default ``cap_factor=1.0`` the cap is exactly
  ``ceil(partitions / shards)`` and total capacity equals demand, so by
  pigeonhole every shard lands in ``[floor, ceil]`` of the mean: balance
  is essentially perfect (far inside the ±15% the tests assert) at every
  fleet size;
* **low remap** — removing a shard re-homes its own ``~1/S`` of the
  keyspace plus a cap-reshuffle cascade measured at ~1% of partitions:
  comfortably under the ``2/N`` remap bound for fleets up to ~64 shards
  (beyond that the cascade floor dominates the shrinking ``2/N`` — the
  measured trade is documented in DESIGN §12);
* **determinism** — weights come from :func:`mix64` over sha256-derived
  tokens, so the map is a pure function of (names, partitions, salt),
  identical across processes and Python versions.

The assignment is computed without materializing the partitions x shards
weight matrix or its preference lists (DESIGN §12): each partition's
first choice is an ``argmax`` over cache-sized weight blocks; every
partition before the first shard overflows its cap gets its first choice
in one vectorized step; and only the greedy tail loops, hashing a single
partition's row when its first choice is already full.  ``without()``
re-indexes the parent's first choices and recomputes only the partitions
whose first choice left.  ``tests/fleet/test_ring.py`` checks the result
byte for byte against the plain argsort-and-walk definition.

All bulk operations are vectorized: placing 10M keys is one ``%`` and one
fancy-index over a precomputed ``owner_of_partition`` array.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["mix64", "name_token", "ConsistentHashRing", "DEFAULT_VNODES"]

#: vnodes (ring partitions per shard) used by the fleet topology default
DEFAULT_VNODES = 256

_U64 = np.uint64

#: (partition, node) weights per first-choice block: 512 KB of uint64, so
#: the block and its shift scratch stay cache-resident
_BLOCK_CELLS = 1 << 16


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 over a uint64 array, in place; ``tmp`` is same-shaped
    scratch for the shifts.  uint64 array arithmetic wraps mod 2^64."""
    z += _U64(0x9E3779B97F4A7C15)
    np.right_shift(z, _U64(30), out=tmp)
    z ^= tmp
    z *= _U64(0xBF58476D1CE4E5B9)
    np.right_shift(z, _U64(27), out=tmp)
    z ^= tmp
    z *= _U64(0x94D049BB133111EB)
    np.right_shift(z, _U64(31), out=tmp)
    z ^= tmp


def mix64(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64 finalizer: a cheap, high-quality 64-bit mixer.

    Vectorized over numpy uint64 arrays; scalar ints are handled too (the
    single-key lookup path).  All arithmetic is mod 2^64.  The input is
    copied once and every step runs in place on the copy.
    """
    scalar = not isinstance(x, np.ndarray)
    z = np.array(x, dtype=_U64)
    _mix64_inplace(z, np.empty_like(z))
    return int(z) if scalar else z


def name_token(name: str, salt: int | str = 0) -> int:
    """A stable 64-bit token for a node name (sha256-based, not ``hash()``
    — the builtin is randomized per process and would break determinism
    across fleet workers)."""
    digest = hashlib.sha256(f"{salt}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _first_choices(part_tokens: np.ndarray, node_tokens: np.ndarray) -> np.ndarray:
    """Each partition's highest-weight node, one ``_BLOCK_CELLS`` block of
    weights at a time.  ``argmax`` returns the first maximum, so ties go
    to the lowest node index: the head of the partition's preference order."""
    count = len(part_tokens)
    step = max(1, _BLOCK_CELLS // len(node_tokens))
    first = np.empty(count, dtype=np.int32)
    weights = np.empty((min(count, step), len(node_tokens)), dtype=_U64)
    tmp = np.empty_like(weights)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        w = weights[: hi - lo]
        np.bitwise_xor(part_tokens[lo:hi, None], node_tokens[None, :], out=w)
        _mix64_inplace(w, tmp[: hi - lo])
        first[lo:hi] = w.argmax(axis=1)
    return first


class ConsistentHashRing:
    """Capacity-bounded rendezvous assignment of ring partitions to nodes.

    ``nodes`` are shard names (order-insensitive: assignment depends only
    on the name set).  ``partitions`` defaults to the next power of two
    ≥ ``len(nodes) * vnodes``; pass it explicitly when comparing rings
    across membership changes, otherwise the partition grid itself moves.
    """

    def __init__(
        self,
        nodes,
        vnodes: int = DEFAULT_VNODES,
        partitions: int | None = None,
        salt: int | str = 0,
        cap_factor: float = 1.0,
    ):
        self._configure(sorted(set(nodes)), vnodes, partitions, salt, cap_factor)
        self._assign_partitions(_first_choices(self._part_tokens, self._node_tokens))

    def _configure(self, names, vnodes, partitions, salt, cap_factor) -> None:
        if not names:
            raise ValueError("ring needs at least one node")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if cap_factor < 1.0:
            raise ValueError("cap_factor must be >= 1.0")
        if partitions is None:
            partitions = 1 << max(1, math.ceil(math.log2(len(names) * vnodes)))
        if partitions < len(names):
            raise ValueError("need at least one partition per node")
        if partitions & (partitions - 1):
            raise ValueError("partitions must be a power of two")
        self.nodes: tuple[str, ...] = tuple(names)
        self.vnodes = vnodes
        self.partitions = partitions
        self.salt = salt
        self.cap_factor = cap_factor
        self.capacity = math.ceil(partitions / len(names) * cap_factor)
        self._part_tokens = mix64(np.arange(partitions, dtype=_U64))
        self._node_tokens = np.array(
            [name_token(name, salt) for name in names], dtype=_U64
        )

    def _assign_partitions(self, first: np.ndarray) -> None:
        """Greedy in partition order: each partition goes to the first
        node of its preference order with headroom under the cap.

        Loads only grow, so until some node receives its ``cap + 1``-th
        first-choice partition no node is full and every partition gets
        its first choice: that prefix is placed in one step.  The tail
        runs the greedy loop; a partition whose first choice is already
        full takes the highest-weight node still open, which is the first
        open node of its preference order (``open_nodes`` is ascending,
        so ``argmax`` keeps the index tie-break).
        """
        cap = self.capacity
        counts = np.bincount(first, minlength=len(self.nodes))
        over = np.flatnonzero(counts > cap)
        stop = self.partitions
        if len(over):
            by_node = np.argsort(first, kind="stable")
            group_start = np.cumsum(counts) - counts
            stop = int(by_node[group_start[over] + cap].min())
        owner = first.copy()
        loads = np.bincount(first[:stop], minlength=len(self.nodes)).tolist()
        open_nodes = np.flatnonzero(np.asarray(loads) < cap)
        tmp = np.empty(len(self.nodes), dtype=_U64)
        for part, choice in enumerate(first[stop:].tolist(), start=stop):
            if loads[choice] >= cap:
                weights = self._node_tokens[open_nodes] ^ self._part_tokens[part]
                _mix64_inplace(weights, tmp[: len(weights)])
                choice = int(open_nodes[weights.argmax()])
                owner[part] = choice
            loads[choice] += 1
            if loads[choice] == cap:
                open_nodes = open_nodes[open_nodes != choice]
        self._first = first
        self.owner_of_partition = owner

    # -- lookups ---------------------------------------------------------
    def partition_of(self, key_hashes: np.ndarray | int):
        """Key hash(es) → partition index(es); stable across membership."""
        if isinstance(key_hashes, np.ndarray):
            return (key_hashes.astype(_U64) % _U64(self.partitions)).astype(np.int64)
        return int(key_hashes) % self.partitions

    def assign(self, key_hashes: np.ndarray) -> np.ndarray:
        """Bulk placement: uint64 key hashes → node indices (vectorized)."""
        return self.owner_of_partition[self.partition_of(key_hashes)]

    def lookup(self, key_hash: int) -> str:
        return self.nodes[int(self.owner_of_partition[self.partition_of(key_hash)])]

    def partition_counts(self) -> np.ndarray:
        """Partitions owned per node (index-aligned with ``nodes``)."""
        return np.bincount(self.owner_of_partition, minlength=len(self.nodes))

    def load_spread(self) -> tuple[float, float]:
        """(min, max) per-node partition share relative to the mean — the
        balance numbers the ±15% property test checks."""
        counts = self.partition_counts().astype(float)
        mean = counts.mean()
        return float(counts.min() / mean - 1.0), float(counts.max() / mean - 1.0)

    # -- membership changes ----------------------------------------------
    def without(self, *removed: str) -> "ConsistentHashRing":
        """The ring after quarantining nodes out (same partition grid).

        A surviving first choice stays its partition's first choice:
        dropping columns raises no other node above it and moves no
        lower-indexed tie ahead of it.  So the child re-indexes the
        parent's first choices and recomputes them only for partitions
        whose first choice left, then runs the same greedy placement
        under the capacity of the smaller node set.
        """
        gone = set(removed)
        unknown = sorted(gone - set(self.nodes))
        if unknown:
            raise ValueError(f"nodes not in the ring: {', '.join(unknown)}")
        keep = np.array([name not in gone for name in self.nodes])
        child = ConsistentHashRing.__new__(ConsistentHashRing)
        child._configure(
            [name for name, kept in zip(self.nodes, keep) if kept],
            self.vnodes, self.partitions, self.salt, self.cap_factor,
        )
        new_index = np.where(keep, np.cumsum(keep) - 1, -1).astype(np.int32)
        first = new_index[self._first]
        orphans = np.flatnonzero(first < 0)
        first[orphans] = _first_choices(
            child._part_tokens[orphans], child._node_tokens
        )
        child._assign_partitions(first)
        return child

    def with_nodes(self, *added: str) -> "ConsistentHashRing":
        """The ring after adding nodes (same partition grid)."""
        return ConsistentHashRing(
            list(self.nodes) + list(added),
            vnodes=self.vnodes,
            partitions=self.partitions,
            salt=self.salt,
            cap_factor=self.cap_factor,
        )

    def remap_fraction(self, other: "ConsistentHashRing") -> float:
        """Fraction of the keyspace whose owning *node name* differs
        between two rings on the same partition grid.  Partitions are
        equal slices of the hash space (power-of-two modulus), so the
        partition fraction is the key fraction."""
        if other.partitions != self.partitions:
            raise ValueError("rings must share a partition grid to compare")
        mine = np.asarray(self.nodes, dtype=object)[self.owner_of_partition]
        theirs = np.asarray(other.nodes, dtype=object)[other.owner_of_partition]
        return float(np.mean(mine != theirs))

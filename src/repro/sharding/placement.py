"""OID→shard placement policies (the sharding policy seam).

Two policies, deliberately at the two ends of the clustering axis:

* :class:`HashPlacement` — consistent hashing over OIDs with virtual
  nodes.  Uniform and structure-blind: neighbouring nodes of the
  HyperModel tree land on unrelated shards, so every closure traversal
  crosses shards at almost every edge.  This is the placement a
  general-purpose store gives you for free.
* :class:`SubtreeAffinePlacement` — exploits the generator's
  deterministic layout (uids allocated level by level, fanout-5 1-N
  wiring) to co-locate whole subtrees: the ancestor at
  :data:`AFFINITY_LEVEL` decides the shard, so 1-N closures below that
  level never cross shards and only M-N ``parts``/``refTo`` edges do.
  Clustering-as-placement is exactly the benchmark axis Darmont's
  critique says object-database benchmarks should expose.

Both policies are pure functions of the uid (plus static config): the
router and every shard server can evaluate them independently with no
directory service, and a uid's home never changes during a run.

Hashing uses :func:`hashlib.blake2b` digests, **not** Python's
``hash()``, so placement is stable across processes and unaffected by
``PYTHONHASHSEED`` — a requirement for deterministic benchmarks.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List

from repro.errors import ConfigurationError
from repro.netsim.config import ShardConfig

#: Ring points each shard contributes to :class:`HashPlacement`.
VIRTUAL_NODES = 64

#: Tree level whose subtrees :class:`SubtreeAffinePlacement` keeps
#: together: level 1 spreads the root's child subtrees round-robin
#: over the shards.
AFFINITY_LEVEL = 1


def _digest(token: str) -> int:
    """A 64-bit deterministic digest of ``token``."""
    return int.from_bytes(
        hashlib.blake2b(token.encode("ascii"), digest_size=8).digest(),
        "big",
    )


class Placement:
    """Maps every OID to the shard that owns it."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(
                f"placement needs at least one shard, got {shards}"
            )
        self.shards = shards

    def shard_of(self, uid: int) -> int:
        """The owning shard index (0 .. shards-1) for one uid."""
        raise NotImplementedError

    def partition(self, uids: Iterable[int]) -> Dict[int, List[int]]:
        """Group uids by owning shard, preserving iteration order.

        Only shards that own at least one uid appear in the result —
        the router sends no empty requests.
        """
        groups: Dict[int, List[int]] = {}
        for uid in uids:
            groups.setdefault(self.shard_of(uid), []).append(uid)
        return groups


class HashPlacement(Placement):
    """Consistent hashing with virtual nodes.

    Each shard contributes :data:`VIRTUAL_NODES` points on a 64-bit ring;
    a uid belongs to the first ring point clockwise of its own digest.
    Consistent hashing (rather than plain ``uid % shards``) keeps the
    policy honest about what a production store would do — adding a
    shard moves only ~1/N of the keys — and the virtual nodes smooth
    the per-shard load to within a few percent.
    """

    def __init__(self, shards: int) -> None:
        super().__init__(shards)
        points: List[tuple] = []
        for shard in range(shards):
            for vnode in range(VIRTUAL_NODES):
                points.append((_digest(f"shard:{shard}:{vnode}"), shard))
        # Ties are impossible in practice (64-bit digests) but sort the
        # (point, shard) pairs so even a collision breaks the same way
        # everywhere.
        points.sort()
        self._points = [point for point, _shard in points]
        self._owners = [shard for _point, shard in points]

    def shard_of(self, uid: int) -> int:
        point = _digest(f"oid:{uid}")
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap: past the last point means the first owner
        return self._owners[index]


class SubtreeAffinePlacement(Placement):
    """Co-locate 1-N closure subtrees using the generator's layout.

    The HyperModel generator allocates uids level by level from
    ``first_uid`` with a fixed fanout, wiring parent at (level, index
    ``i``) to children at indices ``[i*fanout, (i+1)*fanout)`` of the
    next level.  That makes a uid's (level, index) — and therefore its
    ancestor at any level — pure arithmetic:

        offset = uid - first_uid
        level  = the l with cum(l) <= offset < cum(l+1),
                 where cum(l) = (fanout**l - 1) / (fanout - 1)
        index  = offset - cum(level); ancestor index = index // fanout

    The shard is the :data:`AFFINITY_LEVEL` ancestor's index modulo the
    shard count: every node below one such subtree
    shares that subtree's shard, so ``children`` closures below it are
    entirely shard-local and only M-N edges (``parts``, ``refTo`` —
    random across subtrees by construction) cross shards.  Uids
    outside the tree (named lists aside, e.g. a second structure's
    range) fall back to consistent hashing so the policy is total.
    """

    def __init__(
        self,
        shards: int,
        fanout: int = 5,
        first_uid: int = 1,
    ) -> None:
        super().__init__(shards)
        if fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {fanout}")
        self.fanout = fanout
        self.first_uid = first_uid
        self._fallback = HashPlacement(shards)
        # cum[l] = number of uids strictly above level l (levels are
        # complete by construction); grown on demand for deep trees.
        self._cum = [0, 1]

    def _level_of(self, offset: int) -> int:
        cum = self._cum
        while cum[-1] <= offset:
            cum.append(cum[-1] + self.fanout ** (len(cum) - 1))
        return bisect.bisect_right(cum, offset) - 1

    def shard_of(self, uid: int) -> int:
        offset = uid - self.first_uid
        if offset < 0:
            return self._fallback.shard_of(uid)
        level = self._level_of(offset)
        index = offset - self._cum[level]
        while level > AFFINITY_LEVEL:
            index //= self.fanout
            level -= 1
        return index % self.shards


def make_placement(config: ShardConfig) -> Placement:
    """Build the placement policy a :class:`ShardConfig` names."""
    if config.placement == "hash":
        return HashPlacement(config.shards)
    if config.placement == "affine":
        return SubtreeAffinePlacement(
            config.shards, fanout=config.fanout, first_uid=config.first_uid
        )
    raise ConfigurationError(
        f"unknown placement policy {config.placement!r}"
    )

"""Seed allocations ``S⃗ = (S_1, …, S_h)``.

An allocation assigns disjoint seed sets to advertisers.  The class enforces
the partition-matroid constraint of the RM problem (a node endorses at most
one ad) at mutation time so that solver bugs surface immediately.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.exceptions import ProblemDefinitionError


class Allocation:
    """Mutable mapping from advertiser index to its seed set.

    Parameters
    ----------
    num_advertisers:
        Number of advertisers ``h``; advertiser indices are ``0 .. h-1``.
    """

    def __init__(self, num_advertisers: int):
        if num_advertisers <= 0:
            raise ProblemDefinitionError("num_advertisers must be positive")
        self._num_advertisers = num_advertisers
        self._seed_sets: Dict[int, Set[int]] = {i: set() for i in range(num_advertisers)}
        self._owner: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, num_advertisers: int, seed_sets: Dict[int, Iterable[int]]) -> "Allocation":
        """Build an allocation from ``{advertiser: seeds}``; validates disjointness."""
        allocation = cls(num_advertisers)
        for advertiser, seeds in seed_sets.items():
            for node in seeds:
                allocation.assign(int(node), int(advertiser))
        return allocation

    def copy(self) -> "Allocation":
        """Deep copy of the allocation (keeps the assignment order)."""
        clone = Allocation(self._num_advertisers)
        for node, advertiser in self._owner.items():
            clone.assign(node, advertiser)
        return clone

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def assign(self, node: int, advertiser: int) -> None:
        """Assign ``node`` to ``advertiser``; raises if the node is already taken."""
        self._check_advertiser(advertiser)
        node = int(node)
        current_owner = self._owner.get(node)
        if current_owner is not None:
            if current_owner == advertiser:
                return
            raise ProblemDefinitionError(
                f"node {node} is already assigned to advertiser {current_owner}"
            )
        self._seed_sets[advertiser].add(node)
        self._owner[node] = advertiser

    def unassign(self, node: int) -> None:
        """Remove ``node`` from whichever advertiser holds it (no-op if unassigned)."""
        node = int(node)
        owner = self._owner.pop(node, None)
        if owner is not None:
            self._seed_sets[owner].discard(node)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_advertisers(self) -> int:
        """Number of advertisers this allocation covers."""
        return self._num_advertisers

    def seeds(self, advertiser: int) -> FrozenSet[int]:
        """The (immutable view of the) seed set of ``advertiser``."""
        self._check_advertiser(advertiser)
        return frozenset(self._seed_sets[advertiser])

    def assignment_order(self, advertiser: int) -> List[int]:
        """``advertiser``'s seeds in the order they were assigned."""
        self._check_advertiser(advertiser)
        return [node for node, owner in self._owner.items() if owner == advertiser]

    def owner_of(self, node: int) -> int | None:
        """The advertiser holding ``node``, or ``None``."""
        return self._owner.get(int(node))

    def is_assigned(self, node: int) -> bool:
        """Whether ``node`` is assigned to any advertiser."""
        return int(node) in self._owner

    def assigned_nodes(self) -> FrozenSet[int]:
        """All nodes assigned to some advertiser."""
        return frozenset(self._owner)

    def total_seed_count(self) -> int:
        """Total number of assigned (node, advertiser) pairs."""
        return len(self._owner)

    def seed_count(self, advertiser: int) -> int:
        """Number of seeds assigned to ``advertiser``."""
        self._check_advertiser(advertiser)
        return len(self._seed_sets[advertiser])

    def items(self) -> Iterator[Tuple[int, FrozenSet[int]]]:
        """Iterate ``(advertiser, seed_set)`` pairs."""
        for advertiser in range(self._num_advertisers):
            yield advertiser, frozenset(self._seed_sets[advertiser])

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(node, advertiser)`` pairs — the set view used in the paper."""
        for node, advertiser in self._owner.items():
            yield node, advertiser

    def as_dict(self) -> Dict[int, FrozenSet[int]]:
        """Return ``{advertiser: frozenset(seeds)}``."""
        return {advertiser: frozenset(seeds) for advertiser, seeds in self._seed_sets.items()}

    def is_empty(self) -> bool:
        """True when no node is assigned."""
        return not self._owner

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return (
            self._num_advertisers == other._num_advertisers
            and self._seed_sets == other._seed_sets
        )

    def __repr__(self) -> str:
        sizes = {advertiser: len(seeds) for advertiser, seeds in self._seed_sets.items()}
        return f"Allocation(num_advertisers={self._num_advertisers}, sizes={sizes})"

    # ------------------------------------------------------------------ #
    def _check_advertiser(self, advertiser: int) -> None:
        if not 0 <= advertiser < self._num_advertisers:
            raise ProblemDefinitionError(
                f"advertiser {advertiser} out of range [0, {self._num_advertisers})"
            )

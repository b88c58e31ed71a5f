"""Domain types for crosstalk-aware qubit allocation.

Qubits are plain non-negative integers indexing vertices of the platform
connectivity graph.  All types here are immutable values: the search in
:mod:`qaiccc.allocator` never mutates an allocation, it derives new ones.

Inside the searches, qubit sets are also handled as ``int`` bitmasks (bit
``q`` set means qubit ``q`` is in the set); the helpers for them live
here, next to :attr:`ConnectivityGraph.adjacency_masks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence


def qubit_mask(qubits: Iterable[int]) -> int:
    """Bitmask of non-negative qubit indices."""
    out = 0
    for q in qubits:
        out |= 1 << q
    return out


def mask_qubits(mask: int) -> frozenset[int]:
    """The qubits of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def mask_neighborhood(mask: int, adjacency: Sequence[int]) -> int:
    """Union of the neighbour masks of the qubits in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adjacency[low.bit_length() - 1]
        mask ^= low
    return out


def mask_region(seed: int, within: int, adjacency: Sequence[int]) -> int:
    """The connected region of ``within`` that contains ``seed``."""
    region = frontier = seed
    while frontier:
        frontier = mask_neighborhood(frontier, adjacency) & within & ~region
        region |= frontier
    return region


class Trust(str, Enum):
    """Trust class of a user request or of an allocated component."""

    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ConnectivityGraph:
    """Undirected coupling map of the platform.

    ``edges`` holds normalized pairs ``(a, b)`` with ``a < b``; self loops
    and out-of-range endpoints are rejected at construction.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        normalized = set()
        for edge in self.edges:
            a, b = edge
            if a == b:
                raise ValueError(f"self loop on qubit {a}")
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValueError(f"edge {edge} has an endpoint outside 0..{self.vertex_count - 1}")
            normalized.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {q: [] for q in range(self.vertex_count)}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {q: tuple(sorted(v)) for q, v in nbrs.items()}

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbour bitmask per qubit: bit ``n`` of entry ``q`` is set iff q-n is an edge."""
        return tuple(sum(1 << n for n in nbrs) for nbrs in self._adjacency.values())

    @property
    def qubits(self) -> frozenset[int]:
        return frozenset(range(self.vertex_count))

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        return self._adjacency[qubit]

    def mask_of(self, qubits: Iterable[int]) -> int | None:
        """Bitmask of ``qubits``, or None when one lies outside ``0..vertex_count-1``.

        The searches check a qubit group against the platform only here.
        """
        mask = 0
        for q in qubits:
            if not 0 <= q < self.vertex_count:
                return None
            mask |= 1 << q
        return mask

    def is_connected(self, qubits: Iterable[int]) -> bool:
        """True when ``qubits`` induces a connected subgraph (or is empty).

        A set naming a qubit outside ``0..vertex_count-1`` is not connected.
        """
        mask = self.mask_of(qubits)
        return mask is not None and mask_region(mask & -mask, mask, self.adjacency_masks) == mask


@dataclass(frozen=True)
class CrosstalkRate:
    """One crosstalk measurement: ``impacting`` qubits perturb ``impacted`` ones.

    The composite ``score`` is dimensionless, finite, and non-negative.
    Only the 1-to-1, 2-to-1, and 2-to-2 shapes occur; the union of the two
    qubit groups must additionally induce a connected subgraph of the
    platform, which is checked where a graph is in scope (see
    :mod:`qaiccc.ingest`).
    """

    score: float
    impacting: frozenset[int]
    impacted: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "impacting", frozenset(self.impacting))
        object.__setattr__(self, "impacted", frozenset(self.impacted))
        if not math.isfinite(self.score) or self.score < 0:
            raise ValueError("rate score must be a finite non-negative number")
        shape = (len(self.impacting), len(self.impacted))
        if shape not in {(1, 1), (2, 1), (2, 2)}:
            raise ValueError(f"unsupported crosstalk shape {shape}")
        if self.impacting & self.impacted:
            raise ValueError("impacting and impacted sets overlap")

    @property
    def involved(self) -> frozenset[int]:
        return self.impacting | self.impacted

    def sort_key(self) -> tuple:
        """Descending-score processing order with a deterministic tie-break."""
        return (-self.score, tuple(sorted(self.impacting)), tuple(sorted(self.impacted)))


@dataclass(frozen=True)
class UserComponent:
    """Qubits held by one user, tagged with the user's trust class."""

    trust: Trust
    qubits: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", frozenset(self.qubits))
        if not self.qubits:
            raise ValueError("a user component cannot be empty")

    def sort_key(self) -> tuple:
        return (self.trust.value, tuple(sorted(self.qubits)))


@dataclass(frozen=True)
class SizeRequests:
    """Requested circuit sizes per trust class.

    Requests are ordered multisets: two users may ask for equal sizes.
    ``idle_size``, when set, is the synthetic untrusted request absorbing
    the otherwise unused qubits (see :func:`qaiccc.allocator.update_sizes`).
    """

    trusted: tuple[int, ...] = ()
    untrusted: tuple[int, ...] = ()
    idle_size: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "trusted", tuple(self.trusted))
        object.__setattr__(self, "untrusted", tuple(self.untrusted))
        for size in (*self.trusted, *self.untrusted):
            if size <= 0:
                raise ValueError("request sizes must be positive")
        if self.idle_size is not None and self.idle_size <= 0:
            raise ValueError("idle size must be positive")

    def for_trust(self, trust: Trust) -> tuple[int, ...]:
        """Request sizes of one class; the idle request counts as untrusted."""
        if trust is Trust.TRUSTED:
            return self.trusted
        if self.idle_size is None:
            return self.untrusted
        return self.untrusted + (self.idle_size,)

    def total(self) -> int:
        return sum(self.for_trust(Trust.TRUSTED)) + sum(self.for_trust(Trust.UNTRUSTED))


#: Attribute-free normal form of an allocation: the sorted unallocated
#: qubits plus the components as (trust value, sorted qubits) pairs in
#: canonical order.  Two allocations share a key iff their structure is
#: identical.
CanonicalKey = tuple[tuple[int, ...], tuple[tuple[str, tuple[int, ...]], ...]]


@dataclass(frozen=True)
class Allocation:
    """A (possibly partial) assignment of platform qubits to users.

    ``components`` is stored in canonical order so equality-of-structure
    is positional.  The search attributes (``score``, ``penalty``,
    ``incidental``, ``last_rate``) ride along but never enter the
    canonical key.
    """

    unallocated: frozenset[int]
    components: tuple[UserComponent, ...] = ()
    score: float = 0.0
    penalty: float = 0.0
    incidental: tuple[CrosstalkRate, ...] = ()
    last_rate: CrosstalkRate | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "unallocated", frozenset(self.unallocated))
        ordered = tuple(sorted(self.components, key=UserComponent.sort_key))
        object.__setattr__(self, "components", ordered)
        object.__setattr__(self, "incidental", tuple(self.incidental))

    def components_of(self, trust: Trust) -> tuple[UserComponent, ...]:
        return tuple(c for c in self.components if c.trust is trust)


def canonicalize(allocation: Allocation) -> CanonicalKey:
    """Total-order normal form of an allocation's structure.

    Attributes are excluded by construction: perturbing score, penalty,
    incidental, or last_rate never changes the key.
    """
    return (
        tuple(sorted(allocation.unallocated)),
        tuple((c.trust.value, tuple(sorted(c.qubits))) for c in allocation.components),
    )


#: An allocation's bitmask form in the search: the unallocated mask and one ``(trust, mask,
#: size)`` per component, by trust and then lowest qubit.  Components are disjoint, so this
#: is :func:`canonicalize`'s order, and a state is its own structural key.
SearchState = tuple[int, tuple[tuple[Trust, int, int], ...]]


def component_order(component: tuple[Trust, int, int]) -> tuple[Trust, int]:
    """Sort key of a state component: trust (a ``str``), then its lowest qubit."""
    trust, mask, _ = component
    return trust, mask & -mask


def state_of(allocation: Allocation) -> SearchState:
    """The search state of an allocation's structure (attributes are dropped)."""
    components = [(c.trust, qubit_mask(c.qubits), len(c.qubits)) for c in allocation.components]
    return qubit_mask(allocation.unallocated), tuple(sorted(components, key=component_order))


def allocation_of(state: SearchState) -> Allocation:
    """The attribute-free allocation of a search state."""
    free, components = state
    return Allocation(
        unallocated=mask_qubits(free),
        components=tuple(UserComponent(trust, mask_qubits(mask)) for trust, mask, _ in components),
    )


def dedup_allocations(allocations: Iterable[Allocation]) -> list[Allocation]:
    """Drop structural duplicates, keeping the first occurrence of each key."""
    seen: set[CanonicalKey] = set()
    out: list[Allocation] = []
    for alloc in allocations:
        key = canonicalize(alloc)
        if key not in seen:
            seen.add(key)
            out.append(alloc)
    return out


def validate_allocation(allocation: Allocation, graph: ConnectivityGraph) -> list[str]:
    """Structural diagnostics: disjointness, coverage, and connectivity.

    Returns one message per violated invariant; an empty list means the
    allocation is structurally valid for ``graph``.
    """
    violations: list[str] = []
    all_qubits = graph.qubits

    groups: list[tuple[str, frozenset[int]]] = [("unallocated", allocation.unallocated)]
    groups += [(f"component {sorted(c.qubits)}", c.qubits) for c in allocation.components]

    for name, qubits in groups:
        stray = qubits - all_qubits
        if stray:
            violations.append(f"{name} uses unknown qubits {sorted(stray)}")

    covered: set[int] = set()
    for name, qubits in groups:
        overlap = covered & qubits
        if overlap:
            violations.append(f"{name} overlaps earlier groups on {sorted(overlap)}")
        covered |= qubits
    if covered != set(all_qubits):
        missing = set(all_qubits) - covered
        if missing:
            violations.append(f"qubits {sorted(missing)} are neither allocated nor unallocated")

    for comp in allocation.components:
        if not graph.is_connected(comp.qubits):
            violations.append(f"component {sorted(comp.qubits)} is not connected")

    return violations


def sort_rates(rates: Sequence[CrosstalkRate]) -> tuple[CrosstalkRate, ...]:
    """Processing order: decreasing score, ties by qubit-set lexicographic order."""
    return tuple(sorted(rates, key=CrosstalkRate.sort_key))

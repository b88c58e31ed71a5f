"""Domain types for crosstalk-aware qubit allocation.

Qubits are plain non-negative integers indexing vertices of the platform
connectivity graph.  All types here are immutable values.  The search in
:mod:`qaiccc.allocator` runs on bitmask states and returns each member
as its state and attribute record; :mod:`qaiccc.selection` ranks those
pairs and builds an :class:`Allocation` (:func:`allocation_of`) only for
the entries it walks.

Inside the searches, qubit sets are also handled as ``int`` bitmasks (bit
``q`` set means qubit ``q`` is in the set); the helpers for them live
here, next to :attr:`ConnectivityGraph.adjacency_masks`.
"""

from __future__ import annotations

import sys
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InsufficientQubitsError


def qubit_mask(qubits: Iterable[int]) -> int:
    """Bitmask of non-negative qubit indices."""
    out = 0
    for q in qubits:
        out |= 1 << q
    return out


def mask_bits(mask: int) -> tuple[int, ...]:
    """The qubits of a bitmask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_qubits(mask: int) -> frozenset[int]:
    """The qubits of a bitmask."""
    return frozenset(mask_bits(mask))


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


def is_int(value: object) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


class Record:
    """Base of the package's immutable values: what a frozen dataclass gives, written out.

    Building classes through ``dataclasses`` loads ``inspect`` and ``ast``
    and runs ``exec`` for every generated method, on every start.  A
    subclass names its fields in ``_fields``, keeps them in ``__slots__``
    (unless a ``cached_property`` needs a ``__dict__``) and sets each once
    in ``__init__`` with ``object.__setattr__``.  Equality and hashing read
    the fields and hold only between instances of one class, ``repr`` is
    ``Name(field=value, ...)``, assignment and deletion raise
    AttributeError, and a copy or pickle is rebuilt by ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class ConnectivityGraph(Record):
    """Undirected coupling map of the platform.

    ``edges`` holds normalized pairs ``(a, b)`` with ``a < b``; a
    ``vertex_count`` or endpoint that is not an ``int`` (``bool`` counts as
    not one), self loops and out-of-range endpoints are rejected at
    construction.
    """

    _fields = ("vertex_count", "edges")
    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]) -> None:
        if not is_int(vertex_count):
            raise TypeError(f"vertex_count must be an int, not {vertex_count!r}")
        if vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        normalized = set()
        for edge in edges:
            a, b = edge
            if not (is_int(a) and is_int(b)):
                raise TypeError(f"edge {edge} has an endpoint that is not an int")
            if a == b:
                raise ValueError(f"self loop on qubit {a}")
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge {edge} has an endpoint outside 0..{vertex_count - 1}")
            normalized.add((min(a, b), max(a, b)))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(normalized))

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbour bitmask per qubit: bit ``n`` of entry ``q`` is set iff q-n is an edge."""
        masks = [0] * self.vertex_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    @property
    def qubits(self) -> frozenset[int]:
        return frozenset(range(self.vertex_count))

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        """The qubit's neighbours, lowest first; IndexError for a qubit outside the platform."""
        if not 0 <= qubit < self.vertex_count:
            raise IndexError(f"qubit {qubit} is outside 0..{self.vertex_count - 1}")
        return mask_bits(self.adjacency_masks[qubit])

    def is_connected(self, qubits: Iterable[int]) -> bool:
        """True when ``qubits`` induces a connected subgraph (or is empty).

        A set naming a qubit outside ``0..vertex_count-1`` is not connected.
        """
        mask = 0
        for q in qubits:
            if not 0 <= q < self.vertex_count:
                return False
            mask |= 1 << q
        return mask_region(mask & -mask, mask, self.adjacency_masks) == mask


class CrosstalkRate(Record):
    """One crosstalk measurement: ``impacting`` qubits perturb ``impacted`` ones.

    The composite ``score`` is dimensionless, finite, and non-negative,
    an ``int`` or a ``float``; the qubits are ``int`` values.  A ``bool``
    counts as neither, and a value of the wrong type raises TypeError.
    Only the 1-to-1, 2-to-1, and 2-to-2 shapes occur; the union of the two
    qubit groups must additionally induce a connected subgraph of the
    platform, which is checked where a graph is in scope (see
    :mod:`qaiccc.ingest`).
    """

    __slots__ = _fields = ("score", "impacting", "impacted")
    score: float
    impacting: frozenset[int]
    impacted: frozenset[int]

    def __init__(self, score: float, impacting: Iterable[int], impacted: Iterable[int]) -> None:
        impacting, impacted = frozenset(impacting), frozenset(impacted)
        for q in (*impacting, *impacted):
            if not is_int(q):
                raise TypeError(f"rate qubit must be an int, not {q!r}")
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise TypeError(f"rate score must be a number, not {score!r}")
        if not 0 <= score <= sys.float_info.max:  # NaN, inf and ints past every float fail
            raise ValueError("rate score must be a finite non-negative number")
        shape = (len(impacting), len(impacted))
        if shape not in {(1, 1), (2, 1), (2, 2)}:
            raise ValueError(f"unsupported crosstalk shape {shape}")
        if impacting & impacted:
            raise ValueError("impacting and impacted sets overlap")
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "impacting", impacting)
        object.__setattr__(self, "impacted", impacted)

    @property
    def involved(self) -> frozenset[int]:
        return self.impacting | self.impacted

    def sort_key(self) -> tuple:
        """Descending-score processing order with a deterministic tie-break."""
        return (-self.score, tuple(sorted(self.impacting)), tuple(sorted(self.impacted)))


class UserComponent(Record):
    """Qubits held by one user, tagged with the user's trust class."""

    __slots__ = _fields = ("trust", "qubits")
    trust: Trust
    qubits: frozenset[int]

    def __init__(self, trust: Trust, qubits: Iterable[int]) -> None:
        qubits = frozenset(qubits)
        if not qubits:
            raise ValueError("a user component cannot be empty")
        object.__setattr__(self, "trust", trust)
        object.__setattr__(self, "qubits", qubits)

    def sort_key(self) -> tuple:
        return (self.trust.value, tuple(sorted(self.qubits)))


#: A request's name: ("trusted" | "untrusted" | "idle", position within its class).
RequestLabel = tuple[str, int]


class SizeRequests(Record):
    """Requested circuit sizes per trust class, and every rule about them.

    Requests are ordered multisets: two users may ask for equal sizes.
    Every size is a positive ``int`` (a ``bool`` counts as not one, and
    raises TypeError).
    ``idle_size``, when set, is the synthetic request absorbing the
    otherwise unused qubits (:meth:`with_idle`).  This class alone decides
    that the idle request is untrusted and comes last (:meth:`for_trust`,
    :meth:`slots`).
    """

    __slots__ = _fields = ("trusted", "untrusted", "idle_size")
    trusted: tuple[int, ...]
    untrusted: tuple[int, ...]
    idle_size: int | None

    def __init__(
        self, trusted: Iterable[int] = (), untrusted: Iterable[int] = (), idle_size: int | None = None
    ) -> None:
        trusted, untrusted = tuple(trusted), tuple(untrusted)
        for size in (*trusted, *untrusted):
            if not is_int(size):
                raise TypeError(f"request size must be an int, not {size!r}")
            if size <= 0:
                raise ValueError("request sizes must be positive")
        if idle_size is not None:
            if not is_int(idle_size):
                raise TypeError(f"idle size must be an int, not {idle_size!r}")
            if idle_size <= 0:
                raise ValueError("idle size must be positive")
        object.__setattr__(self, "trusted", trusted)
        object.__setattr__(self, "untrusted", untrusted)
        object.__setattr__(self, "idle_size", idle_size)

    def for_trust(self, trust: Trust) -> tuple[int, ...]:
        """Request sizes of one class; the idle request counts as untrusted."""
        if trust is Trust.TRUSTED:
            return self.trusted
        if self.idle_size is None:
            return self.untrusted
        return self.untrusted + (self.idle_size,)

    def total(self) -> int:
        return sum(self.for_trust(Trust.TRUSTED)) + sum(self.for_trust(Trust.UNTRUSTED))

    def with_idle(self, vertex_count: int) -> SizeRequests:
        """These requests with the idle request added when some qubits would stay unused.

        The idle user absorbs ``vertex_count - total`` qubits so that every
        qubit ends up allocated and the unused ones stay connected and ready
        for future users.  When the requests already cover the platform they
        are returned unchanged.  Raises :class:`InsufficientQubitsError` when
        they need more qubits than ``vertex_count``, and ValueError when the
        idle request is already set but the requests fall short.
        """
        total = self.total()
        if total > vertex_count:
            raise InsufficientQubitsError(
                f"requests need {total} qubits but the platform has {vertex_count}"
            )
        if total == vertex_count:
            return self
        if self.idle_size is not None:
            raise ValueError("idle request already set but requests do not cover the platform")
        return SizeRequests(self.trusted, self.untrusted, vertex_count - total)

    def slots(self) -> tuple[tuple[RequestLabel, Trust, int], ...]:
        """Every request with its label and class: trusted, then untrusted, the idle one last."""
        slots: list[tuple[RequestLabel, Trust, int]] = []
        slots += [(("trusted", i), Trust.TRUSTED, s) for i, s in enumerate(self.trusted)]
        slots += [(("untrusted", i), Trust.UNTRUSTED, s) for i, s in enumerate(self.untrusted)]
        if self.idle_size is not None:
            slots.append((("idle", 0), Trust.UNTRUSTED, self.idle_size))
        return tuple(slots)

    def fits(self, trust: Trust, component_sizes: Sequence[int]) -> bool:
        """Can each component of ``trust`` take its own request of that class, at least its size?

        A component of size ``c`` fits exactly the requests of size
        ``>= c``, so the bipartite matching degenerates to a sorted
        comparison: align components and requests in decreasing size and
        require element-wise fit.
        """
        requests = self.for_trust(trust)
        if len(component_sizes) > len(requests):
            return False
        comps = sorted(component_sizes, reverse=True)
        return all(c <= r for c, r in zip(comps, sorted(requests, reverse=True)))


#: Attribute-free normal form of an allocation: the sorted unallocated
#: qubits plus the components as (trust value, sorted qubits) pairs in
#: canonical order.  Two allocations share a key iff their structure is
#: identical.
CanonicalKey = tuple[tuple[int, ...], tuple[tuple[str, tuple[int, ...]], ...]]


class Allocation(Record):
    """A (possibly partial) assignment of platform qubits to users.

    ``components`` is stored in canonical order so equality-of-structure
    is positional.  The search attributes (``score``, ``penalty``,
    ``incidental``, ``last_rate``) ride along but never enter the
    canonical key.
    """

    __slots__ = _fields = (
        "unallocated", "components", "score", "penalty", "incidental", "last_rate"
    )
    unallocated: frozenset[int]
    components: tuple[UserComponent, ...]
    score: float
    penalty: float
    incidental: tuple[CrosstalkRate, ...]
    last_rate: CrosstalkRate | None

    def __init__(
        self,
        unallocated: Iterable[int],
        components: Iterable[UserComponent] = (),
        score: float = 0.0,
        penalty: float = 0.0,
        incidental: Iterable[CrosstalkRate] = (),
        last_rate: CrosstalkRate | None = None,
    ) -> None:
        object.__setattr__(self, "unallocated", frozenset(unallocated))
        object.__setattr__(
            self, "components", tuple(sorted(components, key=UserComponent.sort_key))
        )
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "penalty", penalty)
        object.__setattr__(self, "incidental", tuple(incidental))
        object.__setattr__(self, "last_rate", last_rate)

    def components_of(self, trust: Trust) -> tuple[UserComponent, ...]:
        return tuple(c for c in self.components if c.trust is trust)


def canonicalize(allocation: Allocation) -> CanonicalKey:
    """Total-order normal form of an allocation's structure: :func:`state_key` of its state.

    Attributes are excluded by construction: perturbing score, penalty,
    incidental, or last_rate never changes the key.
    """
    return state_key(state_of(allocation))


#: One user in the search: ``(trust, qubit mask)``; its size is the mask's bit count.
#: ``(trust, 0)`` names a user of that class not yet given any qubit.
StateComponent = tuple[Trust, int]

#: An allocation's bitmask form in the search: the unallocated mask and one component
#: per user, by trust and then lowest qubit.  Components are disjoint, so this is
#: :func:`canonicalize`'s order, and a state is its own structural key.
SearchState = tuple[int, tuple[StateComponent, ...]]


def component_order(component: StateComponent) -> tuple[Trust, int]:
    """Sort key of a state component: trust (a ``str``), then its lowest qubit."""
    trust, mask = component
    return trust, mask & -mask


def state_key(state: SearchState) -> CanonicalKey:
    """The canonical key of a search state's structure (see :data:`CanonicalKey`)."""
    free, components = state
    return mask_bits(free), tuple((trust.value, mask_bits(mask)) for trust, mask in components)


def state_of(allocation: Allocation) -> SearchState:
    """The search state of an allocation's structure (attributes are dropped).

    An allocation's components are in canonical order, which sorts them
    by :func:`component_order` too.
    """
    components = tuple([(c.trust, qubit_mask(c.qubits)) for c in allocation.components])
    return qubit_mask(allocation.unallocated), components


def allocation_of(
    state: SearchState,
    score: float = 0.0,
    penalty: float = 0.0,
    incidental: tuple[CrosstalkRate, ...] = (),
    last_rate: CrosstalkRate | None = None,
) -> Allocation:
    """The allocation of a search state, carrying the given search attributes."""
    free, components = state
    held = [UserComponent(trust, mask_qubits(mask)) for trust, mask in components]
    return Allocation(mask_qubits(free), held, score, penalty, incidental, last_rate)


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

    covered: frozenset[int] = frozenset()
    for name, qubits in groups:
        stray = qubits - all_qubits
        if stray:
            violations.append(f"{name} uses unknown qubits {sorted(stray)}")
        overlap = covered & qubits
        if overlap:
            violations.append(f"{name} overlaps earlier groups on {sorted(overlap)}")
        covered |= qubits
    missing = all_qubits - covered
    if missing:
        violations.append(f"qubits {sorted(missing)} are neither allocated nor unallocated")

    for comp in allocation.components:
        if not graph.is_connected(comp.qubits):
            violations.append(f"component {sorted(comp.qubits)} is not connected")

    return violations


def sort_rates(rates: Sequence[CrosstalkRate]) -> tuple[CrosstalkRate, ...]:
    """Processing order: decreasing score, ties by qubit-set lexicographic order."""
    return tuple(sorted(rates, key=CrosstalkRate.sort_key))


def check_score_total(rates: Sequence[CrosstalkRate]) -> None:
    """Refuse rates whose scores, summed in processing order, reach ``sys.float_info.max``.

    Every penalty is the float sum of some of these scores, taken in the
    same order, so it is no larger than this total; and the start score,
    just above the top rate, is finite while the top rate is below the
    maximum.  Below it, no score or penalty overflows to ``inf``.
    Raises ValueError naming the total.
    """
    total = 0.0
    for rate in sort_rates(rates):
        total += rate.score
    if not total < sys.float_info.max:
        raise ValueError(
            f"the rate scores sum to {total:g} in processing order, "
            f"which is not below the largest float {sys.float_info.max:g}"
        )

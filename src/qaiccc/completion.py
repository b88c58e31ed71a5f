"""Exact-size completion of partial allocations.

Every user's qubits must form a connected component of exactly the
requested size, and after the idle request is in place the request sizes
sum to the platform size, so a completed allocation covers every qubit.

Inside this module qubit sets are ``int`` bitmasks (bit ``q`` set means
qubit ``q`` is in the set), as are the arguments of :func:`decide` and
:func:`connected_supersets`; the other public functions take and return
``frozenset`` values.  Completion has two parts:

* an exact **decider** (:func:`decide` on a bitmask state, and
  :func:`can_complete` on an :class:`Allocation`).  It first grows each
  existing component, in component order, into each distinct open
  request of its trust class that is large enough, and then tiles the
  remaining free qubits with fresh blocks anchored on the lowest free
  qubit, branching over distinct sizes only.  A tiling state in which
  some connected free region is smaller than the smallest open request
  is dropped, and failed states are remembered for the rest of the call.
  It answers whether *any* completion exists.
* a constructive **walk** (:func:`complete_allocation`).  It visits
  request slots in declared order (trusted, then untrusted, idle last),
  offers each slot its existing components before fresh blocks, and
  enumerates qubit sets in the fixed order of
  :func:`connected_supersets`.  It enters only the first choice the
  decider accepts, so it never backtracks, and it returns the first
  completion in that order.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .model import (
    Allocation,
    ConnectivityGraph,
    SizeRequests,
    Trust,
    UserComponent,
    mask_neighborhood,
    mask_qubits,
    mask_region,
    qubit_mask,
)

#: ("trusted" | "untrusted" | "idle", position within its class)
RequestLabel = tuple[str, int]

#: An existing component still to be grown: (trust, qubit mask, size).
_Pending = tuple[Trust, int, int]


def request_slots(sizes: SizeRequests) -> tuple[tuple[RequestLabel, Trust, int], ...]:
    """Positional request list; the idle request, when present, comes last."""
    slots: list[tuple[RequestLabel, Trust, int]] = []
    slots += [(("trusted", i), Trust.TRUSTED, s) for i, s in enumerate(sizes.trusted)]
    slots += [(("untrusted", i), Trust.UNTRUSTED, s) for i, s in enumerate(sizes.untrusted)]
    if sizes.idle_size is not None:
        slots.append((("idle", 0), Trust.UNTRUSTED, sizes.idle_size))
    return tuple(slots)


def connected_supersets(
    base: int, target: int, available: int, adjacency: Sequence[int]
) -> Iterator[int]:
    """Connected supersets of ``base`` with ``target`` qubits inside ``base | available``.

    All sets are bitmasks; ``adjacency[q]`` is the neighbour mask of
    qubit ``q`` (:attr:`ConnectivityGraph.adjacency_masks`).  ``base``
    must be non-empty.  Classic include/exclude enumeration on the lowest
    frontier qubit, grown from the connected region of ``base`` that holds
    its lowest qubit: each superset is produced exactly once, in a fixed
    order (the branch that takes the qubit comes first).  A qubit of
    ``base`` is never excluded, and a branch stops once the ``base``
    qubits it still lacks no longer fit in ``target``.  On a connected
    ``base`` these two rules never fire.
    """
    start = mask_region(base & -base, base, adjacency)
    lacking = base & ~start
    count = start.bit_count()
    if count + lacking.bit_count() > target:
        return
    stack = [(start, mask_neighborhood(start, adjacency), (available | base) & ~start, count)]
    while stack:
        current, reach, allowed, count = stack.pop()
        if count == target:
            yield current
            continue
        frontier = reach & allowed
        if not frontier or count + allowed.bit_count() < target:
            continue
        pick = frontier & -frontier
        allowed ^= pick
        if not pick & base:
            stack.append((current, reach, allowed, count))
            if lacking and count + 1 + (base & ~current).bit_count() > target:
                continue
        stack.append((current | pick, reach | adjacency[pick.bit_length() - 1], allowed, count + 1))


def _blocks(available: int, size: int, adjacency: Sequence[int]) -> Iterator[int]:
    """Connected ``size``-subsets of ``available``, by lowest qubit, then in superset order."""
    rest = available
    while rest:
        anchor = rest & -rest
        rest ^= anchor
        yield from connected_supersets(anchor, size, rest, adjacency)


def connected_subsets(
    available: frozenset[int], size: int, graph: ConnectivityGraph
) -> Iterator[frozenset[int]]:
    """All connected ``size``-subsets of ``available``, each exactly once."""
    for block in _blocks(qubit_mask(available), size, graph.adjacency_masks):
        yield mask_qubits(block)


def _regions_fit(free: int, smallest: int, adjacency: Sequence[int]) -> bool:
    """False when some connected region of ``free`` has fewer than ``smallest`` qubits."""
    while free:
        region = mask_region(free & -free, free, adjacency)
        if region.bit_count() < smallest:
            return False
        free &= ~region
    return True


def _tileable(free: int, sizes: tuple[int, ...], adjacency: Sequence[int], failed: set) -> bool:
    """Can ``free`` be split into connected blocks with exactly the ``sizes`` (sorted)?"""
    if not free:
        return not sizes
    key = (free, sizes)
    if key in failed:
        return False
    if sizes and _regions_fit(free, sizes[0], adjacency):
        anchor = free & -free
        for i, size in enumerate(sizes):
            if i and sizes[i - 1] == size:
                continue
            rest = sizes[:i] + sizes[i + 1 :]
            for block in connected_supersets(anchor, size, free, adjacency):
                if _tileable(free & ~block, rest, adjacency, failed):
                    return True
    failed.add(key)
    return False


def _completable(
    free: int,
    pending: tuple[_Pending, ...],
    slots: tuple[tuple[Trust, int], ...],
    adjacency: Sequence[int],
    failed: set,
) -> bool:
    """The decider: can ``pending`` plus fresh blocks fill the open ``slots`` (sorted) exactly?"""
    if not pending:
        return _tileable(free, tuple(sorted(size for _, size in slots)), adjacency, failed)
    key = (free, pending, slots)
    if key in failed:
        return False
    trust, base, base_size = pending[0]
    rest = pending[1:]
    for i, (slot_trust, size) in enumerate(slots):
        if slot_trust is not trust or size < base_size or (i and slots[i - 1] == slots[i]):
            continue
        remaining = slots[:i] + slots[i + 1 :]
        for grown in connected_supersets(base, size, free, adjacency):
            if _completable(free & ~grown, rest, remaining, adjacency, failed):
                return True
    failed.add(key)
    return False


def _open(slots: Sequence[tuple[RequestLabel, Trust, int]]) -> tuple[tuple[Trust, int], ...]:
    """The open requests of ``slots`` as the decider's sorted multiset."""
    return tuple(sorted((trust, size) for _, trust, size in slots))


def _start(
    allocation: Allocation, graph: ConnectivityGraph, sizes: SizeRequests
) -> tuple[int, tuple[_Pending, ...]] | None:
    """Free mask and pending components, or None when completion is ruled out up front.

    Completion needs the request sizes to sum to the platform size, the
    groups of the allocation to partition the platform, and every
    component to be connected already.
    """
    if sizes.total() != graph.vertex_count:
        return None
    adjacency = graph.adjacency_masks
    free = covered = graph.mask_of(allocation.unallocated)
    if free is None:
        return None
    pending: list[_Pending] = []
    for comp in allocation.components:
        mask = graph.mask_of(comp.qubits)
        if mask is None or covered & mask:
            return None
        if mask_region(mask & -mask, mask, adjacency) != mask:
            return None
        covered |= mask
        pending.append((comp.trust, mask, len(comp.qubits)))
    if covered.bit_count() != graph.vertex_count:
        return None
    return free, tuple(pending)


def complete_allocation(
    allocation: Allocation, graph: ConnectivityGraph, sizes: SizeRequests
) -> tuple[Allocation, dict[RequestLabel, frozenset[int]]] | None:
    """Grow ``allocation`` so every request gets a connected component of its exact size.

    Returns the completed allocation (attributes carried over) and the
    request-to-qubits assignment, or None when no completion exists.
    Completion requires the request sizes to sum to the platform size,
    i.e. ``sizes`` after the idle request has been added.
    """
    start = _start(allocation, graph, sizes)
    if start is None:
        return None
    free, pending = start
    slots = request_slots(sizes)
    adjacency = graph.adjacency_masks
    failed: set = set()
    if not _completable(free, pending, _open(slots), adjacency, failed):
        return None

    chosen: list[int] = []
    for index, (_, trust, size) in enumerate(slots):
        after = _open(slots[index + 1 :])
        grown = (
            (block, pending[:i] + pending[i + 1 :])
            for i, (comp_trust, base, _) in enumerate(pending)
            if comp_trust is trust
            for block in connected_supersets(base, size, free, adjacency)
        )
        fresh = ((block, pending) for block in _blocks(free, size, adjacency))
        for block, rest in itertools.chain(grown, fresh):
            if _completable(free & ~block, rest, after, adjacency, failed):
                break
        else:  # pragma: no cover - the decider accepted the state this slot starts from
            raise AssertionError("completion walk found no accepted choice")
        chosen.append(block)
        free &= ~block
        pending = rest

    assignment = {label: mask_qubits(mask) for (label, _, _), mask in zip(slots, chosen)}
    completed = Allocation(
        unallocated=frozenset(),
        components=tuple(UserComponent(trust, assignment[label]) for label, trust, _ in slots),
        score=allocation.score,
        penalty=allocation.penalty,
        incidental=allocation.incidental,
        last_rate=allocation.last_rate,
    )
    return completed, assignment


def decide(
    free: int, pending: tuple[_Pending, ...], graph: ConnectivityGraph, sizes: SizeRequests
) -> bool:
    """The decider on a bitmask state: can it be completed to exactly ``sizes``?

    ``sizes`` includes the idle request; ``pending`` holds the connected
    components as ``(trust, mask, size)``, grown in that order.
    """
    return _completable(free, pending, _open(request_slots(sizes)), graph.adjacency_masks, set())


def can_complete(allocation: Allocation, graph: ConnectivityGraph, sizes: SizeRequests) -> bool:
    """True when :func:`complete_allocation` would succeed."""
    start = _start(allocation, graph, sizes)
    return start is not None and decide(*start, graph, sizes)

"""Exact-size completion of partial allocations.

Every user's qubits must form a connected component of exactly the
requested size, and after the idle request is in place the request sizes
sum to the platform size, so a completed allocation covers every qubit.

Qubit sets are ``int`` bitmasks (bit ``q`` set means qubit ``q`` is in
the set) throughout this module, the arguments and results of
:func:`decide`, :func:`connected_supersets` and :func:`connected_blocks`
among them.  Only the :class:`Allocation` boundary,
:func:`complete_allocation` and :func:`can_complete`, takes and returns
``frozenset`` values.  Completion has three parts:

* an exact **decider** (:func:`decide` on a bitmask state, the one
  decider function: the search and the walk below both call it).  It
  first grows each existing component, in component order, into each
  distinct open request of its trust class that is large enough, and
  then tiles the remaining free qubits with fresh blocks anchored on the
  lowest free qubit, branching over distinct sizes only.  A tiling state
  in which some connected free region is smaller than the smallest open
  request is dropped.  It is one depth-first search over an explicit stack of
  child generators, as the index and the oracle walk, so no platform is
  too large for it.  Every sub-state's verdict, success or failure, goes into
  a table that :func:`decide` takes, keyed with the open requests, so a
  run can share it across calls: a sub-state reached again, from this
  state or another, is answered from the table.  The key must hold the
  open requests, because growth paths that use different request sizes
  of the same total over the same qubits meet in one ``(free, pending)``.
  It answers whether *any* completion exists.
* an **index** of the complete set (:func:`completion_index`).  It
  enumerates every complete structure of a set of requests, anchoring
  each block on the lowest free qubit and branching over distinct
  ``(trust, size)`` requests, and gives up once its work passes
  :data:`INDEX_BUDGET`: one unit per candidate block drawn, and a
  block's size for each distinct ``(trust, block)`` it files.  It files
  each such block, with the structures that hold it, under every qubit of
  the block and the block's trust, so the table grows linearly with the
  blocks.  A state can be completed exactly when one structure holds each
  of its components inside a block of its own, of the same trust, so
  :meth:`CompletionIndex.admits` gives the decider's verdict from bitsets
  over the structures.  The table is only read once built.
* a constructive **walk** (:func:`complete_allocation`).  It visits
  request slots in declared order (trusted, then untrusted, idle last),
  offers each slot its existing components before fresh blocks, and
  enumerates qubit sets in the fixed order of
  :func:`connected_supersets`.  It enters only the first choice the
  decider accepts, so it never backtracks, and it returns the first
  completion in that order.  The walk keeps a private verdict table for
  its one call, which all its :func:`decide` calls share, and
  :func:`can_complete` on an :class:`Allocation` is whether the walk
  succeeds.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .model import (
    Allocation,
    ConnectivityGraph,
    SizeRequests,
    StateComponent,
    Trust,
    UserComponent,
    mask_neighborhood,
    mask_qubits,
    mask_region,
    state_of,
    validate_allocation,
)

#: ("trusted" | "untrusted" | "idle", position within its class)
RequestLabel = tuple[str, int]


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
    must be non-empty and connected: an anchor qubit, or a component,
    which a state or a valid allocation holds connected.  Classic
    include/exclude enumeration on the lowest frontier qubit: each
    superset is produced exactly once, in a fixed order (the branch that
    takes the qubit comes first).  Disconnected join bases are
    :func:`qaiccc.allocator._grown`'s.
    """
    count = base.bit_count()
    if count > target:
        return
    if count == target:
        yield base
        return
    # Every set on the stack is short of ``target``: a set that reaches it is
    # yielded as it is made, which is where popping it next would yield it,
    # and a branch left with no frontier is never pushed.
    stack = [(base, mask_neighborhood(base, adjacency), available & ~base, count)]
    while stack:
        current, reach, allowed, count = stack.pop()
        frontier = reach & allowed
        if not frontier or count + allowed.bit_count() < target:
            continue
        pick = frontier & -frontier
        allowed ^= pick
        if frontier != pick:
            stack.append((current, reach, allowed, count))
        if count + 1 == target:
            yield current | pick
        else:
            stack.append((current | pick, reach | adjacency[pick.bit_length() - 1], allowed, count + 1))


def connected_blocks(available: int, size: int, adjacency: Sequence[int]) -> Iterator[int]:
    """Connected ``size``-subsets of ``available``, each exactly once.

    Bitmasks, in a fixed order: by lowest qubit, then in
    :func:`connected_supersets` order.
    """
    rest = available
    while rest:
        anchor = rest & -rest
        rest ^= anchor
        yield from connected_supersets(anchor, size, rest, adjacency)


def _regions_fit(free: int, smallest: int, adjacency: Sequence[int]) -> bool:
    """False when some connected region of ``free`` has fewer than ``smallest`` qubits."""
    while free:
        region = mask_region(free & -free, free, adjacency)
        if region.bit_count() < smallest:
            return False
        free &= ~region
    return True


def _tilings(free: int, sizes: tuple[int, ...], adjacency: Sequence[int]) -> Iterator[tuple]:
    """The children of a tiling state: a block on the lowest free qubit, of each distinct size."""
    if not sizes or not _regions_fit(free, sizes[0], adjacency):
        return
    anchor = free & -free
    for i, size in enumerate(sizes):
        if i and sizes[i - 1] == size:
            continue
        rest = sizes[:i] + sizes[i + 1 :]
        for block in connected_supersets(anchor, size, free, adjacency):
            yield free & ~block, rest


def _growths(
    free: int, pending: tuple[StateComponent, ...], slots: tuple[tuple[Trust, int], ...],
    adjacency: Sequence[int],
) -> Iterator[tuple]:
    """The children of a growth state: its first component grown into each distinct open request."""
    (trust, base), rest = pending[0], pending[1:]
    base_size = base.bit_count()
    for i, (slot_trust, size) in enumerate(slots):
        if slot_trust is not trust or size < base_size or (i and slots[i - 1] == slots[i]):
            continue
        remaining = slots[:i] + slots[i + 1 :]
        if rest:
            for grown in connected_supersets(base, size, free, adjacency):
                yield free & ~grown, rest, remaining
        else:  # only fresh blocks are left: the child is a tiling state
            sizes = tuple(sorted(s for _, s in remaining))
            for grown in connected_supersets(base, size, free, adjacency):
                yield free & ~grown, sizes


#: The work :func:`completion_index` may do before it gives up: each
#: candidate block drawn costs 1, dropped or not, and each distinct
#: ``(trust, block)`` filed costs the block's size, which is the entries
#: it adds to the table.  So the table never holds more entries than the
#: budget, and a walk of many small structures and one of a few huge idle
#: blocks are refused alike: a 4,096-qubit ring with untrusted (5,) after
#: 6 candidates, a 64x64 grid with (5,5,5) after 8.
INDEX_BUDGET = 10_000

class CompletionIndex:
    """The complete structures of one set of requests, as bitsets over them.

    Bit ``i`` of every bitset stands for structure ``i``.  One table,
    filled once and only read after: ``blocks[q][trust]`` lists ``(block,
    structures)`` for each distinct block of that trust holding qubit
    ``q``, with the structures that hold the block.
    """

    __slots__ = ("count", "blocks")

    def __init__(
        self, count: int, holders: dict[tuple[Trust, int], int], vertex_count: int
    ) -> None:
        self.count = count
        self.blocks: list[dict[Trust, list[tuple[int, int]]]] = [{} for _ in range(vertex_count)]
        for (trust, block), structures in holders.items():
            for q in mask_qubits(block):
                self.blocks[q].setdefault(trust, []).append((block, structures))

    def admits(self, pending: Sequence[StateComponent]) -> bool:
        """The decider's verdict on a state whose components are ``pending``.

        True when some structure holds every component in a block of its
        own, of the component's trust: the last component has a host beside
        the others (:meth:`hosts`).  With no component, when there is any
        structure at all.
        """
        if not pending:
            return self.count > 0
        taken = 0
        for _, mask in pending:
            taken |= mask
        trust, mask = pending[-1]
        return bool(self.hosts(pending[:-1], taken, trust, mask))

    def hosts(
        self, kept: Sequence[StateComponent], taken: int, trust: Trust, held: int
    ) -> list[int]:
        """The blocks of ``trust`` that can hold a component grown from ``held``, beside ``kept``.

        ``kept`` are components of a state whose components cover
        ``taken``, and ``held`` the qubits one more component of ``trust``
        holds: the rest of ``taken`` and free qubits.  A block is listed
        when it holds ``held``, meets no kept component, and some structure
        holds it and every kept component in a block of its own, of the
        component's trust.  A structure has one block at a component's
        lowest qubit, so a kept component fits the structures of the blocks
        there that have its trust, hold all of it and meet no other part of
        ``taken``; their fits are ANDed.  Growing the component by free
        qubits cannot unseat a fit: in a structure that also holds the
        grown component, its block is apart from every kept one.  So a
        state that adds free qubits ``grown`` to the component is complete
        exactly when ``held | grown`` lies in one of the blocks listed.
        """
        common = (1 << self.count) - 1
        for kind, mask in kept:
            fit = 0
            for block, structures in self.blocks[(mask & -mask).bit_length() - 1].get(kind, ()):
                if block & taken == mask:
                    fit |= structures
            common &= fit
            if not common:
                return []
        apart = taken & ~held
        return [
            block
            for block, structures in self.blocks[(held & -held).bit_length() - 1].get(trust, ())
            if block & held == held and not block & apart and structures & common
        ]


def completion_index(
    requests: tuple[tuple[Trust, int], ...], graph: ConnectivityGraph
) -> CompletionIndex | None:
    """The index of every complete structure for ``requests`` on ``graph``.

    ``requests`` is :func:`open_requests` of every request, the idle one
    included.  Each block is anchored on the lowest free qubit, and a
    partial state branches over the distinct ``(trust, size)`` requests
    still open, so each structure is found once.  A candidate block that
    leaves a connected free region smaller than every open request is
    dropped.  The walk is a stack of per-state candidate generators, so a
    structure is filed as soon as it completes: bit ``i`` joins the
    structures of each ``(trust, block)`` of structure ``i``.  None at the
    first step that takes the work past :data:`INDEX_BUDGET` (see there);
    :func:`decide` then answers.
    """
    adjacency = graph.adjacency_masks
    budget = INDEX_BUDGET
    count = 0
    holders: dict[tuple[Trust, int], int] = {}

    def branches(free: int, left: tuple) -> Iterator[tuple]:
        anchor = free & -free
        for i, (trust, size) in enumerate(left):
            if i and left[i - 1] == left[i]:
                continue
            rest = left[:i] + left[i + 1 :]
            smallest = min(size for _, size in rest) if rest else 0
            for block in connected_supersets(anchor, size, free, adjacency):
                yield (trust, block), free & ~block, rest, smallest

    stack = [(branches((1 << graph.vertex_count) - 1, requests), None)]
    while stack:
        child = next(stack[-1][0], None)
        if child is None:
            stack.pop()
            continue
        placed, remaining, rest, smallest = child
        budget -= 1
        if remaining:
            if _regions_fit(remaining, smallest, adjacency):
                stack.append((branches(remaining, rest), placed))
        elif not rest:
            for key in [led_by for _, led_by in stack[1:]] + [placed]:
                if key not in holders:
                    budget -= key[1].bit_count()
                holders[key] = holders.get(key, 0) | 1 << count
            count += 1
        if budget < 0:
            return None
    return CompletionIndex(count, holders, graph.vertex_count)


def open_requests(
    slots: Sequence[tuple[RequestLabel, Trust, int]],
) -> tuple[tuple[Trust, int], ...]:
    """The open requests of ``slots`` as the decider's sorted multiset."""
    return tuple(sorted((trust, size) for _, trust, size in slots))


def complete_allocation(
    allocation: Allocation, graph: ConnectivityGraph, sizes: SizeRequests
) -> tuple[Allocation, dict[RequestLabel, frozenset[int]]] | None:
    """Grow ``allocation`` so every request gets a connected component of its exact size.

    Returns the completed allocation (attributes carried over) and the
    request-to-qubits assignment, or None when no completion exists.
    Completion requires the request sizes to sum to the platform size,
    i.e. ``sizes`` after the idle request has been added, and the
    allocation to be structurally valid (:func:`validate_allocation`): its
    groups partition the platform and every component is connected.
    """
    if sizes.total() != graph.vertex_count or validate_allocation(allocation, graph):
        return None
    free, pending = state_of(allocation)
    slots = request_slots(sizes)
    adjacency = graph.adjacency_masks
    verdicts: dict = {}
    if not decide(free, pending, graph, open_requests(slots), verdicts):
        return None

    chosen: list[int] = []
    for index, (_, trust, size) in enumerate(slots):
        after = open_requests(slots[index + 1 :])
        grown = (
            (block, pending[:i] + pending[i + 1 :])
            for i, (comp_trust, base) in enumerate(pending)
            if comp_trust is trust
            for block in connected_supersets(base, size, free, adjacency)
        )
        fresh = ((block, pending) for block in connected_blocks(free, size, adjacency))
        for block, rest in itertools.chain(grown, fresh):
            if decide(free & ~block, rest, graph, after, verdicts):
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
    free: int, pending: tuple[StateComponent, ...], graph: ConnectivityGraph,
    requests: tuple[tuple[Trust, int], ...], verdicts: dict,
) -> bool:
    """The decider on a bitmask state: can it be completed to exactly ``requests``?

    ``requests`` is :func:`open_requests` of the requests still open, the
    idle one included, sorted; ``pending`` holds the connected components
    as ``(trust, mask)``, grown in that order, and ``pending`` plus fresh
    blocks must fill the open requests exactly.  One depth-first search
    over an explicit stack of child generators, so no platform is too
    large to walk.  A sub-state is ``(free, pending, requests)`` while
    components are left to grow, the first one next (:func:`_growths`),
    and ``(free, sizes)`` once only fresh blocks are left to tile
    ``free``, their sizes sorted (:func:`_tilings`).  When a child is
    true, every sub-state on the stack is true; a sub-state whose children
    run out is false.  ``verdicts`` gains the verdict of every sub-state
    it works out, keyed by the sub-state, and answers the sub-states it
    already holds, so one table can serve every call on ``graph``.
    """
    adjacency = graph.adjacency_masks
    state = (free, pending, requests) if pending else (free, tuple(sorted(s for _, s in requests)))
    keys: list[tuple] = []
    walks: list[Iterator[tuple]] = []
    while True:
        # An empty tiling is complete exactly when no size is left.
        verdict = verdicts.get(state) if state[0] or len(state) == 3 else not state[1]
        if verdict:
            for key in keys:
                verdicts[key] = True
            return True
        if verdict is None:
            keys.append(state)
            walk = _growths if len(state) == 3 else _tilings
            walks.append(walk(*state, adjacency))
        while walks:
            state = next(walks[-1], None)
            if state is not None:
                break
            walks.pop()
            verdicts[keys.pop()] = False
        else:
            return False


def can_complete(allocation: Allocation, graph: ConnectivityGraph, sizes: SizeRequests) -> bool:
    """True when :func:`complete_allocation` succeeds."""
    return complete_allocation(allocation, graph, sizes) is not None

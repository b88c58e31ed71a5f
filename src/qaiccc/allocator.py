"""Population/archive search assigning qubits to users, rate by rate.

The engine keeps a population of allocations that are safe for every
crosstalk rate handled so far, working through the rates in decreasing
score order.  A population member that is unsafe for the current rate is
retired to the archive (its ``last_rate`` records where it fell) and
repair candidates are generated from it; a member that is safe stays and,
when several parties hold the rate's qubits, additionally spawns
single-owner merge candidates.  The loop stops early once the population
empties, since nothing new can be generated from an empty population.

Every generated candidate must still be completable to exact request
sizes (see :mod:`qaiccc.completion`): growing a user onto qubits whose
complement cannot host the other circuits would be withdrawn later
anyway.  That decider also refuses every size-infeasible candidate.
Candidates enter the population only if they are structurally new (one
structure never carries two attribute sets) and safe for *every* rate
handled so far, re-verified from scratch, since a repair may allocate a
connector qubit an earlier rate cares about.  Admission recomputes
score, penalty, and incidental by replaying the handled prefix against
the candidate's own structure.

The search runs on bitmask states (:data:`qaiccc.model.SearchState`),
each its own structural key.  The repair operators take and return
states and share one :class:`SearchMemo`, which :func:`allocate` creates
from the run's graph, sizes and config; the operators read those three
from the memo, so its tables are only ever read for the run they were
worked out for.  Each distinct state is decided once, each growth budget,
each :func:`connect` join and each join's region list is remembered for
the rest of the run, and the memo dies with the run.  A budget is kept
by what :func:`remain` reads, the owner's trust and size and the sorted
``(trust, size)`` shape of the state.  Each operator reads an owner's
budget once per state and hands it to every :func:`connect` call for
that owner; refusal happens in :func:`connect`, the one place that
decides a join, so a join the budget cannot take builds no join key.
The operators take the rate's masks (:func:`rate_masks`) and walk their
qubits lowest first.  A state's verdict is read from the run's index of
every complete structure (:func:`qaiccc.completion.completion_index`, built
with the memo); when the complete set is too large to enumerate or to
file, the decider works it out and the memo keeps its verdict on each
sub-state (success or failure).  A region list does not depend on the
join's state beyond ``base = owner | incoming``, the part of ``base`` and
the free qubits that base's lowest qubit reaches and the largest size the
owner's budget allows, so joins on many states share one; a join with no
room for a connector only asks whether ``base`` is connected, which is
kept by ``base``.  The regions of one join are grown one size from the
last (:func:`_grown`), so each size is walked once.  One builder
(:func:`_fused`) assembles every fused candidate, for a join's regions
and for :func:`improve_alloc`'s merges alike: each region holds its base
and adds only unallocated qubits, so the components it meets, the kept
ones and their order keys are worked out in one pass per call, and each
region's fused component is bisected into the kept components, which a
state holds in component order.  With the index, a join of many
regions is decided once: the index lists the blocks that can host the
fused user beside the kept components, and only the regions those blocks
hold are built.  Safety is read on masks
(:func:`qaiccc.safety.state_verdict`), each rate's masks worked out once
per run (:func:`rate_masks`).  Population
and archive are insertion-ordered dicts from each member's state to its
:class:`Attributes` record, and this store is the one final deduplicator
of candidates.  A state in neither is admitted once its replay of the
handled rates (:func:`replay_state`) has found it safe, with the record
that replay gives; a safe member's per-rate update reads the rate's
involved mask against the state's free mask.  No :class:`Allocation` is
built here: the outcome holds each final member as its state and
:class:`Attributes` record, and :func:`qaiccc.selection.select` builds an
allocation only for the entries it walks.  Each record is held once, by
the population and then the archive: the per-rate snapshots
(:class:`RateStep`) name states only.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple, Sequence

# ``can_complete``, ``canonicalize``, ``dedup_allocations`` and
# ``allocation_feasible`` are no longer called here; they stay bound because
# the benchmark's tracer (bench/spans.py) wraps names at this import site.
from .completion import can_complete, completion_index, decide  # noqa: F401
from .completion import open_requests, request_slots
from .errors import InsufficientQubitsError
from .model import (  # noqa: F401
    Allocation,
    ConnectivityGraph,
    CrosstalkRate,
    Record,
    SearchState,
    SizeRequests,
    StateComponent,
    Trust,
    allocation_of,
    canonicalize,
    check_score_total,
    dedup_allocations,
    is_int,
    mask_neighborhood,
    mask_region,
    qubit_mask,
    sort_rates,
    state_key,
    state_of,
)
# ``is_safe`` and ``involved_parties`` stay bound for the tracer as well; the
# search reads the rule on masks.
from .safety import involved_parties, is_safe, state_parties, state_verdict  # noqa: F401
from .sizing import allocation_feasible, remain  # noqa: F401

#: A fresh user of each class, as a :func:`connect` owner, trusted first.
_FRESH: tuple[StateComponent, ...] = ((Trust.TRUSTED, 0), (Trust.UNTRUSTED, 0))

#: The fewest regions for which a join reads the index's host blocks
#: (:meth:`~qaiccc.completion.CompletionIndex.hosts`).  A smaller join
#: judges each region's state on its own: the state is often one the run
#: has already judged, and on ``desk8-oracle`` a host list for every join
#: of two or three regions cost more than it saved.
_HOSTED_REGIONS = 4

#: Entry ``b`` is byte ``b`` with its bits in reverse order.
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class SearchConfig(Record):
    """Tuning knobs for the search.

    ``max_population`` (off by default) prunes the worst members after
    each admission round; ``max_paths_per_connect`` caps how many
    connected regions one :func:`connect` call hands on, counted in
    (size, ascending-qubit) order, since the count of connected
    extensions is exponential in the worst case.
    """

    __slots__ = _fields = ("max_population", "max_paths_per_connect")
    max_population: int | None
    max_paths_per_connect: int

    def __init__(self, max_population: int | None = None, max_paths_per_connect: int = 64) -> None:
        if max_population is not None and not is_int(max_population):
            raise TypeError(f"max_population must be an int, not {max_population!r}")
        if not is_int(max_paths_per_connect):
            raise TypeError(f"max_paths_per_connect must be an int, not {max_paths_per_connect!r}")
        if max_paths_per_connect < 1:
            raise ValueError("max_paths_per_connect must be at least 1")
        if max_population is not None and max_population < 1:
            raise ValueError("max_population must be at least 1 when set")
        object.__setattr__(self, "max_population", max_population)
        object.__setattr__(self, "max_paths_per_connect", max_paths_per_connect)


class SearchMemo:
    """One :func:`allocate` run: its graph, sizes and config, and what it has established.

    The operators read ``graph``, ``sizes`` and ``config`` from here, and
    each table is an exact function of its key given those three.
    ``states`` maps every candidate state judged on its own to itself when
    kept and to None otherwise, and every state a join's host blocks keep
    (see :func:`_fused`) to itself, so equal states are one object; a
    region those blocks refuse builds no state.  ``index`` is the
    :class:`~qaiccc.completion.CompletionIndex` of the run's ``requests``
    on the graph, built here and only read after, or None when the complete
    set is too large to enumerate or to file; only then does ``verdicts``
    fill, with the decider's verdict, success or failure, on every
    sub-state it has worked out for the run's ``requests`` (see
    :func:`completable`);
    ``joins`` the states of each :func:`connect` call whose join passed the
    owner's growth budget, by ``(state, owner, incoming)``, as the one
    tuple every later call for that join returns: :func:`connect` refuses
    a join its budget cannot take before it builds the key;
    ``budgets`` one table per sorted ``(trust, size)`` shape of a state's
    components, mapping the owner's trust and size to its :func:`remain`,
    which reads nothing else; ``shapes`` the budget table of each component
    tuple, so states of one shape share it (see :func:`_budgets`);
    ``bases`` the one region, or none, of each join ``base`` with no room
    for a connector: ``base`` itself when it is connected; ``reaches`` the
    connected region of ``within``, the free qubits and ``base``, that holds
    ``seed``, base's lowest qubit, by ``(seed, within)``; ``regions`` the
    regions of every other join, by ``(base, reach, top)``: a join's regions
    depend on nothing else, given the config's ``max_paths_per_connect``
    (see :func:`_regions`).
    """

    __slots__ = (
        "sizes", "graph", "config", "states", "requests", "index", "verdicts", "joins", "shapes",
        "budgets", "bases", "reaches", "regions",
    )

    def __init__(
        self, sizes: SizeRequests, graph: ConnectivityGraph, config: SearchConfig = SearchConfig()
    ) -> None:
        self.sizes = sizes
        self.graph = graph
        self.config = config
        self.states: dict[SearchState, SearchState | None] = {}
        self.requests = open_requests(request_slots(sizes))
        self.index = completion_index(self.requests, graph)
        self.verdicts: dict = {}
        self.joins: dict[tuple[SearchState, StateComponent, int], tuple[SearchState, ...]] = {}
        self.shapes: dict[tuple[StateComponent, ...], dict[int, int]] = {}
        self.budgets: dict[tuple[int, ...], dict[int, int]] = {}
        self.bases: dict[int, tuple[int, ...]] = {}
        self.reaches: dict[tuple[int, int], int] = {}
        self.regions: dict[tuple[int, int, int], tuple[int, ...]] = {}


def update_sizes(vertex_count: int, sizes: SizeRequests) -> SizeRequests:
    """Add the untrusted idle request when some qubits would stay unused.

    The idle user absorbs ``vertex_count - total`` qubits so that every
    qubit ends up allocated and the unused ones stay connected and ready
    for future users.  When the requests already cover the platform the
    input is returned unchanged.
    """
    total = sizes.total()
    if total > vertex_count:
        raise InsufficientQubitsError(
            f"requests need {total} qubits but the platform has {vertex_count}"
        )
    if total == vertex_count:
        return sizes
    if sizes.idle_size is not None:
        raise ValueError("idle request already set but requests do not cover the platform")
    return SizeRequests(sizes.trusted, sizes.untrusted, vertex_count - total)


def completable(state: SearchState, memo: SearchMemo) -> bool:
    """Can ``state`` be completed to the run's requests?  Read from the memo's index.

    Without an index the decider works it out, sharing the memo's verdicts.
    """
    if memo.index is not None:
        return memo.index.admits(state[1])
    return decide(*state, memo.graph, memo.requests, memo.verdicts)


def new_alloc(
    state: SearchState, owner: StateComponent, merged: int, *, memo: SearchMemo
) -> SearchState | None:
    """The state with all of the ``merged`` mask held by a single user, or None.

    Components intersecting ``merged`` are fused together with the
    unallocated qubits of ``merged``.  ``owner`` is one of them, or
    ``(trust, 0)`` naming the class of a fresh user when ``merged``
    touches no component.  The result is kept only when the fused
    component is connected, no trust classes were mixed and the
    completion decider accepts the state, which also refuses every
    size-infeasible one; whether it is new is the store's call.  It is
    :func:`_fused`'s state for the one region ``merged``, which the search
    asks for directly (:func:`improve_alloc`): its merges are connected.
    """
    fused = merged
    for _, mask in state[1]:
        if mask & merged:
            fused |= mask
    if mask_region(fused & -fused, fused, memo.graph.adjacency_masks) != fused:
        return None
    made = _fused(state, owner, merged, (merged,), memo)
    return made[0] if made else None


def connect(
    state: SearchState, owner: StateComponent, incoming: int, budget: int, *, memo: SearchMemo
) -> tuple[SearchState, ...]:
    """Ways of joining the ``incoming`` mask to ``owner`` through unallocated connectors.

    ``owner`` is a component of ``state``, or ``(trust, 0)`` for a fresh
    user of that class, and ``budget`` its growth allowance in ``state``
    (:func:`_budgets`), which the operators read once per state.  The
    connector room is ``budget`` minus the incoming qubits the owner does
    not hold; when ``incoming`` is another component, :func:`remain` still
    counts it among the class's other users although the join fuses it
    in.  A join with negative room is refused here: it is empty and builds
    no ``memo`` key.  Only connected regions are generated: connected sets
    that hold the owner's mask and ``incoming`` plus unallocated connector
    qubits, fewest connectors first and, among regions with as many
    connectors, in ascending qubit order (the order of
    ``itertools.combinations`` over the sorted connector pool).  The first
    ``max_paths_per_connect`` regions of the memo's config in that order
    each give, through :func:`_fused`, the state :func:`new_alloc` would
    give for them, kept when the decider accepts it; a region is connected
    and holds ``owner | incoming``, so its fused component is connected
    too.  Each join is worked out once per run, and every call for it
    returns the ``memo``'s own tuple.  The regions themselves depend only
    on ``owner | incoming``, the free qubits it reaches and the room, and
    the ``memo`` enumerates them once for every join that shares those.
    """
    room = budget - (incoming & ~owner[1]).bit_count()
    if room < 0:
        return ()
    key = (state, owner, incoming)
    joined = memo.joins.get(key)
    if joined is None:
        # A join without regions ends before its components are looked at.
        base = owner[1] | incoming
        regions = _regions(base, state[0], room, memo)
        joined = memo.joins[key] = _fused(state, owner, base, regions, memo) if regions else ()
    return joined


def _fused(
    state: SearchState, owner: StateComponent, base: int, regions: Sequence[int], memo: SearchMemo
) -> tuple[SearchState, ...]:
    """The kept states that give each region, a superset of ``base``, to one user.

    Every region adds only unallocated qubits to ``base``, so the
    components it meets are those meeting ``base``: the fused user takes
    the first one's trust, or the owner's when there is none, and no
    region is kept when they mix classes.  Their union joins each region.
    With the run's index, a join of at least :data:`_HOSTED_REGIONS`
    regions decides them all at once: only a region that one of the
    join's host blocks holds
    (:meth:`~qaiccc.completion.CompletionIndex.hosts`) gives a complete
    state, so only those are built.  Otherwise each region's state is
    judged on its own, and a state the run has not seen goes to
    :func:`completable`.  Each state is built in place: the fused
    component goes into the components the call keeps, which are already
    in :func:`~qaiccc.model.component_order`, at the place its key bisects
    to.
    """
    free, components = state
    trust = None
    touched = taken = 0
    others: list[StateComponent] = []
    keys: list[tuple[Trust, int]] = []
    for component in components:
        kind, mask = component
        taken |= mask
        if mask & base:
            if trust is None:
                trust = kind
            elif kind is not trust:  # every region would mix classes
                return ()
            touched |= mask
        else:
            others.append(component)
            keys.append((kind, mask & -mask))
    if trust is None:
        trust = owner[0]
    kept = tuple(others)
    hosted = memo.index is not None and len(regions) >= _HOSTED_REGIONS
    if hosted:
        hosts = memo.index.hosts(kept, taken, trust, base | touched)
        complete = []
        for region in regions:
            for block in hosts:
                if not region & ~block:
                    complete.append(region)
                    break
        regions = complete
    states = memo.states
    out = []
    for region in regions:
        fused = region | touched
        at = bisect_left(keys, (trust, fused & -fused))
        candidate = (free & ~region, kept[:at] + ((trust, fused),) + kept[at:])
        known = states.get(candidate, False)
        if known is False:
            known = states[candidate] = (
                candidate if hosted or completable(candidate, memo) else None
            )
        if known is not None:
            out.append(known)
    return tuple(out)


def _budgets(
    state: SearchState, owners: Sequence[StateComponent], memo: SearchMemo
) -> list[int]:
    """Each owner's growth budget in ``state`` (:func:`remain`), remembered by what it reads.

    :func:`remain` reads the owner's trust and size and the multiset of
    the state's ``(trust, size)`` pairs, so each sorted shape, each pair
    as one small int (twice the size, plus one when trusted), has one
    table of budgets by the owner's pair, and the ``memo`` finds it once
    per component tuple.
    """
    components = state[1]
    table = memo.shapes.get(components)
    if table is None:
        shape = tuple(sorted(m.bit_count() << 1 | (t is Trust.TRUSTED) for t, m in components))
        table = memo.shapes[components] = memo.budgets.setdefault(shape, {})
    budgets = []
    for owner in owners:
        code = owner[1].bit_count() << 1 | (owner[0] is Trust.TRUSTED)
        budget = table.get(code)
        if budget is None:
            budget = table[code] = remain(owner, state, memo.sizes)
        budgets.append(budget)
    return budgets


def _regions(base: int, free: int, room: int, memo: SearchMemo) -> tuple[int, ...]:
    """The first ``max_paths_per_connect`` regions of a join, in :func:`connect`'s order.

    ``base`` is the owner's mask with the incoming qubits, ``free`` the
    state's unallocated qubits, and ``room`` the connectors the owner's
    growth budget still allows, never negative: :func:`connect` refuses a
    join its budget cannot take before it gets here.  Empty when ``base``
    is not connected through free qubits.  No room for a connector leaves
    ``base`` itself as the one region, when it is connected, which the
    ``memo`` works out once per ``base``.  Otherwise the regions depend on
    ``free`` only through ``reach``, the part of ``base`` and the free
    qubits that base's lowest qubit reaches, and through ``top``, the
    largest region size the room allows within it; they are enumerated
    once per run for each ``(base, reach, top)`` and kept in the ``memo``
    as one tuple.
    """
    adjacency = memo.graph.adjacency_masks
    if not room:  # no room for a connector: ``base`` is the one region, when connected
        regions = memo.bases.get(base)
        if regions is None:
            connected = mask_region(base & -base, base, adjacency) == base
            regions = memo.bases[base] = (base,) if connected else ()
        return regions
    # Every region lies in the part of ``base`` and the free qubits that
    # base's lowest qubit reaches, and must hold all of ``base``.
    seed, within = base & -base, base | free
    reach = memo.reaches.get((seed, within))
    if reach is None:
        reach = memo.reaches[seed, within] = mask_region(seed, within, adjacency)
    if base & ~reach:
        return ()
    key = (base, reach, min(base.bit_count() + room, reach.bit_count()))
    regions = memo.regions.get(key)
    if regions is None:
        ordered = _grown(*key, memo.graph)
        # ``islice`` takes no stop past ``sys.maxsize``, and no join has that many regions.
        cap = min(memo.config.max_paths_per_connect, sys.maxsize)
        regions = memo.regions[key] = tuple(itertools.islice(ordered, cap))
    return regions


def _grown(base: int, reach: int, top: int, graph: ConnectivityGraph) -> Iterator[int]:
    """Connected regions inside ``reach`` that hold ``base``, up to ``top`` qubits.

    Fewest qubits first and, among regions of one size, in ascending qubit
    order (the order of ``itertools.combinations`` over the sorted pool).
    The regions are grown one size at a time from the connected part of
    ``base`` at its lowest qubit: each connected set of one size is a set
    of the size below plus one qubit next to it, and each set carries the
    qubits of ``reach`` it can grow onto, so no size is walked twice, and a
    size is only grown once every region before it has been taken.  A set
    is dropped once the ``base`` qubits it lacks no longer fit in ``top``;
    on a connected ``base`` that never happens.  This is the one
    enumerator of disconnected bases:
    :func:`~qaiccc.completion.connected_supersets` takes connected ones only.
    """
    adjacency = graph.adjacency_masks
    width = (graph.vertex_count + 7) // 8

    def lowest_first(mask: int) -> bytes:
        """The mask's bits with qubit 0 as the most significant one."""
        return mask.to_bytes(width, "little").translate(_REVERSED_BITS)

    def levels() -> Iterator[list[int]]:
        start = mask_region(base & -base, base, adjacency)
        size, lacking = start.bit_count(), base & ~start
        # Each set of one size, with the qubits of ``reach`` it can grow onto.
        level = {start: mask_neighborhood(start, adjacency) & reach & ~start}
        while level:
            regions = [region for region in level if not base & ~region] if lacking else list(level)
            if len(regions) > 1:
                # Equal-size sets in combinations order: the lowest qubit in
                # which two regions differ belongs to the earlier one, which
                # reads larger.
                regions.sort(key=lowest_first, reverse=True)
            yield regions
            if size == top:
                return
            size += 1
            grown: dict[int, int] = {}
            for region, edge in level.items():
                rest = edge
                while rest:
                    pick = rest & -rest
                    rest ^= pick
                    larger = region | pick
                    if larger not in grown:
                        grown[larger] = (edge | adjacency[pick.bit_length() - 1] & reach) & ~larger
            if lacking:
                grown = {r: e for r, e in grown.items() if size + (base & ~r).bit_count() <= top}
            level = grown

    return itertools.chain.from_iterable(levels())


def _bits(mask: int) -> list[int]:
    """The one-qubit masks of ``mask``, lowest qubit first."""
    out = []
    while mask:
        out.append(mask & -mask)
        mask &= mask - 1
    return out


def alloc_unallocated(state: SearchState, impacted: int, *, memo: SearchMemo) -> list[SearchState]:
    """Allocate every unallocated qubit of the ``impacted`` mask, branching over owners.

    Each unallocated impacted qubit is attached either to one of the
    existing components or to a fresh component of a trust class that
    still has an unassigned request; already-owned impacted qubits pass
    through unchanged.  Qubits are handled lowest first, each stage feeding
    the next, and every owner's budget is read once per state and handed
    to :func:`connect`, which refuses a qubit the budget cannot take.
    """
    current = [state]
    for target in _bits(impacted):
        staged: list[SearchState] = []
        for alloc in current:
            if not alloc[0] & target:
                staged.append(alloc)
                continue
            owners = alloc[1] + _FRESH
            for owner, budget in zip(owners, _budgets(alloc, owners, memo)):
                staged += connect(alloc, owner, target, budget, memo=memo)
        current = list(dict.fromkeys(staged))
    return current


def alloc_impacted(
    candidates: Iterable[SearchState], impacting: int, impacted: int, *, memo: SearchMemo
) -> list[SearchState]:
    """Give every user holding a qubit of the ``impacted`` mask control of an ``impacting`` one.

    For each impacted qubit, lowest first, its owner either receives an
    unallocated impacting qubit via :func:`connect` or is merged with the
    owner of an allocated one, impacting qubits also lowest first.  The
    owner's budget is read once per candidate and handed to each join.
    Candidates must not have unallocated impacted qubits (run
    :func:`alloc_unallocated` first).
    """
    picks = _bits(impacting)
    current = list(candidates)
    for bit in _bits(impacted):
        staged: list[SearchState] = []
        for alloc in current:
            free, components = alloc
            for owner in components:
                if owner[1] & bit:
                    break
            else:
                raise ValueError(
                    f"impacted qubit {bit.bit_length() - 1} is unallocated; "
                    "allocate impacted qubits before assigning control"
                )
            [budget] = _budgets(alloc, (owner,), memo)
            for pick in picks:
                if free & pick:
                    target = pick
                else:
                    for _, target in components:
                        if target & pick:
                            break
                staged += connect(alloc, owner, target, budget, memo=memo)
        current = list(dict.fromkeys(staged))
    return current


def improve_alloc(state: SearchState, involved: int, *, memo: SearchMemo) -> list[SearchState]:
    """Single-owner variants for the rate's ``involved`` mask.

    When none of the involved qubits is allocated yet they become a fresh
    component (falling back to connecting them onto each existing user
    that has the budget for them, if no fresh request fits); otherwise the
    owners of the involved qubits are merged into one component together
    with the involved qubits.  A rate's qubits are a connected group and
    every owner fused in meets them, so each merge is connected and goes
    straight to :func:`_fused`.
    """
    components = state[1]
    for owner in components:
        if owner[1] & involved:
            return list(_fused(state, owner, involved, (involved,), memo))

    fresh = [made for user in _FRESH for made in _fused(state, user, involved, (involved,), memo)]
    if fresh:
        return fresh
    fallback: list[SearchState] = []
    for owner, budget in zip(components, _budgets(state, components, memo)):
        fallback += connect(state, owner, involved, budget, memo=memo)
    return fallback


def alloc_trusted(state: SearchState, impacting: int, *, memo: SearchMemo) -> list[SearchState]:
    """Hand unallocated qubits of the ``impacting`` mask to trusted users.

    Branches over every non-empty subset of the free impacting qubits,
    fewest first and in ascending qubit order, attaching it to each trusted
    component, or starting a fresh trusted component when a trusted
    request is still unassigned.  Each trusted owner's budget is read once:
    every qubit of a subset is free, so a subset larger than it is one
    :func:`connect` would refuse, and it is offered only to the owners
    whose budget takes it.  Without any trusted capacity this never
    generates anything.
    """
    free, components = state
    pool = _bits(impacting & free)
    trusted = [owner for owner in components + _FRESH if owner[0] is Trust.TRUSTED]
    owners = list(zip(trusted, _budgets(state, trusted, memo))) if pool else []
    top = max((budget for _, budget in owners), default=0)
    out: list[SearchState] = []
    for length in range(1, min(len(pool), top) + 1):
        takers = [(owner, budget) for owner, budget in owners if budget >= length]
        for combo in itertools.combinations(pool, length):
            subset = sum(combo)
            for owner, budget in takers:
                out += connect(state, owner, subset, budget, memo=memo)
    return out


#: A rate as the search reads it: the rate with its impacting, impacted and involved masks.
RateMasks = tuple[CrosstalkRate, int, int, int]


def rate_masks(rate: CrosstalkRate) -> RateMasks:
    """The rate with the masks of its impacting, impacted and involved qubits."""
    return rate, qubit_mask(rate.impacting), qubit_mask(rate.impacted), qubit_mask(rate.involved)


class Attributes(NamedTuple):
    """A search member's attributes, kept beside its state.

    ``score`` is the last handled rate's score, ``incidental`` the handled
    rates that left an involved qubit unallocated, in order, ``penalty``
    their scores' sum, and ``last_rate`` the rate the member fell at once
    it is archived.
    """

    score: float
    penalty: float = 0.0
    incidental: tuple[CrosstalkRate, ...] = ()
    last_rate: CrosstalkRate | None = None


def replay_state(state: SearchState, processed: Sequence[RateMasks]) -> Attributes | None:
    """The attributes of ``state`` after evaluating every rate in ``processed``.

    Returns None when the state is unsafe for any of them.  Otherwise the
    score is the last rate's, and every rate that leaves an involved qubit
    unallocated is incidental and adds its score to the penalty, in order,
    as the search's per-rate update does.
    """
    free = state[0]
    score = penalty = 0.0
    incidental: list[CrosstalkRate] = []
    for rate, impacting, impacted, involved in processed:
        if not state_verdict(state, impacting, impacted).safe:
            return None
        score = rate.score
        if involved & free:
            penalty += rate.score
            incidental.append(rate)
    return Attributes(score, penalty, tuple(incidental))


def replay_attributes(
    allocation: Allocation, rates: Sequence[CrosstalkRate]
) -> Allocation | None:
    """``allocation``'s structure with its attributes after evaluating every rate in ``rates``.

    Returns None when the structure is unsafe for any of them; this is
    the admission check plus bookkeeping for new population members
    (:func:`replay_state` on the allocation's state).
    """
    state = state_of(allocation)
    replayed = replay_state(state, [rate_masks(rate) for rate in rates])
    return None if replayed is None else allocation_of(state, *replayed)


def archive_alloc(
    key: SearchState,
    population: dict[SearchState, Attributes],
    archive: dict[SearchState, Attributes],
    rate: CrosstalkRate,
) -> Attributes:
    """Retire the member at ``key``: record the rate it fell at and move it to the archive.

    Only population members are investigated by later iterations, so the
    retired member's attributes are frozen from here on.
    """
    if key not in population:
        raise ValueError("member is not in the population")
    score, penalty, incidental, _ = population.pop(key)
    retired = archive[key] = Attributes(score, penalty, incidental, rate)
    return retired


def update_population(
    candidates: Iterable[SearchState],
    population: dict[SearchState, Attributes],
    archive: dict[SearchState, Attributes],
    processed: Sequence[RateMasks],
    memo: SearchMemo,
) -> list[tuple[SearchState, Attributes]]:
    """Admit candidate states into ``population`` (mutated in place).

    A candidate enters only when its state is absent from population and
    archive alike (one structure must never carry two attribute sets)
    and when it is safe for every rate in ``processed`` (the handled
    rates, each with its :func:`rate_masks`), with the attributes that
    replay gives (:func:`replay_state`).  When the cap of the ``memo``'s
    config is exceeded the worst members by (score, penalty, canonical
    key) are dropped.  Returns the members actually admitted, each as its
    state and attributes.
    """
    admitted: list[tuple[SearchState, Attributes]] = []
    config = memo.config
    for state in candidates:
        if state in population or state in archive:
            continue
        attributes = replay_state(state, processed)
        if attributes is None:
            continue
        population[state] = attributes
        admitted.append((state, attributes))
    if config.max_population is not None and len(population) > config.max_population:
        ranked = sorted(
            population.items(),
            key=lambda kv: (-kv[1].score, -kv[1].penalty, state_key(kv[0])),
        )
        for key, _ in ranked[: len(population) - config.max_population]:
            del population[key]
    return admitted


class RateStep(NamedTuple):
    """Snapshot taken after one rate was processed: the states alive after it and those it retired.

    It keeps no attribute record: each member's record is held once, by
    the population while the member is live and by the archive after.  A
    state listed in ``population`` is safe for every rate handled so far,
    and its record after this rate is :func:`replay_state` of them.
    """

    rate: CrosstalkRate
    population: tuple[SearchState, ...]
    archived: tuple[SearchState, ...]


class AllocationOutcome(NamedTuple):
    """Everything :func:`allocate` produced, in deterministic order.

    ``population`` and ``archive`` hold each member as its state and
    :class:`Attributes` record, in the order the search admitted and
    retired them, and they are the only records the outcome holds:
    ``steps`` names, rate by rate, the states alive and those retired
    (:class:`RateStep`).  The initial state, the one without components,
    carries the start score above every rate; the first rate retires it
    to ``archive``.
    """

    population: tuple[tuple[SearchState, Attributes], ...]
    archive: tuple[tuple[SearchState, Attributes], ...]
    sizes: SizeRequests
    rates: tuple[CrosstalkRate, ...]
    steps: tuple[RateStep, ...]

    @property
    def allocations(self) -> tuple[tuple[SearchState, Attributes], ...]:
        """Every member: the population, then the archive."""
        return self.population + self.archive

    @property
    def halted(self) -> bool:
        """Did the search stop early?  Only an empty population stops it.

        The ``max_population`` prune always leaves at least one member.
        """
        return not self.population


def allocate(
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    rates: Sequence[CrosstalkRate],
    config: SearchConfig = SearchConfig(),
) -> AllocationOutcome:
    """Run the full allocation search.

    Raises :class:`InsufficientQubitsError` when the requests outgrow the
    platform, and ValueError when a rate's qubits are not a connected group
    of the platform's qubits, or when the scores sum to the largest float
    or more (:func:`~qaiccc.model.check_score_total`).  The returned
    outcome carries the final population and archive, each member as its
    state and :class:`Attributes` record, plus per-rate snapshots of
    states; it is a pure function of its inputs.
    """
    for rate in rates:
        if not graph.is_connected(rate.involved):
            raise ValueError(
                f"rate {sorted(rate.impacting)} -> {sorted(rate.impacted)} (score {rate.score:g}) "
                "is not a connected group of the platform's qubits"
            )
    full = update_sizes(graph.vertex_count, sizes)
    ordered = sort_rates(rates)
    check_score_total(ordered)
    # Strictly above the top rate: past 2**53, adding 1.0 leaves a score unchanged.
    top = max((r.score for r in ordered), default=0.0)
    initial_score = max(top + 1.0, math.nextafter(top, math.inf))

    start: SearchState = ((1 << graph.vertex_count) - 1, ())
    population: dict[SearchState, Attributes] = {start: Attributes(initial_score)}
    archive: dict[SearchState, Attributes] = {}
    memo = SearchMemo(full, graph, config)
    steps: list[RateStep] = []
    # Logged only once ``logging`` is loaded: the command line loads it when
    # ``QAICCC_LOG`` asks for it, and a library caller may have loaded it.
    logging = sys.modules.get("logging")
    log = logging.getLogger("qaiccc.allocator") if logging else None
    handled = [rate_masks(rate) for rate in ordered]

    for index, (rate, impacting, impacted, involved) in enumerate(handled):
        processed = handled[: index + 1]
        newly_archived: list[SearchState] = []
        for key in list(population):
            member = population.get(key)
            if member is None:  # pruned away earlier in this rate
                continue

            candidates: list[SearchState] = []
            if state_verdict(key, impacting, impacted).safe:
                if state_parties(key, involved) >= 2:
                    candidates = improve_alloc(key, involved, memo=memo)
                # Penalty tracks the incidental crosstalk a future tenant could join in on.
                penalty, incidental = member.penalty, member.incidental
                if involved & key[0]:
                    penalty, incidental = penalty + rate.score, incidental + (rate,)
                population[key] = Attributes(rate.score, penalty, incidental)
            else:
                candidates = alloc_unallocated(key, impacted, memo=memo)
                candidates = alloc_impacted(candidates, impacting, impacted, memo=memo)
                candidates += improve_alloc(key, involved, memo=memo)
                candidates += alloc_trusted(key, impacting, memo=memo)
                archive_alloc(key, population, archive, rate)
                newly_archived.append(key)

            update_population(candidates, population, archive, processed, memo)

        if log is not None:
            log.debug(
                "rate %g -> population %d, archive %d", rate.score, len(population), len(archive)
            )
        steps.append(RateStep(rate, tuple(population), tuple(newly_archived)))
        if not population:
            break

    # The memo goes first, so the outcome's member tuples reuse its memory
    # instead of raising the run's peak.
    del memo
    return AllocationOutcome(
        population=tuple(population.items()),
        archive=tuple(archive.items()),
        sizes=full,
        rates=ordered,
        steps=tuple(steps),
    )

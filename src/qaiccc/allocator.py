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
states, and :func:`new_alloc` asks the decider about each distinct state
once, through a memo dict owned by one :func:`allocate` call.  Population
and archive are insertion-ordered dicts keyed by state, and this store is
the one final deduplicator of candidates.  An :class:`Allocation` is
built only for a state in neither, right before its admission replay.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

# ``can_complete``, ``dedup_allocations`` and ``allocation_feasible`` are no
# longer called here; they stay bound because the benchmark's tracer
# (bench/spans.py) wraps names at this import site.
from .completion import can_complete, connected_supersets, decide  # noqa: F401
from .errors import InsufficientQubitsError
from .model import (  # noqa: F401
    Allocation,
    ConnectivityGraph,
    CrosstalkRate,
    SearchState,
    SizeRequests,
    Trust,
    allocation_of,
    canonicalize,
    component_order,
    dedup_allocations,
    mask_region,
    qubit_mask,
    sort_rates,
    state_of,
)
from .safety import involved_parties, is_safe
from .sizing import allocation_feasible, remain  # noqa: F401

log = logging.getLogger("qaiccc.allocator")

_TRUST_ORDER = (Trust.TRUSTED, Trust.UNTRUSTED)


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for the search.

    ``max_population`` (off by default) prunes the worst members after
    each admission round; ``max_paths_per_connect`` caps how many
    connected regions one :func:`connect` call hands on, counted in
    (size, ascending-qubit) order, since the count of connected
    extensions is exponential in the worst case.
    """

    max_population: int | None = None
    max_paths_per_connect: int = 64

    def __post_init__(self) -> None:
        if self.max_paths_per_connect < 1:
            raise ValueError("max_paths_per_connect must be at least 1")
        if self.max_population is not None and self.max_population < 1:
            raise ValueError("max_population must be at least 1 when set")


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
    return replace(sizes, idle_size=vertex_count - total)


def new_alloc(
    state: SearchState,
    merged: int,
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    *,
    fresh_trust: Trust | None = None,
    memo: dict[SearchState, bool],
) -> SearchState | None:
    """The state with all of the ``merged`` mask held by a single user, or None.

    Components intersecting ``merged`` are fused together with the
    unallocated qubits of ``merged``.  The result is kept only when no
    trust classes were mixed, the fused component is connected and the
    completion decider accepts the state, which also refuses every
    size-infeasible one; whether it is new is the store's call.
    ``fresh_trust`` names the class of the component when ``merged``
    touches no existing component.  ``memo`` keeps the verdict per state
    for the rest of one :func:`allocate` call.
    """
    free, components = state
    touching = [c for c in components if c[1] & merged]
    trust = touching[0][0] if touching else fresh_trust
    if trust is None or any(c[0] is not trust for c in touching):
        return None

    fused = merged & free
    for _, mask, _ in touching:
        fused |= mask
    kept = [c for c in components if not c[1] & merged]
    kept.append((trust, fused, fused.bit_count()))
    candidate = (free & ~merged, tuple(sorted(kept, key=component_order)))
    verdict = memo.get(candidate)
    if verdict is None:
        connected = mask_region(fused & -fused, fused, graph.adjacency_masks) == fused
        verdict = memo[candidate] = connected and decide(*candidate, graph, sizes)
    return candidate if verdict else None


def connect(
    state: SearchState,
    user: int,
    incoming: int,
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
    *,
    fresh_trust: Trust | None = None,
    memo: dict[SearchState, bool],
) -> list[SearchState]:
    """Ways of joining the ``incoming`` mask to the ``user`` mask through unallocated connectors.

    The connector budget comes from the user's growth allowance under
    size feasibility, minus the incoming qubits themselves; a negative
    budget means no join can fit.  Only connected regions are generated:
    connected sets that hold ``user | incoming`` plus unallocated
    connector qubits, fewest connectors first and, among regions with as
    many connectors, in ascending qubit order (the order of
    ``itertools.combinations`` over the sorted connector pool).  The
    first ``config.max_paths_per_connect`` regions in that order are each
    handed to :func:`new_alloc`.  With ``user`` empty (0) the regions
    become a fresh component of class ``fresh_trust``.
    """
    budget = remain(user, state, sizes, fresh_trust=fresh_trust)
    max_len = budget - (incoming & ~user).bit_count()
    if max_len < 0:
        return []

    adjacency = graph.adjacency_masks
    base = user | incoming
    available = state[0] & ~base
    # Every region lies in the part of ``base | available`` that base's
    # lowest qubit reaches, and must hold all of ``base``.
    reach = mask_region(base & -base, base | available, adjacency)
    largest = reach.bit_count() if not base & ~reach else 0
    first = base.bit_count()
    width = graph.vertex_count
    results: list[SearchState] = []
    considered = 0
    for size in range(first, min(first + max_len, largest) + 1):
        regions = connected_supersets(base, size, available, adjacency)
        # Equal-size sets in combinations order: the lowest qubit in which
        # two regions differ belongs to the earlier one.
        for region in sorted(regions, key=lambda m: f"{m:0{width}b}"[::-1], reverse=True):
            considered += 1
            candidate = new_alloc(state, region, graph, sizes, fresh_trust=fresh_trust, memo=memo)
            if candidate is not None:
                results.append(candidate)
            if considered >= config.max_paths_per_connect:
                return results
    return results


def alloc_unallocated(
    state: SearchState,
    impacted: frozenset[int],
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
    *,
    memo: dict[SearchState, bool],
) -> list[SearchState]:
    """Allocate every unallocated impacted qubit, branching over owners.

    Each unallocated impacted qubit is attached either to one of the
    existing components or to a fresh component of a trust class that
    still has an unassigned request; already-owned impacted qubits pass
    through unchanged.  Qubits are handled in ascending order, each stage
    feeding the next.
    """
    current = [state]
    for qubit in sorted(impacted):
        target = 1 << qubit
        staged: list[SearchState] = []
        for alloc in current:
            if not alloc[0] & target:
                staged.append(alloc)
                continue
            for _, mask, _ in alloc[1]:
                staged += connect(alloc, mask, target, graph, sizes, config, memo=memo)
            for trust in _TRUST_ORDER:
                staged += connect(
                    alloc, 0, target, graph, sizes, config, fresh_trust=trust, memo=memo
                )
        current = list(dict.fromkeys(staged))
    return current


def alloc_impacted(
    candidates: Iterable[SearchState],
    rate: CrosstalkRate,
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
    *,
    memo: dict[SearchState, bool],
) -> list[SearchState]:
    """Give every impacted user control of an impacting qubit.

    For each impacted qubit, its owner either receives an unallocated
    impacting qubit via :func:`connect` or is merged with the owner of an
    allocated one.  Candidates must not have unallocated impacted qubits
    (run :func:`alloc_unallocated` first).
    """
    picks = [1 << q for q in sorted(rate.impacting)]
    current = list(candidates)
    for impacted_qubit in sorted(rate.impacted):
        staged: list[SearchState] = []
        for alloc in current:
            free, components = alloc
            owner = next((m for _, m, _ in components if m >> impacted_qubit & 1), 0)
            if not owner:
                raise ValueError(
                    f"impacted qubit {impacted_qubit} is unallocated; "
                    "allocate impacted qubits before assigning control"
                )
            for pick in picks:
                target = pick if free & pick else next(m for _, m, _ in components if m & pick)
                staged += connect(alloc, owner, target, graph, sizes, config, memo=memo)
        current = list(dict.fromkeys(staged))
    return current


def improve_alloc(
    state: SearchState,
    rate: CrosstalkRate,
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
    *,
    memo: dict[SearchState, bool],
) -> list[SearchState]:
    """Single-owner variants for the rate's qubits.

    When none of the involved qubits is allocated yet they become a fresh
    component (falling back to connecting them onto each existing user if
    no fresh request fits); otherwise the owners of the involved qubits
    are merged into one component together with the involved qubits.
    """
    involved = qubit_mask(rate.involved)
    merge_base = sum(mask for _, mask, _ in state[1] if mask & involved)  # disjoint masks

    if not merge_base:
        fresh = [
            candidate
            for trust in _TRUST_ORDER
            if (candidate := new_alloc(state, involved, graph, sizes, fresh_trust=trust, memo=memo))
        ]
        if fresh:
            return fresh
        fallback: list[SearchState] = []
        for _, mask, _ in state[1]:
            fallback += connect(state, mask, involved, graph, sizes, config, memo=memo)
        return fallback

    candidate = new_alloc(state, merge_base | involved, graph, sizes, memo=memo)
    return [candidate] if candidate is not None else []


def alloc_trusted(
    state: SearchState,
    impacting: frozenset[int],
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
    *,
    memo: dict[SearchState, bool],
) -> list[SearchState]:
    """Hand unallocated impacting qubits to trusted users.

    Branches over every non-empty subset of the free impacting qubits,
    attaching it to each trusted component, or starting a fresh trusted
    component when a trusted request is still unassigned.  Without any
    trusted capacity this never generates anything.
    """
    free, components = state
    pool = [q for q in sorted(impacting) if free >> q & 1]
    out: list[SearchState] = []
    for length in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, length):
            subset = qubit_mask(combo)
            for trust, mask, _ in components:
                if trust is Trust.TRUSTED:
                    out += connect(state, mask, subset, graph, sizes, config, memo=memo)
            out += connect(
                state, 0, subset, graph, sizes, config, fresh_trust=Trust.TRUSTED, memo=memo
            )
    return out


def eval_alloc(allocation: Allocation, rate: CrosstalkRate) -> Allocation:
    """Attribute update for an allocation that is safe for ``rate``.

    The score becomes the rate's score; when an involved qubit is still
    unallocated the rate is recorded as incidental and its score added to
    the penalty.
    """
    penalty = allocation.penalty
    incidental = allocation.incidental
    # Penalty tracks the incidental crosstalk a future tenant could join in on.
    if rate.involved & allocation.unallocated:
        penalty = penalty + rate.score
        incidental = incidental + (rate,)
    return replace(allocation, score=rate.score, penalty=penalty, incidental=incidental)


def replay_attributes(
    allocation: Allocation, rates: Sequence[CrosstalkRate]
) -> Allocation | None:
    """Attributes for ``allocation`` after evaluating every rate in ``rates``.

    Returns None when the structure is unsafe for any of them; this is
    the admission check plus bookkeeping for new population members.
    """
    admitted = replace(allocation, penalty=0.0, incidental=())
    for rate in rates:
        if not is_safe(admitted, rate).safe:
            return None
        admitted = eval_alloc(admitted, rate)
    return admitted


def archive_alloc(
    member: Allocation,
    population: dict[SearchState, Allocation],
    archive: dict[SearchState, Allocation],
    rate: CrosstalkRate,
) -> Allocation:
    """Retire ``member``: record the rate it fell at and move it to the archive.

    Only population members are investigated by later iterations, so the
    retired allocation's attributes are frozen from here on.
    """
    key = state_of(member)
    if key not in population:
        raise ValueError("member is not in the population")
    retired = replace(population.pop(key), last_rate=rate)
    archive[key] = retired
    return retired


def update_population(
    candidates: Iterable[SearchState],
    population: dict[SearchState, Allocation],
    archive: dict[SearchState, Allocation],
    processed: Sequence[CrosstalkRate],
    config: SearchConfig,
) -> list[Allocation]:
    """Admit candidate states into ``population`` (mutated in place).

    A candidate enters only when its state is absent from population and
    archive alike (one structure must never carry two attribute sets)
    and when it is safe for every rate in ``processed``; admission builds
    its :class:`Allocation` and assigns the attributes by replaying that
    prefix.  When the population cap is exceeded the worst members by
    (score, penalty, canonical key) are dropped.  Returns the members
    actually admitted.
    """
    admitted: list[Allocation] = []
    for state in candidates:
        if state in population or state in archive:
            continue
        member = replay_attributes(allocation_of(state), processed)
        if member is None:
            continue
        population[state] = member
        admitted.append(member)
    if config.max_population is not None and len(population) > config.max_population:
        ranked = sorted(
            population.items(),
            key=lambda kv: (-kv[1].score, -kv[1].penalty, canonicalize(kv[1])),
        )
        for key, _ in ranked[: len(population) - config.max_population]:
            del population[key]
    return admitted


@dataclass(frozen=True)
class RateStep:
    """Snapshot taken after one rate was processed."""

    rate: CrosstalkRate
    population: tuple[Allocation, ...]
    archived: tuple[Allocation, ...]


@dataclass(frozen=True)
class AllocationOutcome:
    """Everything :func:`allocate` produced, in deterministic order."""

    population: tuple[Allocation, ...]
    archive: tuple[Allocation, ...]
    sizes: SizeRequests
    rates: tuple[CrosstalkRate, ...]
    initial_score: float
    steps: tuple[RateStep, ...]
    halted: bool

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        return self.population + self.archive


def allocate(
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    rates: Sequence[CrosstalkRate],
    config: SearchConfig = SearchConfig(),
) -> AllocationOutcome:
    """Run the full allocation search.

    Raises :class:`InsufficientQubitsError` when the requests outgrow the
    platform.  The returned outcome carries the final population and
    archive plus per-rate snapshots; it is a pure function of its inputs.
    """
    full = update_sizes(graph.vertex_count, sizes)
    ordered = sort_rates(rates)
    initial_score = (max((r.score for r in ordered), default=0.0)) + 1.0

    initial = Allocation(unallocated=graph.qubits, components=(), score=initial_score)
    population: dict[SearchState, Allocation] = {state_of(initial): initial}
    archive: dict[SearchState, Allocation] = {}
    memo: dict[SearchState, bool] = {}
    steps: list[RateStep] = []
    halted = False

    for index, rate in enumerate(ordered):
        processed = ordered[: index + 1]
        newly_archived: list[Allocation] = []
        for key in list(population):
            member = population.get(key)
            if member is None:  # pruned away earlier in this rate
                continue

            candidates: list[SearchState] = []
            if is_safe(member, rate).safe:
                if involved_parties(member, rate) >= 2:
                    candidates = improve_alloc(key, rate, graph, full, config, memo=memo)
                population[key] = eval_alloc(member, rate)
            else:
                candidates = alloc_unallocated(key, rate.impacted, graph, full, config, memo=memo)
                candidates = alloc_impacted(candidates, rate, graph, full, config, memo=memo)
                candidates += improve_alloc(key, rate, graph, full, config, memo=memo)
                candidates += alloc_trusted(key, rate.impacting, graph, full, config, memo=memo)
                newly_archived.append(archive_alloc(member, population, archive, rate))

            update_population(candidates, population, archive, processed, config)

        log.debug(
            "rate %g -> population %d, archive %d", rate.score, len(population), len(archive)
        )
        steps.append(RateStep(rate, tuple(population.values()), tuple(newly_archived)))
        if not population:
            halted = True
            break

    return AllocationOutcome(
        population=tuple(population.values()),
        archive=tuple(archive.values()),
        sizes=full,
        rates=ordered,
        initial_score=initial_score,
        steps=tuple(steps),
        halted=halted,
    )

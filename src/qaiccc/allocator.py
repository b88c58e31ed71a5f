"""Population/archive search assigning qubits to users, rate by rate.

The engine keeps a population of allocations that are safe for every
crosstalk rate handled so far, working through the rates in decreasing
score order.  A population member that is unsafe for the current rate is
retired to the archive (its ``last_rate`` records where it fell) and
repair candidates are generated from it; a member that is safe stays and,
when several parties hold the rate's qubits, additionally spawns
single-owner merge candidates.  The loop stops early once the population
empties, since nothing new can be generated from an empty population.

Candidates enter the population only if they are structurally new (by
canonical key, so one structure never carries two attribute sets) and
safe for *every* rate handled so far, re-verified from scratch: a repair
may allocate a connector qubit that an earlier rate cares about, so
safety for the earlier prefix cannot be assumed.  Admission recomputes
score, penalty, and incidental by replaying the handled prefix against
the candidate's own structure, which keeps the bookkeeping consistent
with the structure the candidate actually has (a repair that absorbs a
previously unallocated involved qubit no longer deserves the parent's
penalty for it).

Every generated allocation is also required to still be completable to
exact request sizes on the platform (see :mod:`qaiccc.completion`):
growing a user onto qubits whose complement can no longer host the other
circuits would be withdrawn later anyway, so such branches are dropped at
generation time.

Population and archive are insertion-ordered dicts keyed by canonical
key, so membership, update in place and retirement are each one lookup.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

from .completion import can_complete
from .errors import InsufficientQubitsError
from .model import (
    Allocation,
    CanonicalKey,
    ConnectivityGraph,
    CrosstalkRate,
    SizeRequests,
    Trust,
    UserComponent,
    canonicalize,
    dedup_allocations,
    sort_rates,
)
from .safety import involved_parties, is_safe
from .sizing import allocation_feasible, remain

log = logging.getLogger("qaiccc.allocator")

_TRUST_ORDER = (Trust.TRUSTED, Trust.UNTRUSTED)


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for the search.

    ``max_population`` (off by default) prunes the worst members after
    each admission round; ``max_paths_per_connect`` caps how many
    connector sets one connect call may consider, since the count of
    connected extensions is exponential in the worst case.
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


def _allocation_from_key(key: CanonicalKey) -> Allocation:
    unallocated, components = key
    return Allocation(
        unallocated=frozenset(unallocated),
        components=tuple(UserComponent(Trust(t), frozenset(qs)) for t, qs in components),
    )


@lru_cache(maxsize=200_000)
def _completable(key: CanonicalKey, graph: ConnectivityGraph, sizes: SizeRequests) -> bool:
    return can_complete(_allocation_from_key(key), graph, sizes)


def new_alloc(
    allocation: Allocation,
    merged: frozenset[int],
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    *,
    fresh_trust: Trust | None = None,
) -> Allocation | None:
    """One allocation with all of ``merged`` held by a single user, or None.

    Components intersecting ``merged`` are fused together with the
    unallocated qubits of ``merged``.  The result is kept only when the
    fused component is connected, no trust classes were mixed, and the
    allocation is still size-feasible and completable on the platform.
    ``fresh_trust`` names the class of the component when ``merged``
    touches no existing component.  Attributes are left at their
    defaults; they are assigned at admission time.
    """
    touching = [c for c in allocation.components if c.qubits & merged]
    trusts = {c.trust for c in touching}
    if len(trusts) > 1:
        return None
    if touching:
        trust = touching[0].trust
    elif fresh_trust is not None:
        trust = fresh_trust
    else:
        return None

    fused: frozenset[int] = merged & allocation.unallocated
    for comp in touching:
        fused |= comp.qubits
    if not graph.is_connected(fused):
        return None

    kept = tuple(c for c in allocation.components if not (c.qubits & merged))
    candidate = Allocation(
        unallocated=allocation.unallocated - merged,
        components=kept + (UserComponent(trust, fused),),
    )
    if not allocation_feasible(candidate, sizes):
        return None
    if not _completable(canonicalize(candidate), graph, sizes):
        return None
    return candidate


def connect(
    allocation: Allocation,
    user: frozenset[int],
    incoming: frozenset[int],
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
    *,
    fresh_trust: Trust | None = None,
) -> list[Allocation]:
    """Ways of joining ``incoming`` to ``user`` through unallocated connectors.

    The connector budget comes from the user's growth allowance under
    size feasibility, minus the incoming qubits themselves; a negative
    budget means no join can fit.  Connector sets are enumerated smallest
    first, in ascending qubit order, and each connected region is handed
    to :func:`new_alloc`.  With ``user`` empty the regions become a fresh
    component of class ``fresh_trust``.
    """
    budget = remain(user, allocation, sizes, fresh_trust=fresh_trust)
    max_len = budget - len(incoming - user)
    if max_len < 0:
        return []

    base = user | incoming
    pool = sorted(allocation.unallocated - base)
    results: list[Allocation] = []
    considered = 0
    for length in range(0, max_len + 1):
        for combo in itertools.combinations(pool, length):
            region = base | frozenset(combo)
            if not graph.is_connected(region):
                continue
            considered += 1
            candidate = new_alloc(allocation, region, graph, sizes, fresh_trust=fresh_trust)
            if candidate is not None:
                results.append(candidate)
            if considered >= config.max_paths_per_connect:
                return dedup_allocations(results)
    return dedup_allocations(results)


def alloc_unallocated(
    allocation: Allocation,
    impacted: frozenset[int],
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
) -> list[Allocation]:
    """Allocate every unallocated impacted qubit, branching over owners.

    Each unallocated impacted qubit is attached either to one of the
    existing components or to a fresh component of a trust class that
    still has an unassigned request; already-owned impacted qubits pass
    through unchanged.  Qubits are handled in ascending order, each stage
    feeding the next.
    """
    current = [allocation]
    for qubit in sorted(impacted):
        staged: list[Allocation] = []
        for alloc in current:
            if qubit not in alloc.unallocated:
                staged.append(alloc)
                continue
            target = frozenset({qubit})
            for comp in alloc.components:
                staged += connect(alloc, comp.qubits, target, graph, sizes, config)
            for trust in _TRUST_ORDER:
                staged += connect(
                    alloc, frozenset(), target, graph, sizes, config, fresh_trust=trust
                )
        current = dedup_allocations(staged)
    return current


def alloc_impacted(
    candidates: Iterable[Allocation],
    rate: CrosstalkRate,
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
) -> list[Allocation]:
    """Give every impacted user control of an impacting qubit.

    For each impacted qubit, its owner either receives an unallocated
    impacting qubit via :func:`connect` or is merged with the owner of an
    allocated one.  Candidates must not have unallocated impacted qubits
    (run :func:`alloc_unallocated` first).
    """
    current = list(candidates)
    for impacted_qubit in sorted(rate.impacted):
        staged: list[Allocation] = []
        for alloc in current:
            owner = alloc.owner_of(impacted_qubit)
            if owner is None:
                raise ValueError(
                    f"impacted qubit {impacted_qubit} is unallocated; "
                    "allocate impacted qubits before assigning control"
                )
            for impacting_qubit in sorted(rate.impacting):
                if impacting_qubit in alloc.unallocated:
                    target = frozenset({impacting_qubit})
                else:
                    target = alloc.owner_of(impacting_qubit).qubits
                staged += connect(alloc, owner.qubits, target, graph, sizes, config)
        current = dedup_allocations(staged)
    return current


def improve_alloc(
    allocation: Allocation,
    rate: CrosstalkRate,
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
) -> list[Allocation]:
    """Single-owner variants for the rate's qubits.

    When none of the involved qubits is allocated yet they become a fresh
    component (falling back to connecting them onto each existing user if
    no fresh request fits); otherwise the owners of the involved qubits
    are merged into one component together with the involved qubits.
    """
    involved = rate.involved
    merge_base: frozenset[int] = frozenset()
    for qubit in sorted(involved):
        owner = allocation.owner_of(qubit)
        if owner is not None:
            merge_base |= owner.qubits

    if not merge_base:
        fresh: list[Allocation] = []
        for trust in _TRUST_ORDER:
            candidate = new_alloc(allocation, involved, graph, sizes, fresh_trust=trust)
            if candidate is not None:
                fresh.append(candidate)
        if fresh:
            return dedup_allocations(fresh)
        fallback: list[Allocation] = []
        for comp in allocation.components:
            fallback += connect(allocation, comp.qubits, involved, graph, sizes, config)
        return dedup_allocations(fallback)

    candidate = new_alloc(allocation, merge_base | involved, graph, sizes)
    return [candidate] if candidate is not None else []


def alloc_trusted(
    allocation: Allocation,
    impacting: frozenset[int],
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    config: SearchConfig,
) -> list[Allocation]:
    """Hand unallocated impacting qubits to trusted users.

    Branches over every non-empty subset of the free impacting qubits,
    attaching it to each trusted component that would end up holding an
    impacting qubit, or starting a fresh trusted component when a trusted
    request is still unassigned.  Without any trusted capacity this never
    generates anything.
    """
    free = sorted(impacting & allocation.unallocated)
    out: list[Allocation] = []
    for length in range(1, len(free) + 1):
        for combo in itertools.combinations(free, length):
            subset = frozenset(combo)
            for comp in allocation.components_of(Trust.TRUSTED):
                if impacting & (comp.qubits | subset):
                    out += connect(allocation, comp.qubits, subset, graph, sizes, config)
            out += connect(
                allocation, frozenset(), subset, graph, sizes, config,
                fresh_trust=Trust.TRUSTED,
            )
    return dedup_allocations(out)


def _accrues_penalty(allocation: Allocation, rate: CrosstalkRate) -> bool:
    # Penalty tracks the incidental crosstalk a future tenant could join in
    # on: it accrues exactly when an involved qubit is still unallocated.
    return bool(rate.involved & allocation.unallocated)


def eval_alloc(allocation: Allocation, rate: CrosstalkRate) -> Allocation:
    """Attribute update for an allocation that is safe for ``rate``.

    The score becomes the rate's score; when an involved qubit is still
    unallocated the rate is recorded as incidental and its score added to
    the penalty.
    """
    penalty = allocation.penalty
    incidental = allocation.incidental
    if _accrues_penalty(allocation, rate):
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
    population: dict[CanonicalKey, Allocation],
    archive: dict[CanonicalKey, Allocation],
    rate: CrosstalkRate,
) -> Allocation:
    """Retire ``member``: record the rate it fell at and move it to the archive.

    Only population members are investigated by later iterations, so the
    retired allocation's attributes are frozen from here on.
    """
    key = canonicalize(member)
    if key not in population:
        raise ValueError("member is not in the population")
    retired = replace(population.pop(key), last_rate=rate)
    archive[key] = retired
    return retired


def update_population(
    candidates: Iterable[Allocation],
    population: dict[CanonicalKey, Allocation],
    archive: dict[CanonicalKey, Allocation],
    processed: Sequence[CrosstalkRate],
    config: SearchConfig,
) -> list[Allocation]:
    """Admit candidates into ``population`` (mutated in place).

    A candidate enters only when its structure is absent from population
    and archive alike (one structure must never carry two attribute sets)
    and when it is safe for every rate in ``processed``; admission
    assigns its attributes by replaying that prefix.  When the population
    cap is exceeded the worst members by (score, penalty) are dropped.
    Returns the members actually admitted.
    """
    admitted: list[Allocation] = []
    for candidate in candidates:
        key = canonicalize(candidate)
        if key in population or key in archive:
            continue
        member = replay_attributes(candidate, processed)
        if member is None:
            continue
        population[key] = member
        admitted.append(member)
    if config.max_population is not None and len(population) > config.max_population:
        ranked = sorted(population.items(), key=lambda kv: (-kv[1].score, -kv[1].penalty, kv[0]))
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
    population: dict[CanonicalKey, Allocation] = {canonicalize(initial): initial}
    archive: dict[CanonicalKey, Allocation] = {}
    steps: list[RateStep] = []
    halted = False

    for index, rate in enumerate(ordered):
        processed = ordered[: index + 1]
        newly_archived: list[Allocation] = []
        for key in list(population):
            member = population.get(key)
            if member is None:  # pruned away earlier in this rate
                continue

            candidates: list[Allocation] = []
            if is_safe(member, rate).safe:
                if involved_parties(member, rate) >= 2:
                    candidates = improve_alloc(member, rate, graph, full, config)
                population[key] = eval_alloc(member, rate)
            else:
                candidates = alloc_unallocated(member, rate.impacted, graph, full, config)
                candidates = alloc_impacted(candidates, rate, graph, full, config)
                candidates = dedup_allocations(
                    candidates
                    + improve_alloc(member, rate, graph, full, config)
                    + alloc_trusted(member, rate.impacting, graph, full, config)
                )
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

"""Brute-force validation harness for small platforms.

Everything here re-derives results through routes independent of the
search: exhaustive enumeration of complete allocations (two different
strategies that must agree on the count), attribute replay against an
allocation's final structure, and a rate-oblivious greedy baseline.  The
search's branch-and-commit structure carries no optimality proof, so the
gap between the exhaustive optimum and the algorithm's pick is measured,
not assumed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .allocator import SearchConfig, allocate, update_sizes
from .completion import request_slots
from .errors import BaselineInfeasibleError, InstanceTooLargeError
from .model import (
    Allocation,
    CanonicalKey,
    ConnectivityGraph,
    CrosstalkRate,
    SizeRequests,
    UserComponent,
    canonicalize,
    dedup_allocations,
    sort_rates,
)
from .safety import is_safe
from .selection import select

#: Default vertex-count cap: connected-partition counts explode past desk scale.
DEFAULT_ENUMERATION_CAP = 8


def _anchored_blocks(
    anchor: int, size: int, available: frozenset[int], graph: ConnectivityGraph
) -> Iterator[frozenset[int]]:
    """Connected ``size``-subsets of ``available`` containing ``anchor``."""

    def rec(current: frozenset[int], allowed: frozenset[int]) -> Iterator[frozenset[int]]:
        if len(current) == size:
            yield current
            return
        if len(current) + len(allowed) < size:
            return
        frontier = [q for q in allowed if any(n in current for n in graph.neighbors(q))]
        if not frontier:
            return
        pick = min(frontier)
        yield from rec(current | {pick}, allowed - {pick})
        yield from rec(current, allowed - {pick})

    yield from rec(frozenset({anchor}), available - {anchor})


def enumerate_complete(
    graph: ConnectivityGraph, sizes: SizeRequests, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Allocation, ...]:
    """Every partition of the platform into connected components matching the requests.

    The idle request is added first, so the partitions cover all qubits.
    Anchoring each block on the lowest remaining qubit and branching over
    distinct (trust, size) options yields each allocation exactly once,
    in deterministic order.
    """
    if graph.vertex_count > cap:
        raise InstanceTooLargeError(
            f"platform has {graph.vertex_count} qubits, enumeration cap is {cap}"
        )
    full = update_sizes(graph.vertex_count, sizes)
    pending = tuple(sorted((trust, size) for _, trust, size in request_slots(full)))

    out: list[Allocation] = []

    def rec(remaining: frozenset[int], left: tuple, acc: list[UserComponent]) -> None:
        if not remaining:
            if not left:
                out.append(Allocation(unallocated=frozenset(), components=tuple(acc)))
            return
        anchor = min(remaining)
        tried: set[tuple] = set()
        for i, (trust, size) in enumerate(left):
            if (trust, size) in tried:
                continue
            tried.add((trust, size))
            for block in _anchored_blocks(anchor, size, remaining, graph):
                acc.append(UserComponent(trust, block))
                rec(remaining - block, left[:i] + left[i + 1 :], acc)
                acc.pop()

    rec(graph.qubits, pending, [])
    return tuple(dedup_allocations(out))


def count_complete(graph: ConnectivityGraph, sizes: SizeRequests) -> int:
    """Second counting strategy: ordered slot assignment divided by symmetry.

    Walks the request slots in declared order, summing over every
    connected block for each slot, then divides by the permutations of
    equal (trust, size) slots.  Must equal ``len(enumerate_complete(...))``.
    """
    full = update_sizes(graph.vertex_count, sizes)
    slots = [(trust, size) for _, trust, size in request_slots(full)]

    def blocks(remaining: frozenset[int], size: int) -> Iterator[frozenset[int]]:
        for anchor in sorted(remaining):
            allowed = frozenset(q for q in remaining if q >= anchor)
            yield from _anchored_blocks(anchor, size, allowed, graph)

    def rec(index: int, remaining: frozenset[int]) -> int:
        if index == len(slots):
            return 1 if not remaining else 0
        _, size = slots[index]
        return sum(rec(index + 1, remaining - block) for block in blocks(remaining, size))

    symmetry = 1
    for repeat in Counter(slots).values():
        symmetry *= math.factorial(repeat)
    ordered_total = rec(0, graph.qubits)
    if ordered_total % symmetry:
        raise AssertionError("ordered partition count is not divisible by slot symmetry")
    return ordered_total // symmetry


def safe_prefix(allocation: Allocation, rates: Sequence[CrosstalkRate]) -> int:
    """Length of the leading run of rates the allocation is safe for.

    ``rates`` must already be in the allocator's sorted order; the
    allocation is normally complete, so the prefix measures how many of
    the worst rates it neutralizes.
    """
    count = 0
    for rate in rates:
        if not is_safe(allocation, rate).safe:
            break
        count += 1
    return count


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-deriving an allocation's attributes from its structure."""

    ok: bool
    mismatches: tuple[str, ...]
    expected_score: float | None
    expected_penalty: float
    expected_incidental: tuple[CrosstalkRate, ...]
    expected_last_rate: CrosstalkRate | None


def replay_check(allocation: Allocation, rates: Sequence[CrosstalkRate]) -> ReplayReport:
    """Replay the sorted rates against the allocation's final structure.

    Walks the rates in order; each safe rate sets the score and, when an
    involved qubit is unallocated, accrues penalty and an incidental
    entry.  The first unsafe rate becomes the expected ``last_rate`` and
    freezes the attributes.  The stored attributes must match; the score
    is only compared when at least one rate was safe (the initial
    allocation's score is a synthetic above-all-rates value).
    """
    expected_score: float | None = None
    expected_penalty = 0.0
    expected_incidental: list[CrosstalkRate] = []
    expected_last: CrosstalkRate | None = None
    for rate in rates:
        if not is_safe(allocation, rate).safe:
            expected_last = rate
            break
        expected_score = rate.score
        if rate.involved & allocation.unallocated:
            expected_penalty += rate.score
            expected_incidental.append(rate)

    mismatches: list[str] = []
    if expected_score is not None and allocation.score != expected_score:
        mismatches.append(f"score {allocation.score} != replayed {expected_score}")
    if abs(allocation.penalty - expected_penalty) > 1e-12:
        mismatches.append(f"penalty {allocation.penalty} != replayed {expected_penalty}")
    if list(allocation.incidental) != expected_incidental:
        mismatches.append("incidental list differs from replay")
    if allocation.last_rate != expected_last:
        mismatches.append(f"last_rate {allocation.last_rate} != replayed {expected_last}")
    return ReplayReport(
        ok=not mismatches,
        mismatches=tuple(mismatches),
        expected_score=expected_score,
        expected_penalty=expected_penalty,
        expected_incidental=tuple(expected_incidental),
        expected_last_rate=expected_last,
    )


def baseline_naive(graph: ConnectivityGraph, sizes: SizeRequests) -> Allocation:
    """Rate-oblivious greedy allocation: BFS fill from the lowest free qubit.

    Fills the requests in declared order (idle last), each time running a
    breadth-first traversal from the lowest unallocated qubit with
    neighbors visited in ascending order, taking the first ``size``
    qubits reached.  Raises :class:`BaselineInfeasibleError` when a
    request cannot reach enough connected qubits.
    """
    full = update_sizes(graph.vertex_count, sizes)
    free = set(range(graph.vertex_count))
    components: list[UserComponent] = []
    for _, trust, size in request_slots(full):
        if not free:
            raise BaselineInfeasibleError("no qubits left for a pending request")
        start = min(free)
        visited: list[int] = []
        queue = [start]
        seen = {start}
        while queue and len(visited) < size:
            qubit = queue.pop(0)
            visited.append(qubit)
            for neighbor in graph.neighbors(qubit):
                if neighbor in free and neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        if len(visited) < size:
            raise BaselineInfeasibleError(
                f"greedy fill reached only {len(visited)} of {size} qubits from {start}"
            )
        block = frozenset(visited)
        components.append(UserComponent(trust, block))
        free -= block
    return Allocation(unallocated=frozenset(free), components=tuple(components))


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive optimum versus the algorithm's pick on one instance.

    ``gap`` is measured, never asserted: the greedy search may fall short
    of the exhaustive optimum on some instances.
    """

    optimum_safe_prefix: int
    optimum_allocations: tuple[CanonicalKey, ...]
    algorithm_safe_prefix: int
    gap: int
    complete_count: int


def oracle_report(
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    rates: Sequence[CrosstalkRate],
    cap: int = DEFAULT_ENUMERATION_CAP,
    config: SearchConfig = SearchConfig(),
) -> OracleReport:
    """Compare the search pipeline against exhaustive enumeration."""
    ordered = sort_rates(rates)
    complete_allocs = enumerate_complete(graph, sizes, cap)
    prefixes = [(safe_prefix(alloc, ordered), alloc) for alloc in complete_allocs]
    optimum = max((prefix for prefix, _ in prefixes), default=0)
    witnesses = tuple(
        canonicalize(alloc) for prefix, alloc in prefixes if prefix == optimum
    )

    outcome = allocate(graph, sizes, rates, config)
    selected = select(outcome, graph)
    algorithm = safe_prefix(selected.allocation, ordered)
    return OracleReport(
        optimum_safe_prefix=optimum,
        optimum_allocations=witnesses,
        algorithm_safe_prefix=algorithm,
        gap=optimum - algorithm,
        complete_count=len(complete_allocs),
    )

"""Brute-force validation harness, bounded by its own work.

Everything here re-derives results through routes independent of the
search: exhaustive enumeration of complete allocations (two different
strategies that must agree on the count), attribute replay against an
allocation's final structure, and a rate-oblivious greedy baseline.  The
search's branch-and-commit structure carries no optimality proof, so the
gap between the exhaustive optimum and the algorithm's pick is measured,
not assumed.  The enumeration is refused by the work it does
(:data:`ENUMERATION_BUDGET` steps), not by the platform's size: every
platform of at most 8 qubits fits, and so do heavy-hex 27 and grid 5x5
with four 5-qubit users.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterator, NamedTuple, Sequence

from .allocator import SearchConfig, allocate
from .errors import BaselineInfeasibleError, InstanceTooLargeError
from .model import (
    Allocation,
    CanonicalKey,
    ConnectivityGraph,
    CrosstalkRate,
    SizeRequests,
    UserComponent,
    allocation_of,
    canonicalize,
    sort_rates,
)
from .safety import is_safe
from .selection import select

#: Steps :func:`enumerate_complete` may take: one per partial partition
#: it enters, one per node of each block walk and one per qubit of each
#: complete partition it builds.  Past it the enumeration raises
#: :class:`InstanceTooLargeError`.
ENUMERATION_BUDGET = 1_000_000


def _anchored_blocks(
    anchor: int, size: int, available: int, adjacency: Sequence[int], step: Callable[[], None]
) -> Iterator[int]:
    """Connected ``size``-subsets of the ``available`` mask containing ``anchor``, as masks.

    An include/exclude walk that always decides the lowest qubit next to
    the block so far; ``step`` is called once per node.  The walk keeps
    its own stack and the block's frontier, so no block is too large to
    reach and a node costs a few mask operations.
    """
    stack = [(1 << anchor, 0, adjacency[anchor] & available)]
    while stack:
        current, excluded, frontier = stack.pop()
        step()
        if current.bit_count() == size:
            yield current
            continue
        if (available & ~excluded).bit_count() < size or not frontier:
            continue
        low = frontier & -frontier
        rest = frontier ^ low
        grown = (rest | adjacency[low.bit_length() - 1]) & available & ~(current | excluded | low)
        stack.append((current, excluded | low, rest))
        stack.append((current | low, excluded, grown))


def enumerate_complete(graph: ConnectivityGraph, sizes: SizeRequests) -> tuple[Allocation, ...]:
    """Every partition of the platform into connected components matching the requests.

    The idle request is added first, so the partitions cover all qubits.
    Anchoring each block on the lowest remaining qubit and branching over
    distinct (trust, size) options yields each allocation exactly once,
    in deterministic order.  Taking more than :data:`ENUMERATION_BUDGET`
    steps raises :class:`InstanceTooLargeError`.
    """
    full = sizes.with_idle(graph.vertex_count)
    counts = Counter((trust, size) for _, trust, size in full.slots())
    adjacency = graph.adjacency_masks
    budget = ENUMERATION_BUDGET
    steps = 0

    def step(work: int = 1) -> None:
        nonlocal steps
        steps += work
        if steps > budget:
            raise InstanceTooLargeError(
                f"exhaustive enumeration passed its work budget of {budget} steps"
            )

    def branches(remaining: int, left: tuple) -> Iterator[tuple]:
        anchor = (remaining & -remaining).bit_length() - 1
        for i, ((trust, size), count) in enumerate(left):
            fewer = (((trust, size), count - 1),) if count > 1 else ()
            rest = left[:i] + fewer + left[i + 1 :]
            for block in _anchored_blocks(anchor, size, remaining, adjacency, step):
                yield (trust, block), remaining ^ block, rest

    # An explicit stack in place of recursion, since a platform of thousands
    # of qubits may need thousands of blocks.  Each entry holds a partial
    # partition's branches and the block that led to it.
    step()
    stack = [(branches((1 << graph.vertex_count) - 1, tuple(sorted(counts.items()))), None)]
    out: list[Allocation] = []
    while stack:
        child = next(stack[-1][0], None)
        if child is None:
            stack.pop()
            continue
        component, remaining, left = child
        step()
        if remaining:
            stack.append((branches(remaining, left), component))
        elif not left:
            step(graph.vertex_count)
            path = tuple(led_by for _, led_by in stack[1:]) + (component,)
            out.append(allocation_of((0, path)))
    return tuple(out)


def count_complete(graph: ConnectivityGraph, sizes: SizeRequests) -> int:
    """Second counting strategy: ordered slot assignment divided by symmetry.

    Walks the request slots in declared order, summing over every
    connected block for each slot, then divides by the permutations of
    equal (trust, size) slots.  Must equal ``len(enumerate_complete(...))``.
    """
    full = sizes.with_idle(graph.vertex_count)
    slots = [(trust, size) for _, trust, size in full.slots()]
    adjacency = graph.adjacency_masks

    def blocks(remaining: int, size: int) -> Iterator[int]:
        while remaining:
            anchor = (remaining & -remaining).bit_length() - 1
            yield from _anchored_blocks(anchor, size, remaining, adjacency, lambda: None)
            remaining &= remaining - 1

    def rec(index: int, remaining: int) -> int:
        if index == len(slots):
            return 1 if not remaining else 0
        _, size = slots[index]
        return sum(rec(index + 1, remaining ^ block) for block in blocks(remaining, size))

    symmetry = math.prod(math.factorial(repeat) for repeat in Counter(slots).values())
    ordered_total = rec(0, (1 << graph.vertex_count) - 1)
    if ordered_total % symmetry:
        raise AssertionError("ordered partition count is not divisible by slot symmetry")
    return ordered_total // symmetry


def safe_prefix(allocation: Allocation, rates: Sequence[CrosstalkRate]) -> int:
    """Length of the leading run of rates the allocation is safe for.

    ``rates`` must already be in the allocator's sorted order; the
    allocation is normally complete, so the prefix measures how many of
    the worst rates it neutralizes.
    """
    unsafe = (i for i, rate in enumerate(rates) if not is_safe(allocation, rate).safe)
    return next(unsafe, len(rates))


class ReplayReport(NamedTuple):
    """Outcome of re-deriving an allocation's attributes from its structure."""

    mismatches: tuple[str, ...]
    expected_score: float | None
    expected_penalty: float
    expected_incidental: tuple[CrosstalkRate, ...]
    expected_last_rate: CrosstalkRate | None

    @property
    def ok(self) -> bool:
        """True when every stored attribute matched its replay."""
        return not self.mismatches


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
    full = sizes.with_idle(graph.vertex_count)
    free = set(range(graph.vertex_count))
    components: list[UserComponent] = []
    for _, trust, size in full.slots():
        if not free:
            raise BaselineInfeasibleError("no qubits left for a pending request")
        start = min(free)
        reached, seen = [start], {start}
        for qubit in reached:
            if len(reached) >= size:
                break
            for neighbor in graph.neighbors(qubit):
                if neighbor in free and neighbor not in seen:
                    seen.add(neighbor)
                    reached.append(neighbor)
        if len(reached) < size:
            raise BaselineInfeasibleError(
                f"greedy fill reached only {len(reached)} of {size} qubits from {start}"
            )
        block = frozenset(reached[:size])
        components.append(UserComponent(trust, block))
        free -= block
    return Allocation(unallocated=frozenset(free), components=tuple(components))


class OracleReport(NamedTuple):
    """Exhaustive optimum versus the algorithm's pick on one instance.

    ``gap`` is measured, never asserted: the greedy search may fall short
    of the exhaustive optimum on some instances.
    """

    optimum_safe_prefix: int
    optimum_allocations: tuple[CanonicalKey, ...]
    algorithm_safe_prefix: int
    complete_count: int

    @property
    def gap(self) -> int:
        """The optimum safe prefix minus the algorithm's."""
        return self.optimum_safe_prefix - self.algorithm_safe_prefix


def oracle_report(
    graph: ConnectivityGraph,
    sizes: SizeRequests,
    rates: Sequence[CrosstalkRate],
    config: SearchConfig = SearchConfig(),
) -> OracleReport:
    """Compare the search pipeline against exhaustive enumeration."""
    ordered = sort_rates(rates)
    complete_allocs = enumerate_complete(graph, sizes)
    prefixes = [(safe_prefix(alloc, ordered), alloc) for alloc in complete_allocs]
    optimum = max((prefix for prefix, _ in prefixes), default=0)
    witnesses = tuple(canonicalize(alloc) for prefix, alloc in prefixes if prefix == optimum)

    outcome = allocate(graph, sizes, rates, config)
    selected = select(outcome, graph)
    algorithm = safe_prefix(selected.allocation, ordered)
    return OracleReport(
        optimum_safe_prefix=optimum,
        optimum_allocations=witnesses,
        algorithm_safe_prefix=algorithm,
        complete_count=len(complete_allocs),
    )

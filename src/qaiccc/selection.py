"""Ranking and final selection of an allocation, plus the noise worklist.

The search's members, each a state and its attribute record, are sorted
by increasing score (then penalty), so the members that survived the
most rates come first and the initial all-unallocated state comes last.
The search keeps only members that can be completed, the initial state
aside, so the top entry alone is built into an :class:`Allocation` and
grown to exact request sizes.  Completion feasibility stands in for
transpilation success: connected components of the right sizes can be
realized with swap gates.

The worklist handed to downstream noise-reduction starts with the
selected allocation's recorded incidental rates and continues with the
sorted rate list from its ``last_rate`` onward, i.e. everything the
allocation does not protect against by construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .allocator import AllocationOutcome, Attributes
from .completion import RequestLabel, complete_allocation
from .errors import NoFeasibleAllocationError
from .model import (
    Allocation, ConnectivityGraph, CrosstalkRate, SearchState, allocation_of, sort_rates, state_key,
)


class SelectionResult(NamedTuple):
    """The chosen complete allocation, its request binding and worklist, and the ranking.

    ``ranking`` holds every member as its state and attribute record.
    """

    allocation: Allocation
    assignment: Mapping[RequestLabel, frozenset[int]]
    worklist: tuple[CrosstalkRate, ...]
    ranking: tuple[tuple[SearchState, Attributes], ...]


def rank(members: Iterable[tuple[SearchState, Attributes]]) -> list[tuple[SearchState, Attributes]]:
    """Ascending score, then penalty, then the state's canonical key; fully deterministic."""
    return sorted(members, key=lambda m: (m[1].score, m[1].penalty, state_key(m[0])))


def noise_worklist(
    selected: Allocation, rates: Sequence[CrosstalkRate]
) -> tuple[CrosstalkRate, ...]:
    """Rates left for downstream reduction, most urgent first.

    ``rates`` must be the allocator's sorted order.  The result is the
    selected allocation's incidental list followed by the suffix of
    ``rates`` starting at its ``last_rate`` (empty when unset), with
    duplicates dropped keeping the first occurrence.
    """
    ordered = list(rates)
    if ordered != list(sort_rates(ordered)):
        raise ValueError("rates must be sorted in the allocator's processing order")
    sequence: list[CrosstalkRate] = list(selected.incidental)
    if selected.last_rate is not None:
        try:
            start = ordered.index(selected.last_rate)
        except ValueError:
            raise ValueError("last_rate does not appear in the rate list") from None
        sequence += ordered[start:]
    return tuple(dict.fromkeys(sequence))


def select(outcome: AllocationOutcome, graph: ConnectivityGraph) -> SelectionResult:
    """Complete the outcome's top-ranked member and return it, with the ranking.

    Every member the search keeps can be completed, the initial state
    aside, which ranks last, so the top entry completes unless the
    outcome holds the initial state alone.  That entry becomes the one
    :class:`Allocation` handed to :func:`complete_allocation`.  Completion
    targets ``outcome.sizes`` (idle request included) and the worklist
    follows ``outcome.rates`` (already sorted).  Raises
    :class:`NoFeasibleAllocationError` when the top entry does not
    complete, i.e. the platform cannot host the requested circuit sizes
    at all.
    """
    ranking = tuple(rank(outcome.allocations))
    state, record = ranking[0]
    candidate = allocation_of(state, *record)
    completed = complete_allocation(candidate, graph, outcome.sizes)
    if completed is None:
        raise NoFeasibleAllocationError(
            "no allocation could be completed to the requested circuit sizes"
        )
    allocation, assignment = completed
    return SelectionResult(
        allocation=allocation,
        assignment=assignment,
        worklist=noise_worklist(candidate, outcome.rates),
        ranking=ranking,
    )

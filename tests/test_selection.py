"""Ranking, selection, and the noise worklist."""

from __future__ import annotations

import pytest

from qaiccc import (
    ConnectivityGraph,
    CrosstalkRate,
    NoFeasibleAllocationError,
    SizeRequests,
    allocate,
    canonicalize,
    noise_worklist,
    rank,
    select,
    sort_rates,
)
from qaiccc.allocator import Attributes
from qaiccc.completion import complete_allocation
from qaiccc.model import state_of

from conftest import build, built, u


class TestRank:
    def test_lowest_score_then_lowest_penalty_first(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        ranked = built(rank(outcome.allocations))
        assert canonicalize(ranked[0]) == canonicalize(
            build(5, u(0, 1), u(2, 3, 4))
        )
        assert ranked[0].penalty < ranked[1].penalty

    def test_initial_allocation_sorts_last(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        ranked = built(rank(outcome.allocations))
        assert ranked[-1].unallocated == demo_graph.qubits

    def test_full_tie_breaks_on_canonical_key(self):
        record = Attributes(0.5, 0.1)
        a = (state_of(build(5, u(2, 3))), record)
        b = (state_of(build(5, u(2, 4))), record)
        # The key leads with the unallocated set: {0,1,3} sorts before {0,1,4}.
        assert rank([b, a]) == rank([a, b]) == [b, a]


class TestComplete:
    def test_exact_fit_is_identity(self, demo_graph):
        allocation = build(5, u(0, 1), u(2, 3, 4))
        completed, _ = complete_allocation(allocation, demo_graph, SizeRequests(untrusted=(2, 3)))
        assert canonicalize(completed) == canonicalize(allocation)


class TestSelect:
    def test_running_instance_selects_the_low_penalty_allocation(
        self, demo_graph, demo_sizes, demo_rates
    ):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        result = select(outcome, demo_graph)
        assert canonicalize(result.allocation) == canonicalize(build(5, u(0, 1), u(2, 3, 4)))
        assert result.allocation.score == 0.0017
        assert result.allocation.penalty == 0.0
        assert result.allocation.last_rate == demo_rates[2]
        assert result.assignment[("untrusted", 0)] == frozenset({0, 1})
        assert result.assignment[("untrusted", 1)] == frozenset({2, 3, 4})

    def test_initial_allocation_is_the_last_resort(self, demo_graph):
        # Only the initial allocation is available; it completes greedily.
        outcome = allocate(demo_graph, SizeRequests(untrusted=(2, 3)), [])
        assert len(outcome.allocations) == 1
        result = select(outcome, demo_graph)
        assert result.allocation.unallocated == frozenset()
        assert len(result.allocation.components) == 2

    def test_no_connected_binding_anywhere_errors(self):
        two_cliques = ConnectivityGraph(4, frozenset({(0, 1), (2, 3)}))
        outcome = allocate(two_cliques, SizeRequests(untrusted=(3,)), [])
        with pytest.raises(NoFeasibleAllocationError):
            select(outcome, two_cliques)

    def test_idle_component_is_materialized(self, demo_graph):
        sizes = SizeRequests(untrusted=(2,))
        outcome = allocate(demo_graph, sizes, [])
        result = select(outcome, demo_graph)
        idle = result.assignment[("idle", 0)]
        assert len(idle) == 3
        assert demo_graph.is_connected(idle)
        covered = set()
        for qubits in result.assignment.values():
            assert not (covered & qubits)
            covered |= qubits
        assert covered == set(range(5))


class TestNoiseWorklist:
    def test_selected_allocation_worklist_is_the_last_rate_suffix(
        self, demo_graph, demo_sizes, demo_rates
    ):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        result = select(outcome, demo_graph)
        assert result.worklist == (demo_rates[2],)

    def test_empty_attributes_give_an_empty_worklist(self, demo_rates):
        allocation = build(5, u(0, 1), u(2, 3, 4))
        assert noise_worklist(allocation, sort_rates(demo_rates)) == ()

    def test_incidental_then_suffix_with_dedup(self):
        rates = sort_rates(
            [
                CrosstalkRate(0.005, frozenset({1}), frozenset({0})),
                CrosstalkRate(0.004, frozenset({2}), frozenset({0})),
                CrosstalkRate(0.003, frozenset({3}), frozenset({0})),
                CrosstalkRate(0.002, frozenset({4}), frozenset({0})),
            ]
        )
        allocation = build(
            6, u(0, 1), incidental=(rates[1], rates[3]), last_rate=rates[2]
        )
        assert noise_worklist(allocation, rates) == (rates[1], rates[3], rates[2])

    def test_unsorted_rates_are_rejected(self, demo_rates):
        allocation = build(5, u(0, 1))
        with pytest.raises(ValueError):
            noise_worklist(allocation, tuple(reversed(sort_rates(demo_rates))))

    def test_unknown_last_rate_is_rejected(self, demo_rates):
        stray = CrosstalkRate(0.5, frozenset({0}), frozenset({1}))
        allocation = build(5, u(0, 1), last_rate=stray)
        with pytest.raises(ValueError):
            noise_worklist(allocation, sort_rates(demo_rates))

"""Exhaustive enumeration, replay checking, and the greedy baseline."""

from __future__ import annotations

import itertools

import pytest

from qaiccc import (
    Allocation,
    BaselineInfeasibleError,
    ConnectivityGraph,
    InstanceTooLargeError,
    InsufficientQubitsError,
    SizeRequests,
    allocate,
    baseline_naive,
    canonicalize,
    enumerate_complete,
    oracle_report,
    replay_check,
    safe_prefix,
    sort_rates,
    validate_allocation,
)
from qaiccc import oracle
from qaiccc.oracle import count_complete

from conftest import HEAVY_HEX_27, build, built, key_of, u


class TestEnumerateComplete:
    def test_demo_partitions(self, demo_graph, demo_sizes):
        allocations = enumerate_complete(demo_graph, demo_sizes)
        got = {canonicalize(a) for a in allocations}
        assert key_of([0, 1], [2, 3, 4]) in got
        assert key_of([0, 1, 2], [3, 4]) in got
        # No partition may contain the disconnected pair {1,4}.
        for allocation in allocations:
            assert frozenset({1, 4}) not in {c.qubits for c in allocation.components}
            assert validate_allocation(allocation, demo_graph) == []
        assert len(got) == 2

    def test_path_graph_single_partition(self):
        path = ConnectivityGraph(3, frozenset({(0, 1), (1, 2)}))
        allocations = enumerate_complete(path, SizeRequests(untrusted=(3,)))
        assert [canonicalize(a) for a in allocations] == [key_of([0, 1, 2], n=3)]

    def test_the_worst_mix_on_eight_qubits_fits_the_budget(self):
        # K8 with trusted (2,1) and untrusted (2,1) takes 37,103 steps, the
        # most of any request mix on K1-K8.  A platform of at most 8 qubits
        # is a subgraph of its Kn: it enters no partial partition Kn does
        # not, and no block walk of it has a node Kn's walk lacks.
        k8 = ConnectivityGraph(8, frozenset(itertools.combinations(range(8), 2)))
        sizes = SizeRequests(trusted=(2, 1), untrusted=(2, 1))
        assert len(enumerate_complete(k8, sizes)) == 2520

    @pytest.mark.parametrize(
        "untrusted, count", [((5, 5, 5), 28), ((4, 4, 4, 4), 33), ((3, 3, 3), 74)]
    )
    def test_heavy_hex_27_is_enumerated(self, untrusted, count):
        allocations = enumerate_complete(HEAVY_HEX_27, SizeRequests(untrusted=untrusted))
        assert len(allocations) == count
        assert all(validate_allocation(a, HEAVY_HEX_27) == [] for a in allocations)

    def test_passing_the_budget_raises_and_names_it(self, demo_graph, demo_sizes, monkeypatch):
        # The demo instance takes 45 steps: 45 is enough, 44 is not.
        monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 45)
        assert len(enumerate_complete(demo_graph, demo_sizes)) == 2
        monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 44)
        with pytest.raises(InstanceTooLargeError, match="work budget of 44 steps"):
            enumerate_complete(demo_graph, demo_sizes)

    def test_block_walks_count_against_the_budget(self, monkeypatch):
        # K8 plus four isolated qubits cannot hold a 9-block.  The
        # enumeration enters 22 partial partitions, but its block walks
        # take 465 steps in all, so a budget of 100 is passed.
        graph = ConnectivityGraph(12, frozenset(itertools.combinations(range(8), 2)))
        sizes = SizeRequests(untrusted=(9,))
        assert enumerate_complete(graph, sizes) == ()
        monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 100)
        with pytest.raises(InstanceTooLargeError, match="work budget of 100 steps"):
            enumerate_complete(graph, sizes)

    @pytest.mark.parametrize("untrusted, count", [((1,) * 1200, 1), ((2,), 2)])
    def test_a_long_line_is_enumerated_without_recursion(self, untrusted, count):
        # 1,200 one-qubit blocks, or an idle block of 1,198 qubits: either
        # is deeper than the interpreter's recursion limit.
        line = ConnectivityGraph(1200, frozenset((i, i + 1) for i in range(1199)))
        sizes = SizeRequests(untrusted=untrusted)
        assert len(enumerate_complete(line, sizes)) == count

    def test_requests_are_sized_before_the_enumeration(self):
        line = ConnectivityGraph(9, frozenset((i, i + 1) for i in range(8)))
        with pytest.raises(InsufficientQubitsError):
            enumerate_complete(line, SizeRequests(untrusted=(5, 5)))

    def test_count_self_consistency(self, demo_graph, demo_sizes, family):
        assert count_complete(demo_graph, demo_sizes) == len(
            enumerate_complete(demo_graph, demo_sizes)
        )
        for instance in family[:8]:
            assert count_complete(instance.graph, instance.sizes) == len(
                enumerate_complete(instance.graph, instance.sizes)
            )

    def test_equal_sizes_are_not_double_counted(self):
        square = ConnectivityGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        sizes = SizeRequests(untrusted=(2, 2))
        allocations = enumerate_complete(square, sizes)
        assert len(allocations) == count_complete(square, sizes) == 2


class TestSafePrefix:
    def test_selected_allocation_survives_two_rates(self, demo_rates):
        ordered = sort_rates(demo_rates)
        assert safe_prefix(build(5, u(0, 1), u(2, 3, 4)), ordered) == 2

    def test_attack_enabling_allocation_survives_none(self, demo_rates):
        ordered = sort_rates(demo_rates)
        assert safe_prefix(build(5, u(0, 1, 2), u(3, 4)), ordered) == 0

    def test_empty_rate_list_gives_zero(self):
        assert safe_prefix(build(5, u(0, 1), u(2, 3, 4)), ()) == 0


class TestReplayCheck:
    def test_every_search_output_replays_clean(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        for allocation in built(outcome.allocations):
            report = replay_check(allocation, outcome.rates)
            assert report.ok, report.mismatches

    def test_expected_penalties_match_the_narrative(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        by_key = {canonicalize(a): a for a in built(outcome.allocations)}
        selected = by_key[key_of([0, 1], [2, 3, 4])]
        report = replay_check(selected, outcome.rates)
        assert report.ok
        assert report.expected_penalty == 0.0
        assert report.expected_incidental == ()
        assert report.expected_last_rate == demo_rates[2]
        partial = by_key[key_of([0, 1], [2, 3])]
        assert replay_check(partial, outcome.rates).expected_penalty == 0.0027

    def test_tampered_penalty_is_flagged(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        victim = built(outcome.allocations)[1]
        tampered = Allocation(
            victim.unallocated, victim.components, victim.score, victim.penalty + 1.0,
            victim.incidental, victim.last_rate,
        )
        report = replay_check(tampered, outcome.rates)
        assert not report.ok
        assert any("penalty" in m for m in report.mismatches)


class TestBaselineNaive:
    def test_request_order_drives_the_greedy_fill(self, demo_graph):
        allocation = baseline_naive(demo_graph, SizeRequests(untrusted=(3, 2)))
        assert canonicalize(allocation) == key_of([0, 1, 2], [3, 4])

    def test_single_full_request_takes_everything(self, demo_graph):
        allocation = baseline_naive(demo_graph, SizeRequests(untrusted=(5,)))
        assert canonicalize(allocation) == key_of([0, 1, 2, 3, 4])

    def test_idle_request_is_filled_too(self, demo_graph):
        allocation = baseline_naive(demo_graph, SizeRequests(untrusted=(2,)))
        assert canonicalize(allocation) == key_of([0, 1], [2, 3, 4])
        assert allocation.unallocated == frozenset()

    def test_stuck_greedy_raises(self):
        two_cliques = ConnectivityGraph(4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(BaselineInfeasibleError):
            baseline_naive(two_cliques, SizeRequests(untrusted=(3, 1)))


class TestOracleReport:
    def test_demo_instance_has_gap_zero(self, demo_graph, demo_sizes, demo_rates):
        report = oracle_report(demo_graph, demo_sizes, demo_rates)
        assert report.optimum_safe_prefix == 2
        assert report.algorithm_safe_prefix == 2
        assert report.gap == 0
        assert report.optimum_allocations == (key_of([0, 1], [2, 3, 4]),)

    def test_zero_rates_make_every_partition_optimal(self, demo_graph, demo_sizes):
        report = oracle_report(demo_graph, demo_sizes, [])
        assert report.optimum_safe_prefix == 0
        assert report.gap == 0
        assert len(report.optimum_allocations) == report.complete_count

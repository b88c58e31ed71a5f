"""Cross-module invariants over the seeded instance family.

Each instance is a random connected 5-to-7-qubit platform with requests
summing below the platform size (so the idle user always appears) and a
deterministic synthetic rate list.  The whole pipeline must hold its
invariants on every one of them.
"""

from __future__ import annotations

import pytest

from qaiccc import (
    allocate,
    baseline_naive,
    canonicalize,
    enumerate_complete,
    is_safe,
    oracle_report,
    replay_check,
    safe_prefix,
    select,
    validate_allocation,
)
from qaiccc.completion import complete_allocation
from qaiccc.errors import BaselineInfeasibleError


@pytest.fixture(scope="module")
def runs(family):
    out = []
    for instance in family:
        outcome = allocate(instance.graph, instance.sizes, instance.rates)
        result = select(outcome, instance.graph)
        out.append((instance, outcome, result))
    return out


def test_family_is_the_expected_size(family):
    assert len(family) == 20
    for instance in family:
        assert 5 <= instance.graph.vertex_count <= 7
        assert instance.sizes.total() < instance.graph.vertex_count


def test_every_search_output_is_structurally_valid(runs):
    for instance, outcome, _ in runs:
        for allocation in outcome.allocations:
            assert validate_allocation(allocation, instance.graph) == []


def test_selected_allocation_covers_every_qubit_once(runs):
    for instance, outcome, result in runs:
        assert outcome.sizes.idle_size is not None
        covered: set[int] = set()
        for label, qubits in result.assignment.items():
            assert not (covered & qubits), f"seed {instance.seed}: double assignment"
            covered |= qubits
        assert covered == set(range(instance.graph.vertex_count))
        idle = result.assignment[("idle", 0)]
        assert instance.graph.is_connected(idle)
        assert len(idle) == outcome.sizes.idle_size
        assert validate_allocation(result.allocation, instance.graph) == []


def test_safety_closure_on_every_returned_allocation(runs):
    for instance, outcome, _ in runs:
        for allocation in outcome.allocations:
            if allocation.last_rate is None:
                prefix = outcome.rates
            else:
                position = outcome.rates.index(allocation.last_rate)
                prefix = outcome.rates[:position]
                assert not is_safe(allocation, allocation.last_rate).safe
            for rate in prefix:
                assert is_safe(allocation, rate).safe, (
                    f"seed {instance.seed}: unsafe for a rate above last_rate"
                )


def test_no_two_results_share_a_canonical_key(runs):
    for instance, outcome, _ in runs:
        keys = [canonicalize(a) for a in outcome.allocations]
        assert len(keys) == len(set(keys)), f"seed {instance.seed}: duplicate structure"


def test_replay_reproduces_every_attribute_set(runs):
    for instance, outcome, _ in runs:
        for allocation in outcome.allocations:
            report = replay_check(allocation, outcome.rates)
            assert report.ok, f"seed {instance.seed}: {report.mismatches}"


def test_penalty_is_the_sum_of_incidental_scores(runs):
    for _, outcome, _ in runs:
        for allocation in outcome.allocations:
            assert abs(allocation.penalty - sum(r.score for r in allocation.incidental)) <= 1e-12


def test_algorithm_never_loses_to_the_greedy_baseline(runs):
    for instance, outcome, result in runs:
        algorithm = safe_prefix(result.allocation, outcome.rates)
        try:
            baseline = baseline_naive(instance.graph, instance.sizes)
        except BaselineInfeasibleError:
            continue
        assert algorithm >= safe_prefix(baseline, outcome.rates), (
            f"seed {instance.seed}: baseline beat the search"
        )


def test_oracle_gap_is_reported_and_non_negative_nowhere_required(runs):
    # The gap is measured, not asserted to be zero; it must simply be
    # consistent with the exhaustive optimum.
    for instance, outcome, result in runs[:6]:
        report = oracle_report(instance.graph, instance.sizes, instance.rates)
        assert report.algorithm_safe_prefix == safe_prefix(result.allocation, outcome.rates)
        assert report.optimum_safe_prefix >= 0
        assert report.gap == report.optimum_safe_prefix - report.algorithm_safe_prefix


def test_end_to_end_determinism(family):
    for instance in family[:5]:
        a = allocate(instance.graph, instance.sizes, instance.rates)
        b = allocate(instance.graph, instance.sizes, tuple(reversed(instance.rates)))
        assert a == b


def test_completion_preserves_the_safe_prefix(runs):
    # Growing components and materializing the idle user never breaks a
    # pattern that was already safe.
    for instance, outcome, result in runs:
        ranked_prefixes = [
            safe_prefix(a, outcome.rates) for a in outcome.allocations
            if canonicalize(a) != canonicalize(result.allocation)
        ]
        selected_partial = None
        for allocation in outcome.allocations:
            done, _ = complete_allocation(allocation, instance.graph, outcome.sizes)
            if canonicalize(done) == canonicalize(result.allocation):
                selected_partial = allocation
                break
        assert selected_partial is not None
        assert safe_prefix(result.allocation, outcome.rates) >= safe_prefix(
            selected_partial, outcome.rates
        )


def test_instance_feasibility_precheck_holds(family):
    for instance in family:
        assert enumerate_complete(instance.graph, instance.sizes)

"""Cross-module invariants over the seeded instance family and generated instances.

Each family instance is a random connected 5-to-7-qubit platform with
requests summing below the platform size (so the idle user always
appears) and a deterministic synthetic rate list.  The whole pipeline
must hold its invariants on every one of them, and on the instances
``hypothesis`` generates: connected platforms of at most 8 qubits with
random trusted and untrusted requests and random rates.
"""

from __future__ import annotations

import contextlib
import math
import random
from unittest import mock

import pytest
from conftest import built, instance_family
from test_allocator import list_reference_allocate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qaiccc import (
    ConnectivityGraph,
    CrosstalkRate,
    SearchConfig,
    SizeRequests,
    allocate,
    baseline_naive,
    canonicalize,
    enumerate_complete,
    is_safe,
    noise_worklist,
    oracle_report,
    rank,
    replay_check,
    safe_prefix,
    select,
    validate_allocation,
)
from qaiccc import allocator
from qaiccc.cli import EXIT_OK, RunReport, format_rate, format_structure, main, render_text
from qaiccc.completion import complete_allocation, request_slots
from qaiccc.errors import BaselineInfeasibleError, NoFeasibleAllocationError
from qaiccc.ingest import save_platform, save_rates, save_requests
from qaiccc.model import allocation_of, mask_qubits
from qaiccc.safety import state_verdict


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
        for allocation in built(outcome.allocations):
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
        for allocation in built(outcome.allocations):
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
        keys = [canonicalize(a) for a in built(outcome.allocations)]
        assert len(keys) == len(set(keys)), f"seed {instance.seed}: duplicate structure"


def test_replay_reproduces_every_attribute_set(runs):
    for instance, outcome, _ in runs:
        for allocation in built(outcome.allocations):
            report = replay_check(allocation, outcome.rates)
            assert report.ok, f"seed {instance.seed}: {report.mismatches}"


def test_penalty_is_the_sum_of_incidental_scores(runs):
    for _, outcome, _ in runs:
        for allocation in built(outcome.allocations):
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
        selected_partial = None
        for allocation in built(outcome.allocations):
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


def test_shuffling_the_rates_file_keeps_the_report(family, tmp_path):
    # The search sorts the rates itself, so the order of the file is not an input.
    rng = random.Random(0)
    for instance in family:
        save_platform(instance.graph, tmp_path / "platform.json")
        save_requests(instance.sizes, tmp_path / "requests.json")
        shuffled = rng.sample(instance.rates, len(instance.rates))
        assert shuffled != list(instance.rates)
        reports = []
        for name, rates in (("sorted", instance.rates), ("shuffled", shuffled)):
            save_rates(rates, tmp_path / f"{name}.json")
            out = tmp_path / f"{name}-report.json"
            argv = [
                "allocate", "--no-timings", "--output", str(out),
                "--platform", str(tmp_path / "platform.json"),
                "--requests", str(tmp_path / "requests.json"),
                "--rates", str(tmp_path / f"{name}.json"),
            ]
            assert main(argv) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], f"seed {instance.seed}"


def _selection(instance, rates):
    result = select(allocate(instance.graph, instance.sizes, rates), instance.graph)
    pairs = [(sorted(rate.impacting), sorted(rate.impacted)) for rate in result.worklist]
    return canonicalize(result.allocation), pairs


@pytest.fixture(scope="module")
def unscaled():
    return [(instance, _selection(instance, instance.rates)) for instance in instance_family(60)]


@pytest.mark.parametrize("power", [-900, -60, 70, 900])
def test_scaling_every_score_keeps_the_selection_and_worklist(unscaled, power):
    # Only the order of scores and of penalty sums matters, and a power of
    # two scales these scores, and the sums of them, exactly.
    for instance, expected in unscaled:
        rates = [
            CrosstalkRate(math.ldexp(rate.score, power), rate.impacting, rate.impacted)
            for rate in instance.rates
        ]
        assert all(math.ldexp(r.score, -power) == s.score for r, s in zip(rates, instance.rates))
        assert _selection(instance, rates) == expected, f"seed {instance.seed}, 2**{power}"


_SHAPES = ((1, 1), (2, 1), (2, 2))


@st.composite
def pipeline_instances(draw):
    """A connected platform of at most 8 qubits, requests fitting it, and rates on it."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}  # a spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    graph = ConnectivityGraph(n, frozenset(edges))
    sizes = draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
    kept: list[int] = []
    for size in sizes:
        if sum(kept) + size <= n:
            kept.append(size)
    trusted = draw(st.lists(st.booleans(), min_size=len(kept), max_size=len(kept)))
    requests = SizeRequests(
        trusted=tuple(size for size, t in zip(kept, trusted) if t),
        untrusted=tuple(size for size, t in zip(kept, trusted) if not t),
    )
    rates: dict[tuple, CrosstalkRate] = {}
    for _ in range(draw(st.integers(0, 8))):
        impacting_count, impacted_count = draw(st.sampled_from(_SHAPES))
        group = [draw(st.integers(0, n - 1))]
        while len(group) < impacting_count + impacted_count:
            frontier = sorted({m for q in group for m in graph.neighbors(q)} - set(group))
            if not frontier:
                break
            group.append(draw(st.sampled_from(frontier)))
        if len(group) < impacting_count + impacted_count:
            continue
        group = draw(st.permutations(group))
        impacting, impacted = frozenset(group[:impacting_count]), frozenset(group[impacting_count:])
        score = draw(st.floats(1e-4, 1e-2) | st.sampled_from([0.0, 1e-3]))
        rates[(impacting, impacted)] = CrosstalkRate(score, impacting, impacted)
    return graph, requests, tuple(rates.values())


def _extends(structure, allocation):
    """Does the complete ``structure`` hold each component in a block of its own, of its trust?"""
    blocks = [
        next(b for b in structure.components if min(c.qubits) in b.qubits)
        for c in allocation.components
    ]
    return len(set(blocks)) == len(blocks) and all(
        b.trust is c.trust and c.qubits <= b.qubits for b, c in zip(blocks, allocation.components)
    )


_STAR = ConnectivityGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
_LINE = ConnectivityGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))


@settings(max_examples=60, deadline=None)
@given(pipeline_instances())
@example(  # infeasible: every 2-block of the star holds its centre
    (_STAR, SizeRequests(untrusted=(2, 2)), (CrosstalkRate(0.5, frozenset({1}), frozenset({0})),))
)
@example(  # trusted requests only; the idle user takes the last qubit
    (
        _LINE,
        SizeRequests(trusted=(1, 2)),
        (
            CrosstalkRate(0.5, frozenset({1, 2}), frozenset({3})),
            CrosstalkRate(0.25, frozenset({0}), frozenset({1})),
        ),
    )
)
def test_generated_instances_hold_every_pipeline_invariant(instance):
    graph, requests, rates = instance
    outcome = allocate(graph, requests, rates)
    assert allocate(graph, requests, rates) == outcome
    structures = enumerate_complete(graph, requests)
    if not structures:
        with pytest.raises(NoFeasibleAllocationError):
            select(outcome, graph)
        return
    result = select(outcome, graph)
    assert select(outcome, graph) == result
    selected = result.allocation
    assert validate_allocation(selected, graph) == []
    assert not selected.unallocated
    for label, trust, size in request_slots(outcome.sizes):
        qubits = result.assignment[label]
        assert len(qubits) == size and graph.is_connected(qubits)
        assert any(c.trust is trust and c.qubits == qubits for c in selected.components)
    # Every state the search keeps passed its completability check, so the
    # oracle's complete set extends every ranked entry, and the candidate
    # select completed is the first one.
    ranking = built(result.ranking)
    for ranked in ranking:
        assert any(_extends(s, ranked) for s in structures), ranked
    candidate = ranking[0]
    completed = complete_allocation(candidate, graph, outcome.sizes)
    assert completed is not None and canonicalize(completed[0]) == canonicalize(selected)
    assert safe_prefix(selected, outcome.rates) >= safe_prefix(candidate, outcome.rates)
    for ranked in ranking:
        report = replay_check(ranked, outcome.rates)
        assert report.ok, report.mismatches


# The guards in ``replay_state`` (unsafe on replay) and ``new_alloc`` (a
# disconnected merge) serve direct callers only: the search never calls
# ``new_alloc`` and hands its merges straight to the builder ``_fused``.
# These two properties pin why: inside ``allocate`` neither guard could fire.

_CONFIGS = st.builds(
    SearchConfig,
    max_population=st.none() | st.integers(1, 5),
    max_paths_per_connect=st.sampled_from([1, 3, 64]),
)


@settings(max_examples=200, deadline=None)
@given(pipeline_instances(), _CONFIGS)
def test_every_candidate_the_search_offers_is_safe_for_every_handled_rate(instance, config):
    # Repairs only grow or fuse same-trust components out of free qubits
    # and never free one, so a pattern safe for an earlier rate stays safe.
    graph, requests, rates = instance
    with mock.patch.object(
        allocator, "update_population", wraps=allocator.update_population
    ) as offered:
        allocate(graph, requests, rates, config)
    for call in offered.call_args_list:
        candidates, _, _, processed, _ = call.args
        for state in candidates:
            for rate, impacting, impacted, _ in processed:
                assert state_verdict(state, impacting, impacted).safe, (state, rate)


@settings(max_examples=200, deadline=None)
@given(pipeline_instances(), _CONFIGS)
def test_every_merge_the_search_asks_for_is_connected(instance, config):
    # A rate's qubits are a connected group (``allocate`` checks it), a
    # join's region is connected and holds its base, and every component
    # fused in is connected and meets the region.  ``_fused`` builds every
    # merge ``improve_alloc`` asks for (one region, the rate's qubits) and
    # every join's states.
    graph, requests, rates = instance
    with mock.patch.object(allocator, "_fused", wraps=allocator._fused) as merges:
        allocate(graph, requests, rates, config)
    for call in merges.call_args_list:
        (free, components), _, base, regions, _ = call.args
        for region in regions:
            fused = region
            for _, mask in components:
                if mask & base:
                    fused |= mask
            assert graph.is_connected(mask_qubits(fused)), (free, components, region)


def is_state(entry):
    """``entry`` is a bitmask state: a free mask and ``(trust, mask)`` components, no record."""
    free, components = entry
    return type(free) is int and all(type(mask) is int for _, mask in components)


@settings(max_examples=200, deadline=None)
@given(pipeline_instances(), _CONFIGS)
def test_each_step_holds_the_replayed_attributes_of_its_members(instance, config):
    # The search updates a surviving member's attributes rate by rate; a
    # replay of the rates handled so far must give the record the list
    # reference keeps for it.  A step names states only: each record is
    # held once, by the population or the archive.
    graph, requests, rates = instance
    assume(requests.trusted)
    outcome = allocate(graph, requests, rates, config)
    _, records = list_reference_allocate(graph, requests, rates, config)
    assert len(records) == len(outcome.steps)
    handled = [allocator.rate_masks(rate) for rate in outcome.rates]
    archive = dict(outcome.archive)
    for index, (step, (rate, alive, retired)) in enumerate(zip(outcome.steps, records)):
        assert step.rate == outcome.rates[index] == rate
        listed = step.population + step.archived
        assert all(map(is_state, listed))
        assert not any(isinstance(entry, allocator.Attributes) for entry in listed)
        assert step.population == tuple(state for state, _ in alive)
        for state, attributes in alive:
            assert attributes == allocator.replay_state(state, handled[: index + 1])
        assert step.archived == tuple(state for state, _ in retired)
        for state, attributes in retired:
            assert attributes.last_rate == step.rate and archive[state] == attributes
            if state[1]:  # the initial member carries the start score, which no replay gives
                before = allocator.replay_state(state, handled[:index])
                assert attributes == before._replace(last_rate=step.rate)
    if outcome.steps:
        assert tuple(state for state, _ in outcome.population) == outcome.steps[-1].population


def parent_verbose_lines(records, rate_count, halted):
    """The per-rate lines of ``render_text(..., verbose=True)`` when each step held its records.

    A frozen copy of that loop: ``records`` holds each rate with its
    members as ``(state, record)`` pairs, the population after it and the
    members it retired.
    """
    for step_index, (rate, alive, retired) in enumerate(records, start=1):
        yield f"rate {step_index}/{rate_count}: {format_rate(rate)}\n"
        for state, _ in retired:
            yield f"  archived: {format_structure(state)}\n"
        yield f"  population ({len(alive)}):\n"
        for state, member in alive:
            yield (
                f"    {format_structure(state)} "
                f"score={member.score!r} penalty={member.penalty!r}\n"
            )
    if halted:
        yield "population empty: search stopped\n"


@settings(max_examples=200, deadline=None)
@given(pipeline_instances(), _CONFIGS)
def test_verbose_text_prints_the_records_the_list_reference_keeps(instance, config):
    # The snapshots name states only, and the view replays each live
    # member's score and penalty: every line, float bits included, must be
    # the one the records the search used to keep per rate would print.
    graph, requests, rates = instance
    outcome = allocate(graph, requests, rates, config)
    try:
        selected = select(outcome, graph)
    except NoFeasibleAllocationError:  # the command writes no report
        assume(False)
    reference, records = list_reference_allocate(graph, requests, rates, config)
    report = RunReport(outcome.sizes, config, selected, None)
    plain = list(render_text(report, outcome, False))
    expected = list(parent_verbose_lines(records, len(reference.rates), reference.halted))
    assert list(render_text(report, outcome, True)) == plain[:2] + expected + plain[2:]


# The ranking on (state, record) pairs against the ranking on allocations it
# replaced: frozen copies of that ``rank`` and of the outcome's allocations.


def reference_rank(allocations):
    """``rank`` on allocations, keyed by ``canonicalize``."""
    return sorted(allocations, key=lambda a: (a.score, a.penalty, canonicalize(a)))


def reference_select(outcome, graph):
    """The ranking and selection on the outcome's members built as allocations.

    Returns the ranking and, when an entry completes, the completed
    allocation, its assignment and the worklist, or None when none does.
    """
    allocations = [allocation_of(state, *record) for state, record in outcome.population]
    allocations += [allocation_of(state, *record) for state, record in outcome.archive]
    ranking = reference_rank(allocations)
    for candidate in ranking:
        completed = complete_allocation(candidate, graph, outcome.sizes)
        if completed is not None:
            return ranking, (*completed, noise_worklist(candidate, outcome.rates))
    return ranking, None


def check_selection_is_unchanged(graph, sizes, rates, config=SearchConfig()):
    outcome = allocate(graph, sizes, rates, config)
    ranking, expected = reference_select(outcome, graph)
    assert built(rank(outcome.allocations)) == ranking
    if expected is None:
        with pytest.raises(NoFeasibleAllocationError):
            select(outcome, graph)
        return
    result = select(outcome, graph)
    assert built(result.ranking) == ranking
    assert (result.allocation, result.assignment, result.worklist) == expected


def test_the_family_selects_what_the_ranking_on_allocations_selected(family):
    for instance in family:
        for config in (SearchConfig(), SearchConfig(max_population=2)):
            check_selection_is_unchanged(instance.graph, instance.sizes, instance.rates, config)


@settings(max_examples=200, deadline=None)
@given(pipeline_instances(), _CONFIGS)
@example((_STAR, SizeRequests(untrusted=(2, 2)), (CrosstalkRate(0.5, frozenset({1}), frozenset({0})),)),
         SearchConfig())  # infeasible: every 2-block of the star holds its centre
def test_generated_instances_select_what_the_ranking_on_allocations_selected(instance, config):
    check_selection_is_unchanged(*instance, config)


# The search keeps a state only when it can be completed (``_fused``'s host
# blocks or ``completable``), so ``select`` completes the top entry alone.


@pytest.mark.parametrize("route", ["index", "decider"])
@settings(max_examples=150, deadline=None)
@given(
    pipeline_instances(),
    st.sampled_from(
        [SearchConfig(), SearchConfig(max_population=2), SearchConfig(max_paths_per_connect=1)]
    ),
)
def test_every_member_completes_and_select_completes_the_top_entry(route, instance, config):
    # With no index, ``decide`` answers every verdict the search asks for.
    graph, requests, rates = instance
    unindexed = mock.patch.object(allocator, "completion_index", return_value=None)
    with unindexed if route == "decider" else contextlib.nullcontext():
        outcome = allocate(graph, requests, rates, config)
    members = built(outcome.allocations)
    if len(members) > 1:
        for member in members:
            assert complete_allocation(member, graph, outcome.sizes) is not None, member
    ranking = rank(outcome.allocations)
    top = built(ranking[:1])[0]
    expected = complete_allocation(top, graph, outcome.sizes)
    if expected is None:
        assert members == [top] and not top.components
        with pytest.raises(NoFeasibleAllocationError):
            select(outcome, graph)
        return
    result = select(outcome, graph)
    assert result.ranking == tuple(ranking)
    assert (result.allocation, result.assignment) == expected
    assert result.worklist == noise_worklist(top, outcome.rates)

"""The allocation search and its auxiliary operations."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from qaiccc import (
    Allocation,
    AllocationOutcome,
    ConnectivityGraph,
    CrosstalkRate,
    InsufficientQubitsError,
    SearchConfig,
    SizeRequests,
    Trust,
    UserComponent,
    allocate,
    canonicalize,
    involved_parties,
    is_safe,
    sort_rates,
    validate_allocation,
)
from qaiccc.allocator import (
    RateStep,
    alloc_impacted,
    alloc_trusted,
    alloc_unallocated,
    archive_alloc,
    connect,
    eval_alloc,
    improve_alloc,
    new_alloc,
    replay_attributes,
    update_population,
    update_sizes,
)
from qaiccc.model import dedup_allocations
from qaiccc.sizing import allocation_feasible

CFG = SearchConfig()


def u(*qubits):
    return UserComponent(Trust.UNTRUSTED, frozenset(qubits))


def t(*qubits):
    return UserComponent(Trust.TRUSTED, frozenset(qubits))


def build(n, *components):
    used = frozenset().union(*(c.qubits for c in components)) if components else frozenset()
    return Allocation(unallocated=frozenset(range(n)) - used, components=components)


def keys(allocations):
    return {canonicalize(a) for a in allocations}


def structure(*component_qubit_lists, trust=Trust.UNTRUSTED, n=5):
    comps = tuple(UserComponent(trust, frozenset(qs)) for qs in component_qubit_lists)
    return canonicalize(build(n, *comps))


class TestUpdateSizes:
    def test_full_requests_need_no_idle(self):
        sizes = SizeRequests(untrusted=(2, 3))
        assert update_sizes(5, sizes) == sizes

    def test_idle_absorbs_the_rest(self):
        assert update_sizes(5, SizeRequests(untrusted=(2,))).idle_size == 3

    def test_idle_accounts_for_both_classes(self):
        sizes = update_sizes(5, SizeRequests(trusted=(2,), untrusted=(2,)))
        assert sizes.idle_size == 1
        assert sizes.total() == 5

    def test_oversubscription_is_rejected(self):
        with pytest.raises(InsufficientQubitsError):
            update_sizes(5, SizeRequests(untrusted=(6,)))


class TestEvalAlloc:
    def test_unallocated_involved_qubit_accrues_penalty(self, demo_rates):
        allocation = build(5, u(2, 3))
        updated = eval_alloc(allocation, demo_rates[0])
        assert updated.score == 0.0027
        assert updated.penalty == 0.0027
        assert updated.incidental == (demo_rates[0],)

    def test_single_owner_holding_everything_pays_nothing(self, demo_rates):
        updated = eval_alloc(build(5, u(2, 3, 4)), demo_rates[0])
        assert updated.score == 0.0027
        assert updated.penalty == 0.0
        assert updated.incidental == ()

    def test_repeated_evaluation_is_additive(self, demo_rates):
        allocation = build(5, u(2, 3))
        twice = eval_alloc(eval_alloc(allocation, demo_rates[0]), demo_rates[0])
        assert twice.penalty == pytest.approx(2 * 0.0027, abs=1e-15)
        assert len(twice.incidental) == 2


class TestConnect:
    def test_adjacent_qubit_joins_without_connectors(self, demo_graph):
        allocation = build(5, u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        results = connect(allocation, frozenset({2, 3}), frozenset({4}), demo_graph, sizes, CFG)
        assert keys(results) == {structure([2, 3, 4])}

    def test_unreachable_qubit_yields_nothing(self, demo_graph):
        allocation = build(5, u(0, 1), u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        results = connect(allocation, frozenset({0, 1}), frozenset({4}), demo_graph, sizes, CFG)
        assert results == []

    def test_empty_user_creates_a_fresh_singleton(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        results = connect(
            allocation, frozenset(), frozenset({2}), demo_graph, sizes, CFG,
            fresh_trust=Trust.UNTRUSTED,
        )
        assert structure([2]) in keys(results)

    def test_negative_budget_yields_nothing(self, demo_graph):
        allocation = build(5, u(2, 3, 4))
        sizes = SizeRequests(untrusted=(2, 3))
        # The component is already at the largest request size.
        results = connect(allocation, frozenset({2, 3, 4}), frozenset({0}), demo_graph, sizes, CFG)
        assert results == []

    def test_path_cap_limits_enumeration(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(5,))
        capped = connect(
            allocation, frozenset(), frozenset({2}), demo_graph, sizes,
            SearchConfig(max_paths_per_connect=1), fresh_trust=Trust.UNTRUSTED,
        )
        uncapped = connect(
            allocation, frozenset(), frozenset({2}), demo_graph, sizes, CFG,
            fresh_trust=Trust.UNTRUSTED,
        )
        assert len(capped) == 1
        assert len(uncapped) > len(capped)


class TestNewAlloc:
    def test_fresh_single_user_over_unallocated_qubits(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = new_alloc(
            allocation, frozenset({2, 3, 4}), demo_graph, sizes, fresh_trust=Trust.UNTRUSTED
        )
        assert candidate is not None
        assert canonicalize(candidate) == structure([2, 3, 4])

    def test_growth_that_strands_the_remaining_qubits_is_rejected(self, demo_graph):
        # {0,2,3} is connected and fits the 3-request, but the leftover
        # {1,4} cannot host the 2-circuit (1 and 4 are not adjacent), so
        # the configuration is withdrawn at generation time.
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = new_alloc(
            allocation, frozenset({0, 2, 3}), demo_graph, sizes, fresh_trust=Trust.UNTRUSTED
        )
        assert candidate is None

    def test_cross_trust_merge_is_rejected(self, demo_graph):
        allocation = build(5, t(0, 1), u(2, 3))
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        assert new_alloc(allocation, frozenset({1, 2}), demo_graph, sizes) is None

    def test_disconnected_merge_is_rejected(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        assert (
            new_alloc(allocation, frozenset({1, 4}), demo_graph, sizes, fresh_trust=Trust.UNTRUSTED)
            is None
        )


class TestAllocUnallocated:
    def test_fresh_user_branch_reaches_the_bare_impacted_qubit(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        results = alloc_unallocated(allocation, frozenset({2}), demo_graph, sizes, CFG)
        assert structure([2]) in keys(results)
        for result in results:
            assert 2 not in result.unallocated

    def test_already_owned_impacted_qubit_passes_through(self, demo_graph):
        allocation = build(5, u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        results = alloc_unallocated(allocation, frozenset({2}), demo_graph, sizes, CFG)
        assert keys(results) == {canonicalize(allocation)}

    def test_no_viable_branch_gives_empty_set(self):
        line = ConnectivityGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
        allocation = build(5, u(0, 1))
        sizes = SizeRequests(untrusted=(2,))
        results = alloc_unallocated(allocation, frozenset({3}), line, sizes, CFG)
        assert results == []
        # Brute-force cross-check: every way of allocating qubit 3 in one
        # step breaks size feasibility (the lone 2-request is taken).
        free = frozenset({2, 3, 4})
        for extra in itertools.chain.from_iterable(
            itertools.combinations(sorted(free - {3}), k) for k in range(3)
        ):
            region = frozenset({3}) | frozenset(extra)
            grown = Allocation(
                unallocated=free - region,
                components=(u(*({0, 1} | region)),),
            )
            fresh = Allocation(unallocated=free - region, components=(u(0, 1), u(*region)))
            assert not (line.is_connected({0, 1} | region) and allocation_feasible(grown, sizes))
            assert not (line.is_connected(region) and allocation_feasible(fresh, sizes))


class TestAllocImpacted:
    def test_owner_gains_each_reachable_impacting_qubit(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        results = alloc_impacted([build(5, u(2))], demo_rates[0], demo_graph, sizes, CFG)
        got = keys(results)
        assert structure([2, 3]) in got
        assert structure([2, 4]) in got
        # A connector path may also pull in the second impacting qubit;
        # that variant deduplicates against the single-owner merge later.
        assert got == {structure([2, 3]), structure([2, 4]), structure([2, 3, 4])}

    def test_owner_already_in_control_keeps_the_candidate(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = build(5, u(2, 3))
        results = alloc_impacted([candidate], demo_rates[0], demo_graph, sizes, CFG)
        assert canonicalize(candidate) in keys(results)

    def test_blocked_instance_yields_nothing(self, demo_graph, demo_rates):
        # Merging the two users overshoots every request and the free
        # impacting qubit is unreachable within the size budget.
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = build(5, u(0, 1), u(2, 3))
        results = alloc_impacted([candidate], demo_rates[2], demo_graph, sizes, CFG)
        assert results == []

    def test_unallocated_impacted_qubit_is_a_caller_bug(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        with pytest.raises(ValueError):
            alloc_impacted([build(5)], demo_rates[0], demo_graph, sizes, CFG)


class TestImproveAlloc:
    def test_fresh_single_user_when_nothing_is_allocated(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        results = improve_alloc(build(5), demo_rates[0], demo_graph, sizes, CFG)
        assert keys(results) == {structure([2, 3, 4])}

    def test_owner_absorbs_the_unallocated_involved_qubit(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        results = improve_alloc(build(5, u(2, 3)), demo_rates[0], demo_graph, sizes, CFG)
        assert keys(results) == {structure([2, 3, 4])}

    def test_cross_trust_owners_cannot_merge(self, demo_graph):
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        allocation = build(5, t(0, 1), u(2, 3, 4))
        rate = CrosstalkRate(0.002, frozenset({1, 2}), frozenset({0}))
        assert improve_alloc(allocation, rate, demo_graph, sizes, CFG) == []


class TestAllocTrusted:
    def test_no_trusted_components_generate_nothing(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        assert alloc_trusted(build(5), demo_rates[0].impacting, demo_graph, sizes, CFG) == []

    def test_branches_over_free_impacting_subsets(self, demo_graph):
        sizes = SizeRequests(trusted=(3,), untrusted=(2,))
        allocation = build(5, t(1))
        impacting = frozenset({2, 4})
        results = alloc_trusted(allocation, impacting, demo_graph, sizes, CFG)
        for result in results:
            assert validate_allocation(result, demo_graph) == []
        assert keys(results) == {
            structure([1, 2], trust=Trust.TRUSTED),
            structure([0, 1, 2], trust=Trust.TRUSTED),
        }

    def test_fully_allocated_impacting_set_generates_nothing(self, demo_graph):
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        allocation = build(5, t(0, 1), u(2, 3, 4))
        assert alloc_trusted(allocation, frozenset({2, 4}), demo_graph, sizes, CFG) == []


class TestUpdatePopulation:
    def test_archived_structure_is_not_readmitted(self, demo_graph, demo_rates):
        ordered = sort_rates(demo_rates)
        member = build(5, u(2, 3))
        population = {canonicalize(member): member}
        archive: dict = {}
        archive_alloc(member, population, archive, ordered[1])
        admitted = update_population([build(5, u(2, 3))], population, archive, ordered[:1], CFG)
        assert admitted == [] and population == {}

    def test_fresh_safe_candidate_is_admitted_with_replayed_attributes(self, demo_rates):
        ordered = sort_rates(demo_rates)
        population: dict = {}
        admitted = update_population([build(5, u(2, 3))], population, {}, ordered[:1], CFG)
        (member,) = admitted
        assert member.score == 0.0027 and member.penalty == 0.0027
        assert population == {canonicalize(member): member}

    def test_candidate_unsafe_for_an_earlier_rate_is_rejected(self):
        # The candidate fixes the later rate but leaves the earlier one's
        # impacted qubit exposed to its unprotected owner.
        early = CrosstalkRate(0.009, frozenset({3, 4}), frozenset({2}))
        late = CrosstalkRate(0.001, frozenset({1}), frozenset({0}))
        candidate = build(5, u(0, 1), u(2))
        assert replay_attributes(candidate, [early, late]) is None
        population: dict = {}
        admitted = update_population([candidate], population, {}, [early, late], CFG)
        assert admitted == [] and population == {}

    def test_population_cap_drops_the_worst(self, demo_rates):
        ordered = sort_rates(demo_rates)
        cfg = SearchConfig(max_population=1)
        population: dict = {}
        update_population(
            [build(5, u(2, 3)), build(5, u(2, 3, 4))], population, {}, ordered[:1], cfg
        )
        assert len(population) == 1
        # Equal scores; the higher penalty member is the worst.
        (member,) = population.values()
        assert member.penalty == 0.0


class TestArchiveAlloc:
    def test_member_moves_with_frozen_attributes(self, demo_rates):
        member = eval_alloc(build(5, u(2, 3)), demo_rates[0])
        population = {canonicalize(member): member}
        archive: dict = {}
        retired = archive_alloc(member, population, archive, demo_rates[1])
        assert population == {} and archive == {canonicalize(member): retired}
        assert retired.last_rate == demo_rates[1]
        assert retired.score == member.score and retired.penalty == member.penalty

    def test_non_member_is_rejected(self, demo_rates):
        with pytest.raises(ValueError):
            archive_alloc(build(5, u(2, 3)), {}, {}, demo_rates[0])


def list_reference_allocate(graph, sizes, rates, config):
    """The rate loop over plain lists, kept to pin the keyed store's order.

    Members are re-found by recomputing canonical keys and the taken set
    is rebuilt from population and archive on every admission round.
    """
    full = update_sizes(graph.vertex_count, sizes)
    ordered = sort_rates(rates)
    initial_score = max((r.score for r in ordered), default=0.0) + 1.0
    population = [Allocation(unallocated=graph.qubits, components=(), score=initial_score)]
    archive = []
    steps = []
    halted = False

    def find(key):
        for index, member in enumerate(population):
            if canonicalize(member) == key:
                return index
        return None

    def admit(candidates, processed):
        taken = keys(population) | keys(archive)
        for candidate in candidates:
            key = canonicalize(candidate)
            if key in taken:
                continue
            member = replay_attributes(candidate, processed)
            if member is None:
                continue
            population.append(member)
            taken.add(key)
        if config.max_population is not None and len(population) > config.max_population:
            ranked = sorted(population, key=lambda a: (-a.score, -a.penalty, canonicalize(a)))
            for worst in ranked[: len(population) - config.max_population]:
                population.remove(worst)

    for index, rate in enumerate(ordered):
        processed = ordered[: index + 1]
        newly_archived = []
        for snapshot in list(population):
            position = find(canonicalize(snapshot))
            if position is None:
                continue
            member = population[position]
            candidates = []
            if is_safe(member, rate).safe:
                if involved_parties(member, rate) >= 2:
                    candidates = improve_alloc(member, rate, graph, full, config)
                population[position] = eval_alloc(member, rate)
            else:
                candidates = alloc_unallocated(member, rate.impacted, graph, full, config)
                candidates = alloc_impacted(candidates, rate, graph, full, config)
                candidates = dedup_allocations(
                    candidates
                    + improve_alloc(member, rate, graph, full, config)
                    + alloc_trusted(member, rate.impacting, graph, full, config)
                )
                retired = replace(population.pop(position), last_rate=rate)
                archive.append(retired)
                newly_archived.append(retired)
            admit(candidates, processed)
        steps.append(RateStep(rate, tuple(population), tuple(newly_archived)))
        if not population:
            halted = True
            break

    return AllocationOutcome(
        population=tuple(population),
        archive=tuple(archive),
        sizes=full,
        rates=ordered,
        initial_score=initial_score,
        steps=tuple(steps),
        halted=halted,
    )


class TestKeyedStore:
    @pytest.mark.parametrize("cap", [None, 1, 2, 3])
    def test_demo_matches_the_list_reference(self, demo_graph, demo_sizes, demo_rates, cap):
        config = SearchConfig(max_population=cap)
        expected = list_reference_allocate(demo_graph, demo_sizes, demo_rates, config)
        assert allocate(demo_graph, demo_sizes, demo_rates, config) == expected

    @pytest.mark.parametrize("cap", [None, 1, 2, 3])
    def test_family_matches_the_list_reference(self, family, cap):
        config = SearchConfig(max_population=cap)
        for instance in family:
            expected = list_reference_allocate(
                instance.graph, instance.sizes, instance.rates, config
            )
            assert allocate(instance.graph, instance.sizes, instance.rates, config) == expected


class TestAllocateEndToEnd:
    def test_population_after_each_rate_matches_the_narrative(
        self, demo_graph, demo_sizes, demo_rates
    ):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        assert len(outcome.steps) == 3

        assert keys(outcome.steps[0].population) == {
            structure([2, 3]),
            structure([2, 4]),
            structure([2, 3, 4]),
        }
        assert keys(outcome.steps[1].population) == {
            structure([0, 1], [2, 3]),
            structure([0, 1], [2, 4]),
            structure([0, 1], [2, 3, 4]),
        }
        assert outcome.steps[2].population == ()
        assert outcome.halted

        # The initial allocation falls at the first rate; its repairs at
        # the second; the final generation at the third.
        by_key = {canonicalize(a): a for a in outcome.allocations}
        assert by_key[structure()].last_rate == demo_rates[0]
        assert by_key[structure([2, 3])].last_rate == demo_rates[1]
        assert by_key[structure([0, 1], [2, 3, 4])].last_rate == demo_rates[2]
        assert len(outcome.allocations) == 7

    def test_penalties_after_the_first_rate(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        members = {canonicalize(m): m for m in outcome.steps[0].population}
        assert members[structure([2, 3])].penalty == 0.0027
        assert members[structure([2, 4])].penalty == 0.0027
        assert members[structure([2, 3, 4])].penalty == 0.0
        for member in members.values():
            assert member.score == 0.0027

    def test_insufficient_qubits(self, demo_graph):
        with pytest.raises(InsufficientQubitsError):
            allocate(demo_graph, SizeRequests(untrusted=(6,)), [])

    def test_zero_rates_returns_only_the_initial_allocation(self, demo_graph, demo_sizes):
        outcome = allocate(demo_graph, demo_sizes, [])
        assert len(outcome.allocations) == 1
        assert outcome.allocations[0].unallocated == demo_graph.qubits
        assert not outcome.halted

    def test_determinism(self, demo_graph, demo_sizes, demo_rates):
        first = allocate(demo_graph, demo_sizes, demo_rates)
        second = allocate(demo_graph, demo_sizes, list(reversed(demo_rates)))
        assert first == second

    def test_initial_score_sits_above_every_rate(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        assert outcome.initial_score > max(r.score for r in demo_rates)

    def test_population_cap_keeps_the_search_running(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates, SearchConfig(max_population=2))
        for step in outcome.steps:
            assert len(step.population) <= 2

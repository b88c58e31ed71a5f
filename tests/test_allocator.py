"""The allocation search and its auxiliary operations."""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qaiccc.allocator as allocator_module
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
from qaiccc.completion import can_complete, decide
from qaiccc.model import (
    allocation_of,
    component_order,
    dedup_allocations,
    mask_qubits,
    qubit_mask,
    state_of,
)
from qaiccc.sizing import allocation_feasible, assignment_feasible, remain

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


def state_keys(states):
    return keys(allocation_of(state) for state in states)


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
        results = connect(
            state_of(allocation), qubit_mask({2, 3}), qubit_mask({4}), demo_graph, sizes, CFG,
            memo={},
        )
        assert state_keys(results) == {structure([2, 3, 4])}

    def test_unreachable_qubit_yields_nothing(self, demo_graph):
        allocation = build(5, u(0, 1), u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        results = connect(
            state_of(allocation), qubit_mask({0, 1}), qubit_mask({4}), demo_graph, sizes, CFG,
            memo={},
        )
        assert results == []

    def test_empty_user_creates_a_fresh_singleton(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        results = connect(
            state_of(allocation), 0, qubit_mask({2}), demo_graph, sizes, CFG,
            fresh_trust=Trust.UNTRUSTED, memo={},
        )
        assert structure([2]) in state_keys(results)

    def test_negative_budget_yields_nothing(self, demo_graph):
        allocation = build(5, u(2, 3, 4))
        sizes = SizeRequests(untrusted=(2, 3))
        # The component is already at the largest request size.
        results = connect(
            state_of(allocation), qubit_mask({2, 3, 4}), qubit_mask({0}), demo_graph, sizes, CFG,
            memo={},
        )
        assert results == []

    def test_path_cap_limits_enumeration(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(5,))
        capped = connect(
            state_of(allocation), 0, qubit_mask({2}), demo_graph, sizes,
            SearchConfig(max_paths_per_connect=1), fresh_trust=Trust.UNTRUSTED, memo={},
        )
        uncapped = connect(
            state_of(allocation), 0, qubit_mask({2}), demo_graph, sizes, CFG,
            fresh_trust=Trust.UNTRUSTED, memo={},
        )
        assert len(capped) == 1
        assert len(uncapped) > len(capped)


# Frozen frozenset copies of the search operators as they were before the
# search moved to bitmask states: every operator builds and canonicalises
# ``Allocation`` values and asks ``can_complete`` directly.  They are the
# reference that ``list_reference_allocate`` and ``reference_connect`` run on.


def owner_of(allocation, qubit):
    return next((c for c in allocation.components if qubit in c.qubits), None)


def reference_new_alloc(allocation, merged, graph, sizes, *, fresh_trust=None):
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
    fused = merged & allocation.unallocated
    for comp in touching:
        fused |= comp.qubits
    kept = tuple(c for c in allocation.components if not (c.qubits & merged))
    candidate = Allocation(
        unallocated=allocation.unallocated - merged,
        components=kept + (UserComponent(trust, fused),),
    )
    if not allocation_feasible(candidate, sizes):
        return None
    if not can_complete(candidate, graph, sizes):
        return None
    return candidate


def reference_remain(user, allocation, sizes, *, fresh_trust=None):
    """``sizing.remain`` as it was, reading an ``Allocation``."""
    if user:
        owner = next(c for c in allocation.components if c.qubits == user)
        trust = owner.trust
        others = [len(c.qubits) for c in allocation.components_of(trust) if c is not owner]
        base = len(user)
    else:
        trust = fresh_trust
        others = [len(c.qubits) for c in allocation.components_of(trust)]
        base = 0
    requests = sizes.for_trust(trust)
    other_trust = Trust.UNTRUSTED if trust is Trust.TRUSTED else Trust.TRUSTED
    other_sizes = [len(c.qubits) for c in allocation.components_of(other_trust)]
    if not assignment_feasible(other_sizes, sizes.for_trust(other_trust)):
        return -1
    best = -1
    for grown in range(base if user else 1, max(requests, default=0) + 1):
        if assignment_feasible(others + [grown], requests):
            best = grown
    if best < 0:
        return -1
    return best - base if user else best


def reference_connect(allocation, user, incoming, graph, sizes, config, *, fresh_trust=None):
    """``connect`` as it was before it grew regions on bitmasks.

    Every connector set up to the budget, from ``itertools.combinations``
    over the sorted pool, smallest first; only connected regions count
    towards the cap.
    """
    budget = reference_remain(user, allocation, sizes, fresh_trust=fresh_trust)
    max_len = budget - len(incoming - user)
    if max_len < 0:
        return []
    base = user | incoming
    pool = sorted(allocation.unallocated - base)
    results = []
    considered = 0
    for length in range(0, max_len + 1):
        for combo in itertools.combinations(pool, length):
            region = base | frozenset(combo)
            if not graph.is_connected(region):
                continue
            considered += 1
            candidate = reference_new_alloc(
                allocation, region, graph, sizes, fresh_trust=fresh_trust
            )
            if candidate is not None:
                results.append(candidate)
            if considered >= config.max_paths_per_connect:
                return dedup_allocations(results)
    return dedup_allocations(results)


def reference_alloc_unallocated(allocation, impacted, graph, sizes, config):
    current = [allocation]
    for qubit in sorted(impacted):
        staged = []
        for alloc in current:
            if qubit not in alloc.unallocated:
                staged.append(alloc)
                continue
            target = frozenset({qubit})
            for comp in alloc.components:
                staged += reference_connect(alloc, comp.qubits, target, graph, sizes, config)
            for trust in (Trust.TRUSTED, Trust.UNTRUSTED):
                staged += reference_connect(
                    alloc, frozenset(), target, graph, sizes, config, fresh_trust=trust
                )
        current = dedup_allocations(staged)
    return current


def reference_alloc_impacted(candidates, rate, graph, sizes, config):
    current = list(candidates)
    for impacted_qubit in sorted(rate.impacted):
        staged = []
        for alloc in current:
            owner = owner_of(alloc, impacted_qubit)
            for impacting_qubit in sorted(rate.impacting):
                if impacting_qubit in alloc.unallocated:
                    target = frozenset({impacting_qubit})
                else:
                    target = owner_of(alloc, impacting_qubit).qubits
                staged += reference_connect(alloc, owner.qubits, target, graph, sizes, config)
        current = dedup_allocations(staged)
    return current


def reference_improve_alloc(allocation, rate, graph, sizes, config):
    involved = rate.involved
    merge_base = frozenset()
    for qubit in sorted(involved):
        owner = owner_of(allocation, qubit)
        if owner is not None:
            merge_base |= owner.qubits
    if not merge_base:
        fresh = []
        for trust in (Trust.TRUSTED, Trust.UNTRUSTED):
            candidate = reference_new_alloc(allocation, involved, graph, sizes, fresh_trust=trust)
            if candidate is not None:
                fresh.append(candidate)
        if fresh:
            return fresh
        fallback = []
        for comp in allocation.components:
            fallback += reference_connect(allocation, comp.qubits, involved, graph, sizes, config)
        return fallback
    candidate = reference_new_alloc(allocation, merge_base | involved, graph, sizes)
    return [candidate] if candidate is not None else []


def reference_alloc_trusted(allocation, impacting, graph, sizes, config):
    free = sorted(impacting & allocation.unallocated)
    out = []
    for length in range(1, len(free) + 1):
        for combo in itertools.combinations(free, length):
            subset = frozenset(combo)
            for comp in allocation.components_of(Trust.TRUSTED):
                if impacting & (comp.qubits | subset):
                    out += reference_connect(allocation, comp.qubits, subset, graph, sizes, config)
            out += reference_connect(
                allocation, frozenset(), subset, graph, sizes, config, fresh_trust=Trust.TRUSTED
            )
    return out


class TestConnectMatchesTheReference:
    """``connect`` returns the combinations loop's list, order included."""

    @pytest.fixture
    def checked_calls(self, monkeypatch):
        calls = []

        def checking(state, user, incoming, graph, sizes, config, **kwargs):
            result = connect(state, user, incoming, graph, sizes, config, **kwargs)
            kwargs.pop("memo")
            expected = reference_connect(
                allocation_of(state), mask_qubits(user), mask_qubits(incoming),
                graph, sizes, config, **kwargs,
            )
            assert [allocation_of(candidate) for candidate in result] == expected
            calls.append(graph.is_connected(mask_qubits(user | incoming)))
            return result

        monkeypatch.setattr(allocator_module, "connect", checking)
        return calls

    @pytest.mark.parametrize("paths", [1, 3, 64])
    def test_every_call_on_the_demo(self, checked_calls, demo_graph, demo_sizes, demo_rates, paths):
        allocate(demo_graph, demo_sizes, demo_rates, SearchConfig(max_paths_per_connect=paths))
        assert len(checked_calls) > 10

    @pytest.mark.parametrize("paths", [1, 3, 64])
    def test_every_call_on_the_family(self, checked_calls, family, paths):
        config = SearchConfig(max_paths_per_connect=paths)
        for instance in family:
            allocate(instance.graph, instance.sizes, instance.rates, config)
        # Both connected and disconnected joins occur.
        assert checked_calls.count(True) > 100
        assert checked_calls.count(False) > 100


class TestImproveAllocHandsOnDistinctStructures:
    """``improve_alloc`` needs no deduplication of its own.

    Its fresh candidates differ in trust and its fallback candidates in
    which component grows, so no two share a canonical key.
    """

    @pytest.fixture
    def result_lengths(self, monkeypatch):
        lengths = []

        def checking(state, rate, graph, sizes, config, **kwargs):
            result = improve_alloc(state, rate, graph, sizes, config, **kwargs)
            assert len(state_keys(result)) == len(result)
            lengths.append(len(result))
            return result

        monkeypatch.setattr(allocator_module, "improve_alloc", checking)
        return lengths

    def test_every_call_on_the_demo(self, result_lengths, demo_graph, demo_sizes, demo_rates):
        allocate(demo_graph, demo_sizes, demo_rates)
        assert result_lengths

    def test_every_call_on_the_family(self, result_lengths, family):
        for instance in family:
            allocate(instance.graph, instance.sizes, instance.rates)
        assert len(result_lengths) > 400
        assert any(length >= 2 for length in result_lengths)

    def test_fresh_candidates_of_both_trusts_are_distinct(self, demo_graph):
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        rate = CrosstalkRate(0.002, frozenset({3}), frozenset({4}))
        results = improve_alloc(state_of(build(5)), rate, demo_graph, sizes, CFG, memo={})
        assert state_keys(results) == {
            structure([3, 4], trust=Trust.TRUSTED),
            structure([3, 4], trust=Trust.UNTRUSTED),
        }
        assert len(results) == 2


@st.composite
def connect_cases(draw):
    """A connected platform of at most 8 qubits, a partial allocation and one join."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}  # a spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    graph = ConnectivityGraph(n, frozenset(edges))

    free = set(range(n))
    components = []
    for _ in range(draw(st.integers(0, 2))):
        if not free:
            break
        grown = {draw(st.sampled_from(sorted(free)))}
        for _ in range(draw(st.integers(0, 2))):
            frontier = sorted({m for q in grown for m in graph.neighbors(q)} & free - grown)
            if not frontier:
                break
            grown.add(draw(st.sampled_from(frontier)))
        free -= grown
        components.append(UserComponent(draw(st.sampled_from(list(Trust))), frozenset(grown)))
    allocation = Allocation(unallocated=frozenset(free), components=tuple(components))

    # Every component gets a request it fits, and a fresh request of class
    # ``fresh_trust`` is usually open, so most joins have a budget.
    requests = {Trust.TRUSTED: [], Trust.UNTRUSTED: []}
    spare = len(free)
    fresh_trust = draw(st.sampled_from(list(Trust)))
    if spare:
        size = draw(st.integers(1, spare))
        spare -= size
        requests[fresh_trust].append(size)
    for comp in components:
        grow = draw(st.integers(0, spare))
        spare -= grow
        requests[comp.trust].append(len(comp.qubits) + grow)
    sizes = update_sizes(
        n, SizeRequests(trusted=requests[Trust.TRUSTED], untrusted=requests[Trust.UNTRUSTED])
    )

    if components and draw(st.booleans()):
        user = draw(st.sampled_from(components)).qubits
        fresh_trust = None
    else:
        user = frozenset()
    others = sorted(frozenset(range(n)) - user) or sorted(user)
    if draw(st.booleans()):  # favour joins that need connectors
        near = user | {m for q in user for m in graph.neighbors(q)}
        others = [q for q in others if q not in near] or others
    incoming = frozenset(draw(st.lists(st.sampled_from(others), min_size=1, max_size=2)))
    paths = draw(st.sampled_from([1, 3, 64]))
    return allocation, user, incoming, graph, sizes, paths, fresh_trust


_PATH6 = ConnectivityGraph(6, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)}))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connect_cases())
@example(  # user | incoming disconnected: {0, 1} reaches 4 through 2 and 3
    (build(6, u(0, 1)), frozenset({0, 1}), frozenset({4}), _PATH6,
     SizeRequests(untrusted=(5,), idle_size=1), 3, None)
)
@example(  # empty user with a 2-qubit incoming that needs connectors
    (build(6), frozenset(), frozenset({1, 4}), _PATH6,
     SizeRequests(untrusted=(5,), idle_size=1), 64, Trust.UNTRUSTED)
)
def test_connect_matches_the_reference_on_random_joins(case):
    allocation, user, incoming, graph, sizes, paths, fresh_trust = case
    config = SearchConfig(max_paths_per_connect=paths)
    got = connect(
        state_of(allocation), qubit_mask(user), qubit_mask(incoming), graph, sizes, config,
        fresh_trust=fresh_trust, memo={},
    )
    assert [allocation_of(candidate) for candidate in got] == reference_connect(
        allocation, user, incoming, graph, sizes, config, fresh_trust=fresh_trust
    )


class TestNewAlloc:
    def test_fresh_single_user_over_unallocated_qubits(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = new_alloc(
            state_of(allocation), qubit_mask({2, 3, 4}), demo_graph, sizes,
            fresh_trust=Trust.UNTRUSTED, memo={},
        )
        assert candidate is not None
        assert canonicalize(allocation_of(candidate)) == structure([2, 3, 4])

    def test_growth_that_strands_the_remaining_qubits_is_rejected(self, demo_graph):
        # {0,2,3} is connected and fits the 3-request, but the leftover
        # {1,4} cannot host the 2-circuit (1 and 4 are not adjacent), so
        # the configuration is withdrawn at generation time.
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = new_alloc(
            state_of(allocation), qubit_mask({0, 2, 3}), demo_graph, sizes,
            fresh_trust=Trust.UNTRUSTED, memo={},
        )
        assert candidate is None

    def test_cross_trust_merge_is_rejected(self, demo_graph):
        allocation = build(5, t(0, 1), u(2, 3))
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        assert new_alloc(
            state_of(allocation), qubit_mask({1, 2}), demo_graph, sizes, memo={},
        ) is None

    def test_disconnected_merge_is_rejected(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        assert (
            new_alloc(
                state_of(allocation), qubit_mask({1, 4}), demo_graph, sizes,
                fresh_trust=Trust.UNTRUSTED, memo={},
            )
            is None
        )


class TestAllocUnallocated:
    def test_fresh_user_branch_reaches_the_bare_impacted_qubit(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        results = alloc_unallocated(
            state_of(allocation), frozenset({2}), demo_graph, sizes, CFG, memo={},
        )
        assert structure([2]) in state_keys(results)
        for result in results:
            assert 2 not in allocation_of(result).unallocated

    def test_already_owned_impacted_qubit_passes_through(self, demo_graph):
        allocation = build(5, u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        results = alloc_unallocated(
            state_of(allocation), frozenset({2}), demo_graph, sizes, CFG, memo={},
        )
        assert state_keys(results) == {canonicalize(allocation)}

    def test_no_viable_branch_gives_empty_set(self):
        line = ConnectivityGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
        allocation = build(5, u(0, 1))
        sizes = SizeRequests(untrusted=(2,))
        results = alloc_unallocated(state_of(allocation), frozenset({3}), line, sizes, CFG, memo={})
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
        results = alloc_impacted(
            [state_of(build(5, u(2)))], demo_rates[0], demo_graph, sizes, CFG, memo={}
        )
        got = state_keys(results)
        assert structure([2, 3]) in got
        assert structure([2, 4]) in got
        # A connector path may also pull in the second impacting qubit;
        # that variant deduplicates against the single-owner merge later.
        assert got == {structure([2, 3]), structure([2, 4]), structure([2, 3, 4])}

    def test_owner_already_in_control_keeps_the_candidate(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = build(5, u(2, 3))
        results = alloc_impacted(
            [state_of(candidate)], demo_rates[0], demo_graph, sizes, CFG, memo={},
        )
        assert canonicalize(candidate) in state_keys(results)

    def test_blocked_instance_yields_nothing(self, demo_graph, demo_rates):
        # Merging the two users overshoots every request and the free
        # impacting qubit is unreachable within the size budget.
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = build(5, u(0, 1), u(2, 3))
        results = alloc_impacted(
            [state_of(candidate)], demo_rates[2], demo_graph, sizes, CFG, memo={},
        )
        assert results == []

    def test_unallocated_impacted_qubit_is_a_caller_bug(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        with pytest.raises(ValueError):
            alloc_impacted([state_of(build(5))], demo_rates[0], demo_graph, sizes, CFG, memo={})


class TestImproveAlloc:
    def test_fresh_single_user_when_nothing_is_allocated(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        results = improve_alloc(state_of(build(5)), demo_rates[0], demo_graph, sizes, CFG, memo={})
        assert state_keys(results) == {structure([2, 3, 4])}

    def test_owner_absorbs_the_unallocated_involved_qubit(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        results = improve_alloc(
            state_of(build(5, u(2, 3))), demo_rates[0], demo_graph, sizes, CFG, memo={}
        )
        assert state_keys(results) == {structure([2, 3, 4])}

    def test_cross_trust_owners_cannot_merge(self, demo_graph):
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        allocation = build(5, t(0, 1), u(2, 3, 4))
        rate = CrosstalkRate(0.002, frozenset({1, 2}), frozenset({0}))
        assert improve_alloc(state_of(allocation), rate, demo_graph, sizes, CFG, memo={}) == []


class TestAllocTrusted:
    def test_no_trusted_components_generate_nothing(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        assert (
            alloc_trusted(
                state_of(build(5)), demo_rates[0].impacting, demo_graph, sizes, CFG, memo={},
            )
            == []
        )

    def test_branches_over_free_impacting_subsets(self, demo_graph):
        sizes = SizeRequests(trusted=(3,), untrusted=(2,))
        allocation = build(5, t(1))
        impacting = frozenset({2, 4})
        results = alloc_trusted(state_of(allocation), impacting, demo_graph, sizes, CFG, memo={})
        for result in results:
            assert validate_allocation(allocation_of(result), demo_graph) == []
        assert state_keys(results) == {
            structure([1, 2], trust=Trust.TRUSTED),
            structure([0, 1, 2], trust=Trust.TRUSTED),
        }

    def test_fully_allocated_impacting_set_generates_nothing(self, demo_graph):
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        allocation = build(5, t(0, 1), u(2, 3, 4))
        assert alloc_trusted(
            state_of(allocation), frozenset({2, 4}), demo_graph, sizes, CFG, memo={},
        ) == []


class TestUpdatePopulation:
    def test_archived_structure_is_not_readmitted(self, demo_graph, demo_rates):
        ordered = sort_rates(demo_rates)
        member = build(5, u(2, 3))
        population = {state_of(member): member}
        archive: dict = {}
        archive_alloc(member, population, archive, ordered[1])
        admitted = update_population(
            [state_of(build(5, u(2, 3)))], population, archive, ordered[:1], CFG
        )
        assert admitted == [] and population == {}

    def test_fresh_safe_candidate_is_admitted_with_replayed_attributes(self, demo_rates):
        ordered = sort_rates(demo_rates)
        population: dict = {}
        admitted = update_population(
            [state_of(build(5, u(2, 3)))], population, {}, ordered[:1], CFG
        )
        (member,) = admitted
        assert member.score == 0.0027 and member.penalty == 0.0027
        assert population == {state_of(member): member}

    def test_candidate_unsafe_for_an_earlier_rate_is_rejected(self):
        # The candidate fixes the later rate but leaves the earlier one's
        # impacted qubit exposed to its unprotected owner.
        early = CrosstalkRate(0.009, frozenset({3, 4}), frozenset({2}))
        late = CrosstalkRate(0.001, frozenset({1}), frozenset({0}))
        candidate = build(5, u(0, 1), u(2))
        assert replay_attributes(candidate, [early, late]) is None
        population: dict = {}
        admitted = update_population([state_of(candidate)], population, {}, [early, late], CFG)
        assert admitted == [] and population == {}

    def test_population_cap_drops_the_worst(self, demo_rates):
        ordered = sort_rates(demo_rates)
        cfg = SearchConfig(max_population=1)
        population: dict = {}
        update_population(
            [state_of(build(5, u(2, 3))), state_of(build(5, u(2, 3, 4)))],
            population, {}, ordered[:1], cfg,
        )
        assert len(population) == 1
        # Equal scores; the higher penalty member is the worst.
        (member,) = population.values()
        assert member.penalty == 0.0


class TestArchiveAlloc:
    def test_member_moves_with_frozen_attributes(self, demo_rates):
        member = eval_alloc(build(5, u(2, 3)), demo_rates[0])
        population = {state_of(member): member}
        archive: dict = {}
        retired = archive_alloc(member, population, archive, demo_rates[1])
        assert population == {} and archive == {state_of(member): retired}
        assert retired.last_rate == demo_rates[1]
        assert retired.score == member.score and retired.penalty == member.penalty

    def test_non_member_is_rejected(self, demo_rates):
        with pytest.raises(ValueError):
            archive_alloc(build(5, u(2, 3)), {}, {}, demo_rates[0])


def list_reference_allocate(graph, sizes, rates, config):
    """The rate loop over plain lists, kept to pin the keyed store's order.

    Members are re-found by recomputing canonical keys and the taken set
    is rebuilt from population and archive on every admission round.  It
    runs on the frozen frozenset operators above.
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
                    candidates = reference_improve_alloc(member, rate, graph, full, config)
                population[position] = eval_alloc(member, rate)
            else:
                candidates = reference_alloc_unallocated(member, rate.impacted, graph, full, config)
                candidates = reference_alloc_impacted(candidates, rate, graph, full, config)
                candidates = dedup_allocations(
                    candidates
                    + reference_improve_alloc(member, rate, graph, full, config)
                    + reference_alloc_trusted(member, rate.impacting, graph, full, config)
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


@st.composite
def partitions(draw):
    """An allocation of at most 8 qubits: each qubit free or held by one of four users."""
    n = draw(st.integers(1, 8))
    owners = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    trusts = draw(st.lists(st.sampled_from(list(Trust)), min_size=4, max_size=4))
    groups = {}
    for qubit, owner in enumerate(owners):
        groups.setdefault(owner, set()).add(qubit)
    free = groups.pop(-1, set())
    components = tuple(UserComponent(trusts[owner], frozenset(qs)) for owner, qs in groups.items())
    return Allocation(unallocated=frozenset(free), components=components)


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_state_round_trips_and_keeps_the_canonical_order(allocation):
    state = state_of(allocation)
    assert allocation_of(state) == allocation
    assert state_of(allocation_of(state)) == state
    free, components = state
    assert mask_qubits(free) == allocation.unallocated
    assert all(size == mask.bit_count() for _, mask, size in components)
    # Sorting by (trust, lowest qubit) is canonicalize's component order.
    by_lowest = sorted(allocation.components, key=lambda c: (c.trust.value, min(c.qubits)))
    assert [canonicalize(build(0, c))[1][0] for c in by_lowest] == list(canonicalize(allocation)[1])
    assert [(t.value, tuple(sorted(mask_qubits(m)))) for t, m, _ in components] == list(
        canonicalize(allocation)[1]
    )
    assert list(components) == sorted(components, key=component_order)


class TestPerRunMemo:
    """The completion verdicts live as long as one ``allocate`` call."""

    def test_allocator_holds_no_module_level_cache(self):
        for name, value in vars(allocator_module).items():
            if not name.startswith("__"):
                assert not isinstance(value, (dict, functools._lru_cache_wrapper)), name

    def test_two_runs_in_one_process_decide_alike(
        self, monkeypatch, family, demo_graph, demo_sizes, demo_rates
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return decide(*args)

        monkeypatch.setattr(allocator_module, "decide", counting)
        instances = [(demo_graph, demo_sizes, demo_rates)]
        instances += [(i.graph, i.sizes, i.rates) for i in family[:5]]
        for graph, sizes, rates in instances:
            outcomes, counts = [], []
            for _ in range(2):
                before = len(calls)
                outcomes.append(allocate(graph, sizes, rates))
                counts.append(len(calls) - before)
            assert outcomes[0] == outcomes[1]
            assert counts[0] == counts[1] > 0
            # Within one run every state is decided once.
            run = calls[-counts[1]:]
            assert len({args[:2] for args in run}) == len(run)


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

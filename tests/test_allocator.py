"""The allocation search and its auxiliary operations."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import re
import sys
from unittest import mock

import pytest
from conftest import build, built, make_instance, t, u
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import qaiccc.allocator as allocator_module
import qaiccc.completion as completion_module
import qaiccc.selection as selection_module
from qaiccc import (
    Allocation,
    AllocationOutcome,
    ConnectivityGraph,
    CrosstalkRate,
    InsufficientQubitsError,
    NoFeasibleAllocationError,
    SearchConfig,
    SizeRequests,
    Trust,
    UserComponent,
    allocate,
    canonicalize,
    involved_parties,
    is_safe,
    rank,
    safe_prefix,
    select,
    sort_rates,
    validate_allocation,
)
from qaiccc.allocator import (
    Attributes,
    RateStep,
    SearchMemo,
    alloc_impacted,
    alloc_trusted,
    alloc_unallocated,
    archive_alloc,
    connect,
    improve_alloc,
    new_alloc,
    rate_masks,
    replay_attributes,
    replay_state,
    update_population,
    update_sizes,
)
from qaiccc.completion import can_complete, complete_allocation, decide
from qaiccc.model import (
    allocation_of,
    component_order,
    dedup_allocations,
    mask_neighborhood,
    mask_qubits,
    mask_region,
    qubit_mask,
    state_key,
    state_of,
)
from qaiccc.sizing import allocation_feasible, assignment_feasible, remain

CFG = SearchConfig()


def owner(component):
    """A component's ``(trust, mask)`` pair, the owner argument of ``connect``."""
    return component.trust, qubit_mask(component.qubits)


FRESH_U = (Trust.UNTRUSTED, 0)


def budget_of(state, joined, memo):
    """The owner's growth budget in ``state``, read as the operators read it."""
    [budget] = allocator_module._budgets(state, (joined,), memo)
    return budget


def join(state, joined, incoming, memo):
    """``connect`` with the owner's growth budget read as the operators read it."""
    return connect(state, joined, incoming, budget_of(state, joined, memo), memo=memo)


def join_regions(state, joined, incoming, memo):
    """``_regions`` of one join, with the connector room worked out as ``connect`` does.

    A join whose budget cannot take ``incoming`` has no regions.
    """
    room = budget_of(state, joined, memo) - (incoming & ~joined[1]).bit_count()
    if room < 0:
        return ()
    return allocator_module._regions(joined[1] | incoming, state[0], room, memo)


def keys(allocations):
    return {canonicalize(a) for a in allocations}


def member_keys(states):
    """The canonical keys of the states a step lists."""
    return {state_key(state) for state in states}


def state_keys(states):
    return keys(allocation_of(state) for state in states)


def control_masks(rate):
    """A rate's impacting and impacted masks, the arguments ``alloc_impacted`` takes."""
    return qubit_mask(rate.impacting), qubit_mask(rate.impacted)


def masks_of(rates):
    """The handled rates as ``update_population`` reads them."""
    return [rate_masks(rate) for rate in rates]


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


class TestReplayState:
    def test_unallocated_involved_qubit_accrues_penalty(self, demo_rates):
        updated = replay_state(state_of(build(5, u(2, 3))), masks_of(demo_rates[:1]))
        assert updated.score == 0.0027
        assert updated.penalty == 0.0027
        assert updated.incidental == (demo_rates[0],)

    def test_single_owner_holding_everything_pays_nothing(self, demo_rates):
        updated = replay_state(state_of(build(5, u(2, 3, 4))), masks_of(demo_rates[:1]))
        assert updated.score == 0.0027
        assert updated.penalty == 0.0
        assert updated.incidental == ()

    def test_repeated_evaluation_is_additive(self, demo_rates):
        twice = replay_state(state_of(build(5, u(2, 3))), masks_of([demo_rates[0]] * 2))
        assert twice.penalty == pytest.approx(2 * 0.0027, abs=1e-15)
        assert len(twice.incidental) == 2


#: Every field of an :class:`Allocation`, in its constructor's order.
ALLOCATION_FIELDS = ("unallocated", "components", "score", "penalty", "incidental", "last_rate")


def fields_of(allocation):
    return {name: getattr(allocation, name) for name in ALLOCATION_FIELDS}


def rebuilt(allocation, **changes):
    """``allocation`` built again by its constructor with ``changes``, as ``replace`` did."""
    return Allocation(**{**fields_of(allocation), **changes})


def _reference_eval_alloc(allocation, rate):
    """The per-rate update of a safe member, written with ``dataclasses.replace`` (:func:`rebuilt`)."""
    penalty, incidental = allocation.penalty, allocation.incidental
    if rate.involved & allocation.unallocated:
        penalty, incidental = penalty + rate.score, incidental + (rate,)
    return rebuilt(allocation, score=rate.score, penalty=penalty, incidental=incidental)


_MEMBER_RATES = st.sampled_from([
    CrosstalkRate(0.0027, frozenset({3, 4}), frozenset({2})),
    CrosstalkRate(0.0017, frozenset({1, 2}), frozenset({0})),
    CrosstalkRate(0.0013, frozenset({2, 4}), frozenset({0})),
    CrosstalkRate(0.0, frozenset({5}), frozenset({6})),
])


@st.composite
def members(draw):
    """An allocation of 0..7 with components in any order, and its search attributes."""
    owners = draw(st.lists(st.integers(-1, 3), min_size=8, max_size=8))
    trusts = draw(st.lists(st.sampled_from(list(Trust)), min_size=4, max_size=4))
    groups = [frozenset(q for q, o in enumerate(owners) if o == k) for k in range(4)]
    components = [UserComponent(trusts[k], g) for k, g in enumerate(groups) if g]
    return Allocation(
        unallocated=frozenset(q for q, o in enumerate(owners) if o < 0),
        components=tuple(draw(st.permutations(components))),
        score=draw(st.floats(0, 1)),
        penalty=draw(st.floats(0, 1)),
        incidental=tuple(draw(st.lists(_MEMBER_RATES, max_size=3))),
        last_rate=draw(st.none() | _MEMBER_RATES),
    )


def same_fields(left, right):
    return fields_of(left) == fields_of(right)


def attributes_of(allocation):
    """An allocation's search attributes as the search's record."""
    return Attributes(allocation.score, allocation.penalty, allocation.incidental, allocation.last_rate)


def member_of(allocation):
    """An allocation as the search holds a member: its state and its attributes."""
    return state_of(allocation), attributes_of(allocation)


@settings(max_examples=200, deadline=None)
@given(members(), _MEMBER_RATES)
def test_member_updates_equal_the_replace_results(member, fall):
    before = fields_of(member)
    key, attributes = member_of(member)
    assert same_fields(allocation_of(key, *attributes), member)
    population, archive = {key: attributes}, {}
    retired = archive_alloc(key, population, archive, fall)
    assert retired == attributes_of(rebuilt(member, last_rate=fall))
    assert population == {} and archive[key] is retired
    for copy in (allocation_of(key, *attributes), allocation_of(key, *retired)):
        assert copy == rebuilt(copy) and hash(copy) == hash(rebuilt(copy))
        assert copy.components == tuple(sorted(copy.components, key=UserComponent.sort_key))
        assert type(copy.unallocated) is frozenset and type(copy.incidental) is tuple
    assert fields_of(member) == before


class TestConnect:
    def test_adjacent_qubit_joins_without_connectors(self, demo_graph):
        allocation = build(5, u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        results = join(
            state_of(allocation), owner(u(2, 3)), qubit_mask({4}), SearchMemo(sizes, demo_graph)
        )
        assert state_keys(results) == {structure([2, 3, 4])}

    def test_unreachable_qubit_yields_nothing(self, demo_graph):
        allocation = build(5, u(0, 1), u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        results = join(
            state_of(allocation), owner(u(0, 1)), qubit_mask({4}), SearchMemo(sizes, demo_graph)
        )
        assert results == ()

    def test_empty_user_creates_a_fresh_singleton(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        results = join(state_of(allocation), FRESH_U, qubit_mask({2}), SearchMemo(sizes, demo_graph))
        assert structure([2]) in state_keys(results)

    def test_negative_budget_yields_nothing(self, demo_graph):
        allocation = build(5, u(2, 3, 4))
        sizes = SizeRequests(untrusted=(2, 3))
        # The component is already at the largest request size.
        memo = SearchMemo(sizes, demo_graph)
        state = state_of(allocation)
        assert budget_of(state, owner(u(2, 3, 4)), memo) == 0
        results = connect(state, owner(u(2, 3, 4)), qubit_mask({0}), 0, memo=memo)
        assert results == () and memo.joins == {}

    def test_path_cap_limits_enumeration(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(5,))
        capped = join(
            state_of(allocation), FRESH_U, qubit_mask({2}),
            SearchMemo(sizes, demo_graph, SearchConfig(max_paths_per_connect=1)),
        )
        uncapped = join(state_of(allocation), FRESH_U, qubit_mask({2}), SearchMemo(sizes, demo_graph))
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


def reference_alloc_unallocated(allocation, impacted, graph, sizes, config, join=reference_connect):
    current = [allocation]
    for qubit in sorted(impacted):
        staged = []
        for alloc in current:
            if qubit not in alloc.unallocated:
                staged.append(alloc)
                continue
            target = frozenset({qubit})
            for comp in alloc.components:
                staged += join(alloc, comp.qubits, target, graph, sizes, config)
            for trust in (Trust.TRUSTED, Trust.UNTRUSTED):
                staged += join(alloc, frozenset(), target, graph, sizes, config, fresh_trust=trust)
        current = dedup_allocations(staged)
    return current


def reference_alloc_impacted(
    candidates, impacting, impacted, graph, sizes, config, join=reference_connect
):
    current = list(candidates)
    for impacted_qubit in sorted(impacted):
        staged = []
        for alloc in current:
            owner = owner_of(alloc, impacted_qubit)
            for impacting_qubit in sorted(impacting):
                if impacting_qubit in alloc.unallocated:
                    target = frozenset({impacting_qubit})
                else:
                    target = owner_of(alloc, impacting_qubit).qubits
                staged += join(alloc, owner.qubits, target, graph, sizes, config)
        current = dedup_allocations(staged)
    return current


def reference_improve_alloc(allocation, involved, graph, sizes, config, join=reference_connect):
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
            fallback += join(allocation, comp.qubits, involved, graph, sizes, config)
        return fallback
    candidate = reference_new_alloc(allocation, merge_base | involved, graph, sizes)
    return [candidate] if candidate is not None else []


def reference_alloc_trusted(allocation, impacting, graph, sizes, config, join=reference_connect):
    free = sorted(impacting & allocation.unallocated)
    out = []
    for length in range(1, len(free) + 1):
        for combo in itertools.combinations(free, length):
            subset = frozenset(combo)
            for comp in allocation.components_of(Trust.TRUSTED):
                if impacting & (comp.qubits | subset):
                    out += join(allocation, comp.qubits, subset, graph, sizes, config)
            out += join(
                allocation, frozenset(), subset, graph, sizes, config, fresh_trust=Trust.TRUSTED
            )
    return out


#: Each operator the search calls, with its frozen reference and how the
#: reference reads the operator's arguments: states as allocations and
#: masks as qubit sets.
REFERENCE_OPERATORS = {
    "alloc_unallocated": (
        reference_alloc_unallocated,
        lambda state, impacted: (allocation_of(state), mask_qubits(impacted)),
    ),
    "alloc_impacted": (
        reference_alloc_impacted,
        lambda states, impacting, impacted: (
            [allocation_of(state) for state in states], mask_qubits(impacting), mask_qubits(impacted)
        ),
    ),
    "improve_alloc": (
        reference_improve_alloc,
        lambda state, involved: (allocation_of(state), mask_qubits(involved)),
    ),
    "alloc_trusted": (
        reference_alloc_trusted,
        lambda state, impacting: (allocation_of(state), mask_qubits(impacting)),
    ),
}


def pick_key(allocation, user, incoming, fresh_trust):
    """A reference join's pick as ``connect`` is asked it: ``(state, owner, incoming)``."""
    trust = next((c.trust for c in allocation.components if c.qubits == user), fresh_trust)
    return state_of(allocation), (trust, qubit_mask(user)), qubit_mask(incoming)


def join_checkers(record):
    """Stand-ins for ``connect`` and the four operators that check each against the reference.

    Every ``connect`` call must be handed the owner's reference budget.
    A join it refuses, leaving no ``joins`` key, must be one that budget
    refuses, and every join it makes must return the combinations loop's
    list, order included, and leave its key.  Each operator must take
    masks, ask ``connect`` for exactly the reference operator's picks, in
    the reference's order, and return the reference's output;
    ``alloc_trusted`` must leave out every pick the reference budget
    refuses, and ask for the rest.  ``record`` gains each join asked
    (``joins``), whether each is connected (``connected``), the count of
    joins refused (``refused``), and the count of picks ``alloc_trusted``
    left out (``skipped``).
    """

    def checking(state, owner, incoming, budget, *, memo):
        result = connect(state, owner, incoming, budget, memo=memo)
        trust, user = owner
        graph, allocation = memo.graph, allocation_of(state)
        fresh_trust = None if user else trust
        expected = reference_connect(
            allocation, mask_qubits(user), mask_qubits(incoming),
            graph, memo.sizes, memo.config, fresh_trust=fresh_trust,
        )
        assert type(result) is tuple
        assert [allocation_of(candidate) for candidate in result] == expected
        reference = reference_remain(
            mask_qubits(user), allocation, memo.sizes, fresh_trust=fresh_trust
        )
        assert budget == reference
        refused = reference < (incoming & ~user).bit_count()
        assert ((state, owner, incoming) in memo.joins) is not refused
        if refused:
            record["refused"] += 1
        record["joins"].append((state, owner, incoming))
        record["connected"].append(graph.is_connected(mask_qubits(user | incoming)))
        return result

    def operator_checker(name):
        operator = getattr(allocator_module, name)
        reference, converted = REFERENCE_OPERATORS[name]

        def checking_operator(*args, memo):
            assert all(type(mask) is int for mask in args[1:])
            made = len(record["joins"])
            result = operator(*args, memo=memo)
            asked = record["joins"][made:]
            picks = []

            def recording(allocation, user, incoming, graph, sizes, config, *, fresh_trust=None):
                budget = reference_remain(user, allocation, sizes, fresh_trust=fresh_trust)
                if name == "alloc_trusted" and budget < len(incoming - user):
                    record["skipped"] += 1
                else:
                    picks.append(pick_key(allocation, user, incoming, fresh_trust))
                return reference_connect(
                    allocation, user, incoming, graph, sizes, config, fresh_trust=fresh_trust
                )

            expected = reference(
                *converted(*args), memo.graph, memo.sizes, memo.config, join=recording
            )
            assert [allocation_of(candidate) for candidate in result] == expected
            assert asked == picks
            return result

        return checking_operator

    checkers = [(name, operator_checker(name)) for name in REFERENCE_OPERATORS]
    return [("connect", checking)] + checkers


class TestConnectMatchesTheReference:
    """Each operator asks ``connect`` for the reference's picks; it refuses those the budget refuses.

    See :func:`join_checkers`, which wraps every join and operator call of
    the runs.
    """

    @pytest.fixture
    def checked(self, monkeypatch):
        record = {"joins": [], "connected": [], "refused": 0, "skipped": 0}
        for name, checker in join_checkers(record):
            monkeypatch.setattr(allocator_module, name, checker)
        return record

    @pytest.mark.parametrize("paths", [1, 3, 64])
    def test_every_call_on_the_demo(self, checked, demo_graph, demo_sizes, demo_rates, paths):
        allocate(demo_graph, demo_sizes, demo_rates, SearchConfig(max_paths_per_connect=paths))
        assert len(checked["joins"]) > 10
        assert 0 < checked["refused"] < len(checked["joins"])

    @pytest.mark.parametrize("paths", [1, 3, 64])
    def test_every_call_on_the_family(self, checked, family, paths):
        config = SearchConfig(max_paths_per_connect=paths)
        for instance in family:
            allocate(instance.graph, instance.sizes, instance.rates, config)
        # Both connected and disconnected picks occur among the joins asked,
        # joins are refused, and ``alloc_trusted`` leaves out picks.
        assert checked["connected"].count(True) > 100
        assert checked["connected"].count(False) > 100
        assert checked["refused"] > 100
        assert checked["skipped"] > 0


class TestImproveAllocHandsOnDistinctStructures:
    """``improve_alloc`` needs no deduplication of its own.

    Its fresh candidates differ in trust and its fallback candidates in
    which component grows, so no two share a canonical key.
    """

    @pytest.fixture
    def result_lengths(self, monkeypatch):
        lengths = []

        def checking(state, involved, *, memo):
            result = improve_alloc(state, involved, memo=memo)
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
        results = improve_alloc(
            state_of(build(5)), qubit_mask({3, 4}), memo=SearchMemo(sizes, demo_graph)
        )
        assert state_keys(results) == {
            structure([3, 4], trust=Trust.TRUSTED),
            structure([3, 4], trust=Trust.UNTRUSTED),
        }
        assert len(results) == 2


@st.composite
def platforms(draw, most=8):
    """A connected platform of 2 to ``most`` qubits: a random spanning tree plus random edges."""
    n = draw(st.integers(2, most))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}  # a spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return ConnectivityGraph(n, frozenset(edges))


@st.composite
def connect_cases(draw, most=8):
    """A connected platform of at most ``most`` qubits, a partial allocation and one join."""
    graph = draw(platforms(most))
    n = graph.vertex_count

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
    joined = next(
        (owner(c) for c in allocation.components if c.qubits == user), (fresh_trust, 0)
    )
    got = join(state_of(allocation), joined, qubit_mask(incoming), SearchMemo(sizes, graph, config))
    assert [allocation_of(candidate) for candidate in got] == reference_connect(
        allocation, user, incoming, graph, sizes, config, fresh_trust=fresh_trust
    )


@st.composite
def shaped_joins(draw):
    """A join of :func:`connect_cases` whose ``incoming`` has one of four shapes.

    One free qubit, a subset of the free qubits, a whole component other
    than the owner, or part of a component.
    """
    allocation, user, _, graph, sizes, paths, fresh_trust = draw(connect_cases())
    free = sorted(allocation.unallocated)
    others = [sorted(c.qubits) for c in allocation.components if c.qubits != user]
    splittable = [sorted(c.qubits) for c in allocation.components if len(c.qubits) >= 2]
    shapes = ["free qubit", "free subset"] if free else []
    shapes += ["component"] if others else []
    shapes += ["part of a component"] if splittable else []
    assume(shapes)
    shape = draw(st.sampled_from(shapes))
    if shape == "free qubit":
        incoming = {draw(st.sampled_from(free))}
    elif shape == "free subset":
        incoming = draw(st.sets(st.sampled_from(free), min_size=1))
    elif shape == "component":
        incoming = set(draw(st.sampled_from(others)))
    else:
        split = draw(st.sampled_from(splittable))
        incoming = draw(st.sets(st.sampled_from(split), min_size=1, max_size=len(split) - 1))
    joined = next(
        (owner(c) for c in allocation.components if c.qubits == user), (fresh_trust, 0)
    )
    return allocation, joined, qubit_mask(incoming), graph, sizes, paths


_SPLIT = SizeRequests(trusted=(2,), untrusted=(3,), idle_size=1)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shaped_joins())
@example(  # a fresh trusted owner joined to a whole untrusted component
    (build(6, u(0, 1)), (Trust.TRUSTED, 0), qubit_mask({0, 1}), _PATH6, _SPLIT, 64)
)
@example(  # incoming covers part of a component
    (build(6, u(1, 2, 3)), FRESH_U, qubit_mask({3}), _PATH6, _SPLIT, 64)
)
def test_in_place_join_states_match_the_reference_per_region(case):
    allocation, joined, incoming, graph, sizes, paths = case
    config = SearchConfig(max_paths_per_connect=paths)
    state = state_of(allocation)
    memo = SearchMemo(sizes, graph, config)
    got = join(state, joined, incoming, memo)
    regions = join_regions(state, joined, incoming, SearchMemo(sizes, graph, config))
    expected = [
        candidate
        for region in regions
        if (candidate := reference_new_alloc(
            allocation, mask_qubits(region), graph, sizes, fresh_trust=joined[0]
        )) is not None
    ]
    assert [allocation_of(candidate) for candidate in got] == expected
    # Each state is built in component order, so it is its own canonical key.
    assert all(state_of(allocation_of(candidate)) == candidate for candidate in got)
    # The memo judged each region's state once and kept exactly these.
    assert tuple(kept for kept in memo.states.values() if kept is not None) == got


@st.composite
def region_join_runs(draw):
    """A platform of at most 8 qubits, its requests, a path cap and a sequence of joins.

    The joins' states are one partial allocation, whose every component has
    a request it fits, and copies of it with some components freed, so
    joins often share ``base`` while their ``reach`` or growth budget
    differs.
    """
    graph = draw(platforms())
    n = graph.vertex_count
    owners = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    trusts = draw(st.lists(st.sampled_from(list(Trust)), min_size=3, max_size=3))
    groups = {}
    for qubit, holder in enumerate(owners):
        groups.setdefault(holder, set()).add(qubit)
    groups.pop(-1, None)
    components = [UserComponent(trusts[h], frozenset(qs)) for h, qs in groups.items()]

    requests = {Trust.TRUSTED: [], Trust.UNTRUSTED: []}
    spare = n - sum(len(c.qubits) for c in components)
    for comp in components:
        grow = draw(st.integers(0, spare))
        spare -= grow
        requests[comp.trust].append(len(comp.qubits) + grow)
    for trust in draw(st.lists(st.sampled_from(list(Trust)), max_size=2)):
        if spare:
            requests[trust].append(draw(st.integers(1, spare)))
            spare -= requests[trust][-1]
    sizes = update_sizes(
        n, SizeRequests(trusted=requests[Trust.TRUSTED], untrusted=requests[Trust.UNTRUSTED])
    )

    states = []
    for _ in range(draw(st.integers(1, 3))):
        held = [c for c in components if draw(st.booleans())]
        used = frozenset().union(*(c.qubits for c in held))
        states.append(state_of(Allocation(frozenset(range(n)) - used, tuple(held))))

    joins = []
    for _ in range(draw(st.integers(1, 12))):
        state = draw(st.sampled_from(states))
        users = [o for o in state[1] + allocator_module._FRESH if o[1] != (1 << n) - 1]
        joined = draw(st.sampled_from(users))
        outside = [q for q in range(n) if not joined[1] >> q & 1]
        incoming = qubit_mask(draw(st.lists(st.sampled_from(outside), min_size=1, max_size=2)))
        joins.append((state, joined, incoming))
    return graph, sizes, draw(st.sampled_from([1, 2, 64])), joins


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(region_join_runs())
@example(  # one base and reach, two tops: a fresh user of either class
    (_PATH6, _SPLIT, 64, [(state_of(build(6)), (Trust.TRUSTED, 0), 0b1),
                          (state_of(build(6)), FRESH_U, 0b1)])
)
@example(  # one base, two reaches: qubit 1 held or free
    (_PATH6, _SPLIT, 64, [(state_of(build(6, u(1))), FRESH_U, 0b1),
                          (state_of(build(6)), FRESH_U, 0b1)])
)
def test_region_memo_answers_like_a_fresh_memo_per_join(case):
    graph, sizes, paths, joins = case
    config = SearchConfig(max_paths_per_connect=paths)
    shared = SearchMemo(sizes, graph, config)
    for state, joined, incoming in joins:
        args = (state, joined, incoming)
        fresh = join_regions(*args, SearchMemo(sizes, graph, config))
        assert join_regions(*args, shared) == fresh


@pytest.mark.parametrize("incoming, expected", [({2}, (0b111,)), ({3}, ())])
def test_a_join_without_room_for_connectors_has_base_as_its_one_region(incoming, expected):
    # {0, 1} may grow by one qubit, so only an adjacent incoming qubit joins.
    sizes = SizeRequests(untrusted=(3,), idle_size=1)
    path = ConnectivityGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    state = state_of(build(4, u(0, 1)))
    args = (state, owner(u(0, 1)), qubit_mask(incoming))
    assert join_regions(*args, SearchMemo(sizes, path)) == expected
    # Enumerating within the reach gives the same regions.
    assert tuple(allocator_module._grown(0b11 | qubit_mask(incoming), 0b1111, 3, path)) == expected


def test_states_differing_only_outside_reach_share_one_region_tuple():
    # Qubit 3 walls qubits 0-2 off from 4 and 5, so freeing or holding 5
    # leaves the reach of base {0} and the budget of a fresh user alike.
    sizes = SizeRequests(untrusted=(3, 1, 1), idle_size=1)
    apart = state_of(build(6, u(3)))
    held = state_of(build(6, u(3), u(5)))
    memo = SearchMemo(sizes, _PATH6)
    args = (FRESH_U, qubit_mask({0}))
    regions = join_regions(apart, *args, memo)
    assert regions == (0b1, 0b11, 0b111)
    assert join_regions(held, *args, memo) is regions
    assert join_regions(held, *args, SearchMemo(sizes, _PATH6)) == regions
    assert len(memo.regions) == 1


@st.composite
def search_instances(draw):
    """A platform of at most 10 qubits, requests with trusted users among them, and rates on it."""
    graph = draw(platforms(10))
    n = graph.vertex_count
    requests = {Trust.TRUSTED: [], Trust.UNTRUSTED: []}
    spare = n
    for _ in range(draw(st.integers(1, 3))):
        if spare:
            size = draw(st.integers(1, min(spare, 4)))
            requests[draw(st.sampled_from(list(Trust)))].append(size)
            spare -= size
    rates = {}
    for _ in range(draw(st.integers(1, 5))):
        impacting_count, impacted_count = draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
        group = [draw(st.integers(0, n - 1))]
        while len(group) < impacting_count + impacted_count:
            frontier = sorted({m for q in group for m in graph.neighbors(q)} - set(group))
            if not frontier:
                break
            group.append(draw(st.sampled_from(frontier)))
        if len(group) == impacting_count + impacted_count:
            group = draw(st.permutations(group))
            impacting = frozenset(group[:impacting_count])
            impacted = frozenset(group[impacting_count:])
            rates[impacting, impacted] = CrosstalkRate(
                draw(st.floats(1e-4, 1e-2)), impacting, impacted
            )
    sizes = SizeRequests(trusted=requests[Trust.TRUSTED], untrusted=requests[Trust.UNTRUSTED])
    return graph, sizes, tuple(rates.values()), draw(st.sampled_from([1, 3, 64]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(search_instances())
def test_every_join_connect_refuses_is_one_the_reference_budget_refuses(instance):
    # ``join_checkers`` checks every join and operator call of the run.
    graph, sizes, rates, paths = instance
    record = {"joins": [], "connected": [], "refused": 0, "skipped": 0}
    with contextlib.ExitStack() as patches:
        for name, checker in join_checkers(record):
            patches.enter_context(mock.patch.object(allocator_module, name, checker))
        allocate(graph, sizes, rates, SearchConfig(max_paths_per_connect=paths))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(search_instances())
def test_every_base_the_completion_search_grows_is_connected(instance):
    # ``connected_supersets`` takes connected bases only: every call the
    # index build, the decider (a run past the index budget) and the
    # completion walk make hands it one.
    graph, sizes, rates, paths = instance
    bases = []
    supersets = completion_module.connected_supersets

    def checking(base, target, available, adjacency):
        assert base and mask_region(base & -base, base, adjacency) == base
        bases.append(base)
        return supersets(base, target, available, adjacency)

    config = SearchConfig(max_paths_per_connect=paths)
    with mock.patch.object(completion_module, "connected_supersets", checking):
        indexed = allocate(graph, sizes, rates, config)
        with mock.patch.object(completion_module, "INDEX_BUDGET", 1):
            assert allocate(graph, sizes, rates, config) == indexed
        for allocation in built(indexed.allocations):
            complete_allocation(allocation, graph, indexed.sizes)
    assert bases


def supersets_of_any_base(base, target, available, adjacency):
    """``connected_supersets`` as it was when it also took a disconnected ``base``.

    Grown from the connected part of ``base`` at its lowest qubit; a qubit
    of ``base`` is never excluded, and a branch stops once the ``base``
    qubits it lacks no longer fit in ``target``.
    """
    start = mask_region(base & -base, base, adjacency)
    lacking = base & ~start
    count = start.bit_count()
    if count + lacking.bit_count() > target:
        return
    stack = [(start, mask_neighborhood(start, adjacency), (available | base) & ~start, count)]
    while stack:
        current, reach, allowed, count = stack.pop()
        if count == target:
            yield current
            continue
        frontier = reach & allowed
        if not frontier or count + allowed.bit_count() < target:
            continue
        pick = frontier & -frontier
        allowed ^= pick
        if not pick & base:
            stack.append((current, reach, allowed, count))
            if lacking and count + 1 + (base & ~current).bit_count() > target:
                continue
        stack.append((current | pick, reach | adjacency[pick.bit_length() - 1], allowed, count + 1))


def per_size_regions(base, reach, top, graph):
    """``_grown`` as it was: each size enumerated apart, then sorted in combinations order."""
    for size in range(base.bit_count(), top + 1):
        regions = supersets_of_any_base(base, size, reach & ~base, graph.adjacency_masks)
        yield from sorted(regions, key=lambda region: sorted(mask_qubits(region)))


@st.composite
def region_enumerations(draw):
    """A platform of at most 10 qubits, a ``base`` its free qubits reach, a top and a cut."""
    graph = draw(platforms(10))
    n = graph.vertex_count
    base = qubit_mask(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    free = qubit_mask(draw(st.sets(st.integers(0, n - 1)))) & ~base
    reach = allocator_module.mask_region(base & -base, base | free, graph.adjacency_masks)
    assume(not base & ~reach)
    top = draw(st.integers(base.bit_count(), reach.bit_count()))
    return base, reach, top, graph, draw(st.sampled_from([1, 3, 64, None]))


@settings(max_examples=200, deadline=None)
@given(region_enumerations())
@example((0b101, 0b111111, 4, _PATH6, None))  # a disconnected base: {0, 2} needs qubit 1
@example((0b100001, 0b111111, 6, _PATH6, 3))  # {0, 5} needs all of 1-4, so only size 6 has one
@example((0b1000, 0b111111, 5, _PATH6, 3))  # the cut lands inside a size
def test_grown_enumerates_like_one_walk_per_size(case):
    base, reach, top, graph, cut = case
    grown = itertools.islice(allocator_module._grown(base, reach, top, graph), cut)
    assert list(grown) == list(itertools.islice(per_size_regions(base, reach, top, graph), cut))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(region_join_runs())
def test_the_sorted_shape_budget_is_remain_on_the_state(case):
    # One memo over states of one run shares a budget table between every
    # state of one sorted (trust, size) shape.
    graph, sizes, paths, joins = case
    shared = SearchMemo(sizes, graph, SearchConfig(max_paths_per_connect=paths))
    for state, _, _ in joins:
        owners = state[1] + allocator_module._FRESH
        allocation = allocation_of(state)
        expected = [
            reference_remain(
                mask_qubits(mask), allocation, sizes, fresh_trust=None if mask else trust
            )
            for trust, mask in owners
        ]
        assert allocator_module._budgets(state, owners, shared) == expected
        assert [remain(owner, state, sizes) for owner in owners] == expected


def region_state(allocation, region, trust):
    """The state giving ``region`` and the components it meets to one user, or None.

    The user takes the first such component's trust, or ``trust`` when
    there is none; None when the components mix classes.
    """
    touching = [c for c in allocation.components if c.qubits & region]
    if len({c.trust for c in touching}) > 1:
        return None
    fused = frozenset(region).union(*(c.qubits for c in touching))
    kept = tuple(c for c in allocation.components if not c.qubits & region)
    user = UserComponent(touching[0].trust if touching else trust, fused)
    return state_of(Allocation(allocation.unallocated - region, kept + (user,)))


_LINE4 = ConnectivityGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
_LINE5 = ConnectivityGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connect_cases(10))
@example(  # kept {0} fits the structure {0,1,2}+{3}, whose block meets the region {2}
    (build(4, u(0)), frozenset(), frozenset({2}), _LINE4, SizeRequests(untrusted=(3, 1)), 64,
     Trust.UNTRUSTED)
)
@example(  # kept {0} and {1} share every block that leaves {3} one of its own
    (build(4, u(0), u(1)), frozenset(), frozenset({3}), _LINE4, SizeRequests(untrusted=(3, 1)), 64,
     Trust.UNTRUSTED)
)
@example(  # trusted {3} grows over {1, 2}, where kept {0}'s only block {0, 1} lies
    (build(5, u(0), t(3)), frozenset({3}), frozenset({1}), _LINE5,
     SizeRequests(trusted=(3,), untrusted=(2,)), 64, None)
)
def test_a_join_keeps_exactly_the_regions_the_decider_completes(case):
    allocation, user, incoming, graph, sizes, paths, fresh_trust = case
    memo = SearchMemo(sizes, graph, SearchConfig(max_paths_per_connect=paths))
    assume(memo.index is not None)
    state = state_of(allocation)
    joined = next((owner(c) for c in allocation.components if c.qubits == user), (fresh_trust, 0))
    base = joined[1] | qubit_mask(incoming)
    regions = join_regions(state, joined, qubit_mask(incoming), memo)
    verdicts = {}
    decided = []
    for region in regions:
        candidate = region_state(allocation, mask_qubits(region), joined[0])
        complete = candidate is not None and decide(*candidate, graph, memo.requests, verdicts)
        decided.append(candidate if complete else None)
    expected = [candidate for candidate in decided if candidate is not None]
    assert list(allocator_module._fused(state, joined, base, regions, memo)) == expected
    # The join's host blocks decide each region alike, on a join of one
    # region too, and on ``base`` itself, whether the budget allows the join
    # or not.
    touching = [(t, m) for t, m in state[1] if m & base]
    if len({t for t, _ in touching}) <= 1:
        trust = touching[0][0] if touching else joined[0]
        touched = qubit_mask(set().union(*(mask_qubits(m) for _, m in touching)))
        kept = [component for component in state[1] if component not in touching]
        taken = qubit_mask(set().union(*(c.qubits for c in allocation.components)))
        hosts = memo.index.hosts(kept, taken, trust, base | touched)
        hosted = [any(not (region | touched) & ~block for block in hosts) for region in regions]
        assert hosted == [candidate is not None for candidate in decided]
        held = base | touched
        if graph.is_connected(mask_qubits(held)):
            grown = [held]
        else:  # ``decide`` takes connected components: ask it of each connected growth
            grown = allocator_module._grown(held, held | state[0], graph.vertex_count, graph)
        completes = any(
            decide(*region_state(allocation, mask_qubits(region), trust), graph, memo.requests, verdicts)
            for region in grown
        )
        assert any(not held & ~block for block in hosts) is completes


class TestNewAlloc:
    def test_fresh_single_user_over_unallocated_qubits(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = new_alloc(
            state_of(allocation), FRESH_U, qubit_mask({2, 3, 4}),
            memo=SearchMemo(sizes, demo_graph),
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
            state_of(allocation), FRESH_U, qubit_mask({0, 2, 3}),
            memo=SearchMemo(sizes, demo_graph),
        )
        assert candidate is None

    def test_cross_trust_merge_is_rejected(self, demo_graph):
        allocation = build(5, t(0, 1), u(2, 3))
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        assert new_alloc(
            state_of(allocation), owner(t(0, 1)), qubit_mask({1, 2}),
            memo=SearchMemo(sizes, demo_graph),
        ) is None

    def test_cross_trust_merge_is_rejected_where_the_mixed_state_would_complete(self):
        # desk8-oracle instance i22 (seed 1): fusing the trusted {1} with
        # the untrusted {0, 2} gives a state that completes as one trusted
        # {0, 1, 2}, so only the mixed-trust guard refuses the merge.
        edges = "0-2 0-4 0-5 0-6 1-2 1-4 1-7 2-3 2-6 3-5 3-7 4-6 5-6"
        graph = ConnectivityGraph(8, frozenset(tuple(map(int, e.split("-"))) for e in edges.split()))
        memo = SearchMemo(update_sizes(8, SizeRequests(trusted=(3,), untrusted=(4,))), graph)
        state = (0b11111000, ((Trust.TRUSTED, 0b10), (Trust.UNTRUSTED, 0b101)))
        mixed = (0b11111000, ((Trust.TRUSTED, 0b111),))
        assert allocator_module.completable(mixed, memo)
        assert new_alloc(state, (Trust.TRUSTED, 0b10), 0b111, memo=memo) is None

    def test_disconnected_merge_is_rejected(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        assert (
            new_alloc(
                state_of(allocation), FRESH_U, qubit_mask({1, 4}),
                memo=SearchMemo(sizes, demo_graph),
            )
            is None
        )
        # On a line {0, 2} is disconnected although the complete structure
        # {0, 1, 2}, {3, 4} holds it, so only the connectivity test refuses
        # it; fused with a held {0, 1} it is connected and kept.
        line = ConnectivityGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
        memo = SearchMemo(SizeRequests(untrusted=(3, 2)), line)
        merged = qubit_mask({0, 2})
        assert new_alloc(state_of(allocation), FRESH_U, merged, memo=memo) is None
        held = state_of(build(5, u(0, 1)))
        assert new_alloc(held, owner(u(0, 1)), merged, memo=memo) == state_of(build(5, u(0, 1, 2)))


class TestAllocUnallocated:
    def test_fresh_user_branch_reaches_the_bare_impacted_qubit(self, demo_graph):
        allocation = build(5)
        sizes = SizeRequests(untrusted=(2, 3))
        results = alloc_unallocated(
            state_of(allocation), qubit_mask({2}), memo=SearchMemo(sizes, demo_graph),
        )
        assert structure([2]) in state_keys(results)
        for result in results:
            assert 2 not in allocation_of(result).unallocated

    def test_already_owned_impacted_qubit_passes_through(self, demo_graph):
        allocation = build(5, u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        results = alloc_unallocated(
            state_of(allocation), qubit_mask({2}), memo=SearchMemo(sizes, demo_graph),
        )
        assert state_keys(results) == {canonicalize(allocation)}

    def test_no_viable_branch_gives_empty_set(self):
        line = ConnectivityGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
        allocation = build(5, u(0, 1))
        sizes = SizeRequests(untrusted=(2,))
        results = alloc_unallocated(state_of(allocation), qubit_mask({3}), memo=SearchMemo(sizes, line))
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
            [state_of(build(5, u(2)))], *control_masks(demo_rates[0]),
            memo=SearchMemo(sizes, demo_graph),
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
            [state_of(candidate)], *control_masks(demo_rates[0]), memo=SearchMemo(sizes, demo_graph),
        )
        assert canonicalize(candidate) in state_keys(results)

    def test_blocked_instance_yields_nothing(self, demo_graph, demo_rates):
        # Merging the two users overshoots every request and the free
        # impacting qubit is unreachable within the size budget.
        sizes = SizeRequests(untrusted=(2, 3))
        candidate = build(5, u(0, 1), u(2, 3))
        results = alloc_impacted(
            [state_of(candidate)], *control_masks(demo_rates[2]), memo=SearchMemo(sizes, demo_graph),
        )
        assert results == []

    def test_unallocated_impacted_qubit_is_a_caller_bug(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        with pytest.raises(ValueError):
            alloc_impacted(
                [state_of(build(5))], *control_masks(demo_rates[0]),
                memo=SearchMemo(sizes, demo_graph),
            )


class TestImproveAlloc:
    def test_fresh_single_user_when_nothing_is_allocated(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        results = improve_alloc(
            state_of(build(5)), rate_masks(demo_rates[0])[3], memo=SearchMemo(sizes, demo_graph)
        )
        assert state_keys(results) == {structure([2, 3, 4])}

    def test_owner_absorbs_the_unallocated_involved_qubit(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        results = improve_alloc(
            state_of(build(5, u(2, 3))), rate_masks(demo_rates[0])[3],
            memo=SearchMemo(sizes, demo_graph),
        )
        assert state_keys(results) == {structure([2, 3, 4])}

    def test_cross_trust_owners_cannot_merge(self, demo_graph):
        sizes = SizeRequests(trusted=(2,), untrusted=(3,))
        allocation = build(5, t(0, 1), u(2, 3, 4))
        assert improve_alloc(
            state_of(allocation), qubit_mask({0, 1, 2}), memo=SearchMemo(sizes, demo_graph)
        ) == []


class TestAllocTrusted:
    def test_no_trusted_components_generate_nothing(self, demo_graph, demo_rates):
        sizes = SizeRequests(untrusted=(2, 3))
        assert (
            alloc_trusted(
                state_of(build(5)), qubit_mask(demo_rates[0].impacting),
                memo=SearchMemo(sizes, demo_graph),
            )
            == []
        )

    def test_branches_over_free_impacting_subsets(self, demo_graph):
        sizes = SizeRequests(trusted=(3,), untrusted=(2,))
        allocation = build(5, t(1))
        impacting = qubit_mask({2, 4})
        results = alloc_trusted(
            state_of(allocation), impacting, memo=SearchMemo(sizes, demo_graph)
        )
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
            state_of(allocation), qubit_mask({2, 4}), memo=SearchMemo(sizes, demo_graph),
        ) == []

    @pytest.mark.parametrize(
        "sizes, components, counts",
        [
            # No trusted request: the fresh trusted owner's budget is -1, and
            # none of the 31 subsets is asked.
            (SizeRequests(untrusted=(2, 3)), (), (0, 0, 31)),
            # A fresh trusted user takes at most 2: the 5 singles and 10 pairs.
            (SizeRequests(trusted=(2, 1), untrusted=(2,)), (), (23, 15, 31)),
            # The user holding {1} may grow by 2 and a fresh one take 3: each
            # of the 4 singles and 6 pairs twice, the 4 triples once.
            (SizeRequests(trusted=(3, 1), untrusted=(1,)), (t(1),), (48, 24, 30)),
        ],
    )
    def test_asks_only_the_joins_a_trusted_budget_takes(
        self, monkeypatch, demo_graph, sizes, components, counts
    ):
        # Against ``reference_alloc_trusted``, which asks for every pick:
        # the same states in the same order, and only the picks whose owner's
        # reference budget takes the subset reach ``connect``.
        allocation = build(5, *components)
        impacting = frozenset({0, 1, 2, 3, 4})
        memo = SearchMemo(sizes, demo_graph)
        asked, taken, picks = [], [], []

        def counting(state, owner, incoming, budget, *, memo):
            asked.append((state, owner, incoming))
            return connect(state, owner, incoming, budget, memo=memo)

        def recording(allocation, user, incoming, graph, sizes, config, *, fresh_trust=None):
            picks.append(pick_key(allocation, user, incoming, fresh_trust))
            if reference_remain(user, allocation, sizes, fresh_trust=fresh_trust) >= len(incoming):
                taken.append(picks[-1])
            return reference_connect(
                allocation, user, incoming, graph, sizes, config, fresh_trust=fresh_trust
            )

        monkeypatch.setattr(allocator_module, "connect", counting)
        made = alloc_trusted(state_of(allocation), qubit_mask(impacting), memo=memo)
        expected = reference_alloc_trusted(
            allocation, impacting, demo_graph, sizes, memo.config, join=recording
        )
        assert [allocation_of(state) for state in made] == expected
        assert asked == taken
        assert (len(made), len(asked), len(picks)) == counts


class TestUpdatePopulation:
    @staticmethod
    def memo(graph, config=CFG):
        return SearchMemo(SizeRequests(untrusted=(2, 3)), graph, config)

    def test_archived_structure_is_not_readmitted(self, demo_graph, demo_rates):
        ordered = sort_rates(demo_rates)
        key, member = member_of(build(5, u(2, 3)))
        population = {key: member}
        archive: dict = {}
        archive_alloc(key, population, archive, ordered[1])
        admitted = update_population(
            [state_of(build(5, u(2, 3)))], population, archive, masks_of(ordered[:1]),
            self.memo(demo_graph),
        )
        assert admitted == [] and population == {}

    def test_fresh_safe_candidate_is_admitted_with_replayed_attributes(
        self, demo_graph, demo_rates
    ):
        ordered = sort_rates(demo_rates)
        population: dict = {}
        admitted = update_population(
            [state_of(build(5, u(2, 3)))], population, {}, masks_of(ordered[:1]),
            self.memo(demo_graph),
        )
        ((state, member),) = admitted
        assert member.score == 0.0027 and member.penalty == 0.0027
        assert population == {state: member} and state == state_of(build(5, u(2, 3)))

    def test_candidate_unsafe_for_an_earlier_rate_is_rejected(self, demo_graph):
        # The candidate fixes the later rate but leaves the earlier one's
        # impacted qubit exposed to its unprotected owner.
        early = CrosstalkRate(0.009, frozenset({3, 4}), frozenset({2}))
        late = CrosstalkRate(0.001, frozenset({1}), frozenset({0}))
        candidate = build(5, u(0, 1), u(2))
        assert replay_attributes(candidate, [early, late]) is None
        population: dict = {}
        admitted = update_population(
            [state_of(candidate)], population, {}, masks_of([early, late]), self.memo(demo_graph)
        )
        assert admitted == [] and population == {}

    def test_population_cap_drops_the_worst(self, demo_graph, demo_rates):
        ordered = sort_rates(demo_rates)
        cfg = SearchConfig(max_population=1)
        population: dict = {}
        update_population(
            [state_of(build(5, u(2, 3))), state_of(build(5, u(2, 3, 4)))],
            population, {}, masks_of(ordered[:1]), self.memo(demo_graph, cfg),
        )
        assert len(population) == 1
        # Equal scores; the higher penalty member is the worst.
        (member,) = population.values()
        assert member.penalty == 0.0


class TestArchiveAlloc:
    def test_member_moves_with_frozen_attributes(self, demo_rates):
        key = state_of(build(5, u(2, 3)))
        member = replay_state(key, masks_of(demo_rates[:1]))
        population = {key: member}
        archive: dict = {}
        retired = archive_alloc(key, population, archive, demo_rates[1])
        assert population == {} and archive == {key: retired}
        assert retired.last_rate == demo_rates[1]
        assert retired.score == member.score and retired.penalty == member.penalty

    def test_non_member_is_rejected(self, demo_rates):
        with pytest.raises(ValueError):
            archive_alloc(state_of(build(5, u(2, 3))), {}, {}, demo_rates[0])


def list_reference_allocate(graph, sizes, rates, config):
    """The rate loop over plain lists, kept to pin the keyed store's order.

    Members are re-found by recomputing canonical keys and the taken set
    is rebuilt from population and archive on every admission round.  It
    runs on the frozen frozenset operators above.  Returns the outcome and,
    for each rate, the rate with its members as ``(state, record)`` pairs:
    the population after it, as the per-rate update left each record, and
    the members it retired.
    """
    full = update_sizes(graph.vertex_count, sizes)
    ordered = sort_rates(rates)
    top = max((r.score for r in ordered), default=0.0)
    initial_score = max(top + 1.0, math.nextafter(top, math.inf))
    population = [Allocation(unallocated=graph.qubits, components=(), score=initial_score)]
    archive = []
    steps = []
    records = []

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
                    candidates = reference_improve_alloc(member, rate.involved, graph, full, config)
                population[position] = _reference_eval_alloc(member, rate)
            else:
                candidates = reference_alloc_unallocated(member, rate.impacted, graph, full, config)
                candidates = reference_alloc_impacted(
                    candidates, rate.impacting, rate.impacted, graph, full, config
                )
                candidates = dedup_allocations(
                    candidates
                    + reference_improve_alloc(member, rate.involved, graph, full, config)
                    + reference_alloc_trusted(member, rate.impacting, graph, full, config)
                )
                retired = rebuilt(population.pop(position), last_rate=rate)
                archive.append(retired)
                newly_archived.append(retired)
            admit(candidates, processed)
        alive, retired = tuple(map(member_of, population)), tuple(map(member_of, newly_archived))
        steps.append(RateStep(rate, tuple(s for s, _ in alive), tuple(s for s, _ in retired)))
        records.append((rate, alive, retired))
        if not population:
            break

    outcome = AllocationOutcome(
        population=tuple(map(member_of, population)),
        archive=tuple(map(member_of, archive)),
        sizes=full,
        rates=ordered,
        steps=tuple(steps),
    )
    return outcome, tuple(records)


def step_records(outcome):
    """Each rate with its members as ``(state, record)`` pairs, read off ``outcome``.

    A live member's record is the replay of the rates handled so far, as
    the verbose text view reads it; a retired one's is its archive record.
    """
    handled = masks_of(outcome.rates)
    archive = dict(outcome.archive)
    return tuple(
        (
            step.rate,
            tuple((state, replay_state(state, handled[: index + 1])) for state in step.population),
            tuple((state, archive[state]) for state in step.archived),
        )
        for index, step in enumerate(outcome.steps)
    )


def start_score(outcome):
    """The start score, as the initial member (the state without components) carries it."""
    return next(record for state, record in outcome.allocations if not state[1]).score


class TestKeyedStore:
    @pytest.mark.parametrize("cap", [None, 1, 2, 3])
    def test_demo_matches_the_list_reference(self, demo_graph, demo_sizes, demo_rates, cap):
        config = SearchConfig(max_population=cap)
        expected, records = list_reference_allocate(demo_graph, demo_sizes, demo_rates, config)
        outcome = allocate(demo_graph, demo_sizes, demo_rates, config)
        assert outcome == expected
        assert step_records(outcome) == records

    @pytest.mark.parametrize("cap", [None, 1, 2, 3])
    def test_family_matches_the_list_reference(self, family, cap):
        config = SearchConfig(max_population=cap)
        for instance in family:
            expected, records = list_reference_allocate(
                instance.graph, instance.sizes, instance.rates, config
            )
            outcome = allocate(instance.graph, instance.sizes, instance.rates, config)
            assert outcome == expected
            assert step_records(outcome) == records


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
    assert all(
        len(c) == 2 and isinstance(c[0], Trust) and type(c[1]) is int for c in components
    )
    # Sorting by (trust, lowest qubit) is canonicalize's component order.
    by_lowest = sorted(allocation.components, key=lambda c: (c.trust.value, min(c.qubits)))
    assert [canonicalize(build(0, c))[1][0] for c in by_lowest] == list(canonicalize(allocation)[1])
    assert [(t.value, tuple(sorted(mask_qubits(m)))) for t, m in components] == list(
        canonicalize(allocation)[1]
    )
    assert list(components) == sorted(components, key=component_order)


class TestPerRunMemo:
    """The memo's tables live as long as one ``allocate`` call."""

    def test_allocator_holds_no_module_level_cache(self):
        for name, value in vars(allocator_module).items():
            if not name.startswith("__"):
                assert not isinstance(value, (dict, functools._lru_cache_wrapper)), name

    def test_two_runs_in_one_process_decide_alike(
        self, monkeypatch, family, demo_graph, demo_sizes, demo_rates
    ):
        calls = []
        completable = allocator_module.completable

        def counting(state, memo):
            calls.append(state)
            return completable(state, memo)

        monkeypatch.setattr(allocator_module, "completable", counting)
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
            assert len(set(run)) == len(run)

    def test_one_index_build_per_run(self, monkeypatch, family):
        builds = []
        completion_index = allocator_module.completion_index

        def counting(requests, graph):
            builds.append(requests)
            return completion_index(requests, graph)

        monkeypatch.setattr(allocator_module, "completion_index", counting)
        for instance in family[:5]:
            for run in (1, 2):
                allocate(instance.graph, instance.sizes, instance.rates)
                assert len(builds) == run
            builds.clear()

    def test_two_runs_in_one_process_budget_and_decide_alike(self, monkeypatch, family):
        calls = {"remain": [], "completable": []}

        def counting(name, function):
            def wrapper(*args):
                calls[name].append(args)
                return function(*args)
            return wrapper

        monkeypatch.setattr(allocator_module, "remain", counting("remain", remain))
        completable = allocator_module.completable
        monkeypatch.setattr(allocator_module, "completable", counting("completable", completable))
        for instance in family[:5]:
            counts = []
            for _ in range(2):
                before = {name: len(made) for name, made in calls.items()}
                allocate(instance.graph, instance.sizes, instance.rates)
                counts.append({name: len(made) - before[name] for name, made in calls.items()})
            assert counts[0] == counts[1]
            assert counts[1]["remain"] > 0
            # Within one run each growth budget is worked out once.
            run = calls["remain"][-counts[1]["remain"]:]
            signatures = {
                (owner[0], owner[1].bit_count(), tuple((t, m.bit_count()) for t, m in state[1]))
                for owner, state, _ in run
            }
            assert len(signatures) == len(run)

    def test_two_runs_in_one_process_enumerate_alike(self, monkeypatch, family):
        enumerated = []

        def counting(base, reach, top, graph):
            enumerated.append((base, reach, top))
            return grown(base, reach, top, graph)

        grown = allocator_module._grown
        monkeypatch.setattr(allocator_module, "_grown", counting)
        for instance in family[:5]:
            counts = []
            for _ in range(2):
                before = len(enumerated)
                allocate(instance.graph, instance.sizes, instance.rates)
                counts.append(len(enumerated) - before)
            assert counts[0] == counts[1] > 0
            # Within one run each (base, reach, top) is enumerated once.
            run = enumerated[-counts[1]:]
            assert len(set(run)) == len(run)

    def test_each_memo_owns_its_region_table(self, demo_graph, demo_sizes):
        first, second = SearchMemo(demo_sizes, demo_graph), SearchMemo(demo_sizes, demo_graph)
        assert first.regions == {} and first.regions is not second.regions
        assert "regions" in SearchMemo.__slots__
        assert not any(isinstance(value, dict) for value in vars(SearchMemo).values())


class TestIndexFallback:
    """A run whose complete set is past the index's budget asks the decider instead."""

    def test_a_budget_of_one_gives_the_indexed_outcome(
        self, monkeypatch, family, demo_graph, demo_sizes, demo_rates
    ):
        memos = []

        class Recording(SearchMemo):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(self)

        monkeypatch.setattr(allocator_module, "SearchMemo", Recording)
        instances = [(demo_graph, demo_sizes, demo_rates)]
        instances += [(i.graph, i.sizes, i.rates) for i in family[:5]]
        for graph, sizes, rates in instances:
            indexed = allocate(graph, sizes, rates)
            assert memos[-1].index is not None and memos[-1].verdicts == {}
            with monkeypatch.context() as budget:
                budget.setattr(completion_module, "INDEX_BUDGET", 1)
                fallback = allocate(graph, sizes, rates)
            assert memos[-1].index is None and memos[-1].verdicts
            assert fallback == indexed


class TestWarmMemo:
    """A join answered from the run's memo is the join worked out afresh."""

    def test_connect_gives_the_same_list_warm_as_cold(self, family):
        for instance in family[:8]:
            full = update_sizes(instance.graph.vertex_count, instance.sizes)
            outcome = allocate(instance.graph, instance.sizes, instance.rates)
            shared = SearchMemo(full, instance.graph)
            for allocation in built(outcome.allocations):
                state = state_of(allocation)
                for joined in state[1] + ((Trust.TRUSTED, 0), FRESH_U):
                    for qubit in sorted(allocation.unallocated):
                        args = (state, joined, 1 << qubit)
                        cold = join(*args, SearchMemo(full, instance.graph))
                        warm = join(*args, shared)
                        assert warm == cold
                        assert join(*args, shared) is warm

    def test_a_join_refused_on_budget_is_empty_and_keeps_no_key(self, family):
        refused = 0
        for instance in family:
            full = update_sizes(instance.graph.vertex_count, instance.sizes)
            outcome = allocate(instance.graph, instance.sizes, instance.rates)
            shared = SearchMemo(full, instance.graph)
            for allocation in built(outcome.allocations):
                state = state_of(allocation)
                free = [1 << q for q in sorted(allocation.unallocated)]
                incoming = free + [mask for _, mask in state[1]] + [state[0]]
                for joined in state[1] + ((Trust.TRUSTED, 0), FRESH_U):
                    for target in filter(None, incoming):
                        args = (state, joined, target)
                        cold = join(*args, SearchMemo(full, instance.graph))
                        keys_before = len(shared.joins)
                        warm = join(*args, shared)
                        assert warm == cold
                        if remain(joined, state, full) < (target & ~joined[1]).bit_count():
                            refused += 1
                            assert warm == () and len(shared.joins) == keys_before
                        else:
                            assert args in shared.joins
        assert refused > 100

    def test_a_repeated_join_returns_the_memo_tuple_and_a_refused_one_keeps_no_key(
        self, demo_graph
    ):
        sizes = SizeRequests(untrusted=(2, 3))
        memo = SearchMemo(sizes, demo_graph)
        state = state_of(build(5))
        args = (state, FRESH_U, qubit_mask({2}))
        first = join(*args, memo)
        assert first and type(first) is tuple
        assert memo.joins == {args: first}
        assert join(*args, memo) is first and connect(*args, 3, memo=memo) is first
        # A fresh user may take 3 qubits: a 4-qubit incoming is refused on
        # its budget, and a repeat of it is refused again.
        assert budget_of(state, FRESH_U, memo) == 3
        for _ in range(2):
            assert join(state, FRESH_U, qubit_mask({0, 1, 2, 3}), memo) == ()
        assert memo.joins == {args: first}


class TestMemoCarriesTheRun:
    """A memo reads the graph, sizes and config it was built from, and no others."""

    def test_a_memo_built_with_a_path_cap_caps_every_join_made_through_it(
        self, monkeypatch, demo_graph, family
    ):
        sizes = SizeRequests(untrusted=(5,))
        args = (state_of(build(5)), FRESH_U, qubit_mask({2}))
        capped = SearchMemo(sizes, demo_graph, SearchConfig(max_paths_per_connect=1))
        assert len(join(*args, SearchMemo(sizes, demo_graph))) > 1
        assert len(join(*args, capped)) == 1

        regions = {1: [], 64: []}

        def checking(state, owner, incoming, budget, *, memo):
            # The operators hand on the owner's budget, read once per state.
            assert budget == budget_of(state, owner, memo)
            room = budget - (incoming & ~owner[1]).bit_count()
            if room >= 0:
                made = allocator_module._regions(owner[1] | incoming, state[0], room, memo)
                assert made == join_regions(state, owner, incoming, memo)
                regions[memo.config.max_paths_per_connect].append(len(made))
            return connect(state, owner, incoming, budget, memo=memo)

        monkeypatch.setattr(allocator_module, "connect", checking)
        for paths in regions:
            config = SearchConfig(max_paths_per_connect=paths)
            for instance in family[:5]:
                allocate(instance.graph, instance.sizes, instance.rates, config)
        assert max(regions[1]) == 1
        assert max(regions[64]) > 1


class TestAllocateEndToEnd:
    def test_population_after_each_rate_matches_the_narrative(
        self, demo_graph, demo_sizes, demo_rates
    ):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        assert len(outcome.steps) == 3

        assert member_keys(outcome.steps[0].population) == {
            structure([2, 3]),
            structure([2, 4]),
            structure([2, 3, 4]),
        }
        assert member_keys(outcome.steps[1].population) == {
            structure([0, 1], [2, 3]),
            structure([0, 1], [2, 4]),
            structure([0, 1], [2, 3, 4]),
        }
        assert outcome.steps[2].population == ()
        assert outcome.halted

        # The initial allocation falls at the first rate; its repairs at
        # the second; the final generation at the third.
        by_key = {state_key(state): record for state, record in outcome.allocations}
        assert by_key[structure()].last_rate == demo_rates[0]
        assert by_key[structure([2, 3])].last_rate == demo_rates[1]
        assert by_key[structure([0, 1], [2, 3, 4])].last_rate == demo_rates[2]
        assert len(outcome.allocations) == 7

    def test_penalties_after_the_first_rate(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        # Every member alive after the first rate falls at the second, so the
        # archive holds its record as the first rate left it.
        archive = dict(outcome.archive)
        assert set(outcome.steps[0].population) <= set(outcome.steps[1].archived)
        members = {state_key(state): archive[state] for state in outcome.steps[0].population}
        assert members[structure([2, 3])].penalty == 0.0027
        assert members[structure([2, 4])].penalty == 0.0027
        assert members[structure([2, 3, 4])].penalty == 0.0
        for member in members.values():
            assert member.score == 0.0027

    def test_insufficient_qubits(self, demo_graph):
        with pytest.raises(InsufficientQubitsError):
            allocate(demo_graph, SizeRequests(untrusted=(6,)), [])

    @pytest.mark.parametrize(
        "impacting, impacted",
        # Qubits 98 and 99 do not exist, -1 is no qubit, and 1 and 4 are not adjacent.
        [({99}, {98}), ({-1}, {0}), ({1}, {4})],
    )
    def test_a_rate_that_is_not_a_connected_group_is_refused(
        self, demo_graph, demo_sizes, demo_rates, impacting, impacted
    ):
        rate = CrosstalkRate(0.5, frozenset(impacting), frozenset(impacted))
        named = re.escape(f"rate {sorted(impacting)} -> {sorted(impacted)} (score 0.5) is not")
        with pytest.raises(ValueError, match=named):
            allocate(demo_graph, demo_sizes, [*demo_rates, rate])

    def test_scores_summing_past_the_largest_float_are_refused(
        self, demo_graph, demo_sizes, demo_rates
    ):
        rates = [CrosstalkRate(1e308, rate.impacting, rate.impacted) for rate in demo_rates]
        with pytest.raises(ValueError, match=r"the rate scores sum to inf in processing order"):
            allocate(demo_graph, demo_sizes, rates)

    def test_scores_summing_below_the_largest_float_stay_finite(
        self, demo_graph, demo_sizes, demo_rates
    ):
        quarter = sys.float_info.max / 4
        rates = [CrosstalkRate(quarter, rate.impacting, rate.impacted) for rate in demo_rates[:2]]
        outcome = allocate(demo_graph, demo_sizes, rates)
        start = start_score(outcome)
        assert math.isfinite(start) and start > quarter
        assert all(
            math.isfinite(r.score) and math.isfinite(r.penalty) for _, r in outcome.allocations
        )

    def test_zero_rates_returns_only_the_initial_allocation(self, demo_graph, demo_sizes):
        outcome = allocate(demo_graph, demo_sizes, [])
        assert len(outcome.allocations) == 1
        assert built(outcome.allocations)[0].unallocated == demo_graph.qubits
        assert not outcome.halted

    def test_determinism(self, demo_graph, demo_sizes, demo_rates):
        first = allocate(demo_graph, demo_sizes, demo_rates)
        second = allocate(demo_graph, demo_sizes, list(reversed(demo_rates)))
        assert first == second

    def test_a_path_cap_past_the_largest_index_cuts_no_join(
        self, family, demo_graph, demo_sizes, demo_rates
    ):
        huge = SearchConfig(max_paths_per_connect=2**63)
        instances = [(demo_graph, demo_sizes, demo_rates)]
        instances += [(i.graph, i.sizes, i.rates) for i in family[:5]]
        for graph, sizes, rates in instances:
            assert allocate(graph, sizes, rates, huge) == allocate(graph, sizes, rates)

    def test_initial_score_sits_above_every_rate(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates)
        assert start_score(outcome) > max(r.score for r in demo_rates)

    def test_initial_score_sits_above_a_top_rate_past_two_to_the_53(self):
        # Seed 1037 with every score times 2**70: the top score is past 2**53,
        # where adding 1.0 leaves it unchanged, so a start scored top + 1.0
        # tied with the members safe for the top rate alone and ranked first.
        instance = make_instance(1037)
        scaled = [
            CrosstalkRate(math.ldexp(r.score, 70), r.impacting, r.impacted) for r in instance.rates
        ]
        plain = select(allocate(instance.graph, instance.sizes, instance.rates), instance.graph)
        outcome = allocate(instance.graph, instance.sizes, scaled)
        assert start_score(outcome) > max(r.score for r in scaled)
        chosen = select(outcome, instance.graph)
        assert canonicalize(chosen.allocation) == canonicalize(plain.allocation)
        assert safe_prefix(chosen.allocation, outcome.rates) == 1

    def test_only_the_entries_select_walks_are_built(
        self, monkeypatch, family, demo_graph, demo_sizes, demo_rates
    ):
        # The search returns states and records; select builds one Allocation,
        # for the top ranking entry, which is the one it completes, and
        # complete_allocation one more for the completion it returns.
        built_allocations, built_users, walked = [], [], []
        for kind, made in ((Allocation, built_allocations), (UserComponent, built_users)):

            def counting(self, *args, _construct=kind.__init__, _made=made, **kwargs):
                _made.append(self)
                _construct(self, *args, **kwargs)

            monkeypatch.setattr(kind, "__init__", counting)
        complete = selection_module.complete_allocation

        def recording(allocation, *args):
            walked.append(allocation)
            return complete(allocation, *args)

        monkeypatch.setattr(selection_module, "complete_allocation", recording)
        two_cliques = ConnectivityGraph(4, frozenset({(0, 1), (2, 3)}))
        instances = [(demo_graph, demo_sizes, demo_rates)]
        instances += [(i.graph, i.sizes, i.rates) for i in family[:5]]
        instances += [(two_cliques, SizeRequests(untrusted=(3,)), [])]
        for graph, sizes, rates in instances:
            for config in (CFG, SearchConfig(max_population=2)):
                del built_allocations[:], built_users[:], walked[:]
                outcome = allocate(graph, sizes, rates, config)
                assert built_allocations == [] and built_users == []
                try:
                    result = select(outcome, graph)
                except NoFeasibleAllocationError:
                    result = None
                assert len(walked) == 1
                assert [id(a) for a in built_allocations[:1]] == [id(walked[0])]
                ranking = rank(outcome.allocations)
                assert state_of(walked[0]) == ranking[0][0]
                if result is None:
                    assert len(ranking) == 1 and len(built_allocations) == 1
                else:
                    assert [id(a) for a in built_allocations[1:]] == [id(result.allocation)]

    def test_population_cap_keeps_the_search_running(self, demo_graph, demo_sizes, demo_rates):
        outcome = allocate(demo_graph, demo_sizes, demo_rates, SearchConfig(max_population=2))
        for step in outcome.steps:
            assert len(step.population) <= 2

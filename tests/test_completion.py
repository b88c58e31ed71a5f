"""Exact-size completion search."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qaiccc import (
    Allocation,
    ConnectivityGraph,
    SizeRequests,
    Trust,
    UserComponent,
    allocate,
    canonicalize,
    enumerate_complete,
    validate_allocation,
)
from qaiccc.allocator import update_sizes
from qaiccc.completion import (
    can_complete,
    complete_allocation,
    connected_subsets,
    connected_supersets,
    request_slots,
)


def u(*qubits):
    return UserComponent(Trust.UNTRUSTED, frozenset(qubits))


def build(n, *components):
    used = frozenset().union(*(c.qubits for c in components)) if components else frozenset()
    return Allocation(unallocated=frozenset(range(n)) - used, components=components)


def test_exact_allocation_completes_unchanged(demo_graph):
    allocation = build(5, u(0, 1), u(2, 3, 4))
    sizes = SizeRequests(untrusted=(2, 3))
    completed, assignment = complete_allocation(allocation, demo_graph, sizes)
    assert canonicalize(completed) == canonicalize(allocation)
    assert completed.unallocated == frozenset()
    assert {frozenset(v) for v in assignment.values()} == {
        frozenset({0, 1}),
        frozenset({2, 3, 4}),
    }


def test_backtracking_finds_the_viable_binding(demo_graph):
    # {2,3} bound to the 2-request strands {0,1,4}; the walk must pass
    # that binding by and grow {2,3} to the 3-request instead.
    allocation = build(5, u(2, 3))
    sizes = SizeRequests(untrusted=(2, 3))
    completed, assignment = complete_allocation(allocation, demo_graph, sizes)
    assert assignment[("untrusted", 0)] == frozenset({0, 1})
    assert assignment[("untrusted", 1)] == frozenset({2, 3, 4})
    assert completed.unallocated == frozenset()


def test_stranding_allocation_fails(demo_graph):
    allocation = build(5, u(0, 2, 3))
    sizes = SizeRequests(untrusted=(2, 3))
    assert complete_allocation(allocation, demo_graph, sizes) is None
    assert not can_complete(allocation, demo_graph, sizes)


def test_attributes_ride_through_completion(demo_graph, demo_rates):
    allocation = Allocation(
        unallocated=frozenset({0, 1, 4}),
        components=(u(2, 3),),
        score=0.5,
        penalty=0.25,
        incidental=(demo_rates[0],),
        last_rate=demo_rates[1],
    )
    sizes = SizeRequests(untrusted=(2, 3))
    completed, _ = complete_allocation(allocation, demo_graph, sizes)
    assert completed.score == 0.5
    assert completed.penalty == 0.25
    assert completed.incidental == (demo_rates[0],)
    assert completed.last_rate == demo_rates[1]


def test_idle_slot_comes_last_and_must_be_connected():
    line = ConnectivityGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
    sizes = SizeRequests(untrusted=(2,), idle_size=3)
    slots = request_slots(sizes)
    assert slots[-1][0] == ("idle", 0)
    completed, assignment = complete_allocation(build(5), line, sizes)
    assert assignment[("untrusted", 0)] == frozenset({0, 1})
    assert assignment[("idle", 0)] == frozenset({2, 3, 4})
    assert line.is_connected(assignment[("idle", 0)])


def test_sizes_must_cover_the_platform(demo_graph):
    # Without the idle request the sizes cannot cover all qubits.
    assert complete_allocation(build(5), demo_graph, SizeRequests(untrusted=(2,))) is None


def test_connected_subsets_enumerates_each_set_once(demo_graph):
    subsets = list(connected_subsets(demo_graph.qubits, 3, demo_graph))
    assert len(subsets) == len(set(subsets))
    # Brute-force oracle over all 3-subsets.
    expected = {
        frozenset(c)
        for c in itertools.combinations(range(5), 3)
        if demo_graph.is_connected(frozenset(c))
    }
    assert set(subsets) == expected


def test_trust_classes_do_not_mix(demo_graph):
    allocation = Allocation(
        unallocated=frozenset({2, 3, 4}),
        components=(UserComponent(Trust.TRUSTED, frozenset({0, 1})),),
    )
    sizes = SizeRequests(untrusted=(2, 3))
    # The trusted component has no trusted request to bind to.
    assert complete_allocation(allocation, demo_graph, sizes) is None


@pytest.mark.parametrize(
    "allocation",
    [
        build(5, u(0, 3)),  # disconnected, though growing it by 2 would connect it
        Allocation(unallocated=frozenset({1, 4}), components=(u(0, 2), u(2, 3))),  # overlap
        Allocation(unallocated=frozenset({0, 1, 2}), components=(u(2, 3, 4),)),  # overlap
        Allocation(unallocated=frozenset({0, 1}), components=(u(2, 3),)),  # qubit 4 missing
        Allocation(unallocated=frozenset({0, 1, 2}), components=(u(3, 4, 5),)),  # unknown qubit
        Allocation(unallocated=frozenset(range(5)), components=(u(5),)),  # unknown qubit
    ],
)
def test_malformed_partials_never_complete(demo_graph, allocation):
    sizes = SizeRequests(untrusted=(2, 3))
    assert not can_complete(allocation, demo_graph, sizes)
    assert complete_allocation(allocation, demo_graph, sizes) is None


# --- the bitmask primitive against brute force ------------------------------


def platform_of(nx_graph):
    nx_graph = nx.convert_node_labels_to_integers(nx_graph, ordering="sorted")
    edges = frozenset((min(a, b), max(a, b)) for a, b in nx_graph.edges)
    return nx_graph, ConnectivityGraph(nx_graph.number_of_nodes(), edges)


NX_GRAPHS = {
    "path6": nx.path_graph(6),
    "cycle7": nx.cycle_graph(7),
    "grid3x3": nx.grid_2d_graph(3, 3),
    "star6": nx.star_graph(5),
    "complete5": nx.complete_graph(5),
    "petersen": nx.petersen_graph(),
    "lollipop": nx.lollipop_graph(4, 3),
}


def mask(qubits):
    return sum(1 << q for q in qubits)


def qubits_of(m):
    return frozenset(q for q in range(m.bit_length()) if m >> q & 1)


def brute_supersets(nx_graph, base, target, available):
    extra = sorted(available - base)
    return {
        base | frozenset(combo)
        for combo in itertools.combinations(extra, target - len(base))
        if nx.is_connected(nx_graph.subgraph(base | frozenset(combo)))
    }


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_connected_supersets_match_brute_force(name):
    nx_graph, graph = platform_of(NX_GRAPHS[name])
    n = graph.vertex_count
    rng = random.Random(name)
    bases = [frozenset({q}) for q in range(n)]
    bases += [frozenset(e) for e in sorted(nx_graph.edges)[:4]]
    bases += [frozenset(nx.bfs_tree(nx_graph, rng.randrange(n), depth_limit=1))]
    for base in bases:
        others = frozenset(range(n)) - base
        for available in (others, frozenset(q for q in others if rng.random() < 0.6)):
            for target in range(len(base), n + 1):
                grown = connected_supersets(
                    mask(base), target, mask(available), graph.adjacency_masks
                )
                found = [qubits_of(m) for m in grown]
                assert len(found) == len(set(found))
                assert set(found) == brute_supersets(nx_graph, base, target, available | base)


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_connected_subsets_match_brute_force(name):
    nx_graph, graph = platform_of(NX_GRAPHS[name])
    for size in range(1, graph.vertex_count + 1):
        found = list(connected_subsets(graph.qubits, size, graph))
        assert len(found) == len(set(found))
        expected = {
            frozenset(c)
            for c in itertools.combinations(range(graph.vertex_count), size)
            if nx.is_connected(nx_graph.subgraph(c))
        }
        assert set(found) == expected


# --- the walk against the pre-bitmask backtracking search -------------------


def reference_completion(allocation, graph, sizes):
    """The backtracking search completion used before the decider-guided walk.

    Slots in declared order, existing components before fresh blocks,
    include/exclude growth on the lowest frontier qubit; the first
    completion found is the one :func:`complete_allocation` must return.
    """
    slots = request_slots(sizes)
    if sum(size for _, _, size in slots) != graph.vertex_count:
        return None
    comps = list(allocation.components)

    def supersets(current, target, allowed):
        if len(current) == target:
            yield current
            return
        frontier = [q for q in allowed if any(n in current for n in graph.neighbors(q))]
        if not frontier or len(current) + len(allowed) < target:
            return
        pick = min(frontier)
        yield from supersets(current | {pick}, target, allowed - {pick})
        yield from supersets(current, target, allowed - {pick})

    def search(index, free, used):
        if index == len(slots):
            return [] if not free and all(used) else None
        _, trust, size = slots[index]
        for i, comp in enumerate(comps):
            if used[i] or comp.trust is not trust or len(comp.qubits) > size:
                continue
            if not graph.is_connected(comp.qubits):
                continue
            used[i] = True
            for grown in supersets(comp.qubits, size, free - comp.qubits):
                rest = search(index + 1, free - grown, used)
                if rest is not None:
                    used[i] = False
                    return [grown] + rest
            used[i] = False
        for anchor in sorted(free):
            above = frozenset(q for q in free if q > anchor)
            for fresh in supersets(frozenset({anchor}), size, above):
                rest = search(index + 1, free - fresh, used)
                if rest is not None:
                    return [fresh] + rest
        return None

    chosen = search(0, allocation.unallocated, [False] * len(comps))
    if chosen is None:
        return None
    return {label: qubits for (label, _, _), qubits in zip(slots, chosen)}


def test_walk_returns_the_backtracking_search_assignment(family):
    checked = 0
    for instance in family:
        full = update_sizes(instance.graph.vertex_count, instance.sizes)
        outcome = allocate(instance.graph, instance.sizes, instance.rates)
        for allocation in outcome.allocations:
            result = complete_allocation(allocation, instance.graph, full)
            expected = reference_completion(allocation, instance.graph, full)
            assert (result and result[1]) == expected
            checked += expected is not None
    assert checked > 100


# --- the decider against the oracle's independent enumeration ---------------


@st.composite
def partial_instances(draw):
    """A connected platform of at most 8 qubits, requests, and a partial allocation."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}  # a spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    graph = ConnectivityGraph(n, frozenset(edges))

    request = st.tuples(st.booleans(), st.integers(1, n))
    requested = draw(st.lists(request, min_size=1, max_size=4))
    trusted = tuple(s for is_trusted, s in requested if is_trusted)
    untrusted = tuple(s for is_trusted, s in requested if not is_trusted)
    sizes = SizeRequests(trusted=trusted, untrusted=untrusted)
    if sizes.total() > n:
        sizes = SizeRequests(untrusted=(draw(st.integers(1, n)),))

    free = set(range(n))
    components = []
    for _ in range(draw(st.integers(0, 3))):
        if not free:
            break
        grown = {draw(st.sampled_from(sorted(free)))}
        for _ in range(draw(st.integers(0, 3))):
            frontier = sorted({m for q in grown for m in graph.neighbors(q)} & free - grown)
            if not frontier:
                break
            grown.add(draw(st.sampled_from(frontier)))
        free -= grown
        trust = draw(st.sampled_from((Trust.TRUSTED, Trust.UNTRUSTED)))
        components.append(UserComponent(trust, frozenset(grown)))
    partial = Allocation(unallocated=frozenset(free), components=tuple(components))
    return graph, sizes, partial


def extends(full, partial):
    """Each partial component inside one full component of its trust, at most one per full one."""
    hosts = []
    for comp in partial.components:
        host = [c for c in full.components if comp.qubits <= c.qubits and c.trust is comp.trust]
        if not host:
            return False
        hosts.append(host[0])
    return len(set(hosts)) == len(hosts)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(partial_instances())
def test_decider_agrees_with_exhaustive_enumeration(case):
    graph, sizes, partial = case
    full = update_sizes(graph.vertex_count, sizes)
    expected = any(extends(alloc, partial) for alloc in enumerate_complete(graph, sizes))
    assert can_complete(partial, graph, full) is expected

    result = complete_allocation(partial, graph, full)
    assert (result is not None) is expected
    assert (result and result[1]) == reference_completion(partial, graph, full)
    if result is None:
        return
    completed, assignment = result
    assert validate_allocation(completed, graph) == []
    for label, trust, size in request_slots(full):
        assert len(assignment[label]) == size
        assert UserComponent(trust, assignment[label]) in completed.components
    for comp in partial.components:
        assert any(
            comp.qubits <= assignment[label] and trust is comp.trust
            for label, trust, _ in request_slots(full)
        )

"""Exact-size completion search."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
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
    sort_rates,
    synth_rates,
    validate_allocation,
)
import qaiccc.allocator as allocator_module
import qaiccc.completion as completion_module
from qaiccc.allocator import update_sizes
from qaiccc.completion import (
    can_complete,
    complete_allocation,
    completion_index,
    connected_blocks,
    connected_supersets,
    decide,
    open_requests,
    request_slots,
)
from qaiccc.ingest import MAX_QUBITS
from qaiccc.model import mask_qubits, qubit_mask, state_of

from conftest import HEAVY_HEX_27, build, built, instance_family, t, u


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
    subsets = list(connected_blocks(0b11111, 3, demo_graph.adjacency_masks))
    assert len(subsets) == len(set(subsets))
    # Brute-force oracle over all 3-subsets.
    expected = {
        qubit_mask(c)
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
        Allocation(unallocated=frozenset(range(5)), components=(u(-1),)),  # negative qubit
        Allocation(unallocated=frozenset({0, 1, 2, -3}), components=(u(3, 4),)),  # negative
    ],
)
def test_malformed_partials_never_complete(demo_graph, allocation):
    sizes = SizeRequests(untrusted=(2, 3))
    assert validate_allocation(allocation, demo_graph)
    assert not can_complete(allocation, demo_graph, sizes)
    assert complete_allocation(allocation, demo_graph, sizes) is None


@st.composite
def stray_partials(draw):
    """A connected platform of at most 6 qubits, full requests and a partial over ``-2..n+1``.

    Every qubit of ``-2..n+1`` is left out, left unallocated or given to
    one of up to three components.  Half the draws keep to the platform
    qubits and cover each once; the rest may also leave platform qubits
    out, name unknown or negative ones, and add a qubit to a second group.
    """
    n = draw(st.integers(1, 6))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}  # a spanning tree
    graph = ConnectivityGraph(n, frozenset(edges))
    requested = draw(st.lists(st.tuples(st.booleans(), st.integers(1, n)), max_size=3))
    trusted = tuple(s for is_trusted, s in requested if is_trusted)
    untrusted = tuple(s for is_trusted, s in requested if not is_trusted)
    sizes = SizeRequests(trusted=trusted, untrusted=untrusted)
    if sizes.total() > n:
        sizes = SizeRequests()

    span = range(-2, n + 2)
    owners = draw(st.lists(st.integers(-1, 3), min_size=len(span), max_size=len(span)))
    well_formed = draw(st.booleans())
    if well_formed:
        owners = [max(o, 0) if 0 <= q < n else -1 for q, o in zip(span, owners)]
    groups: dict[int, set[int]] = {}
    for q, owner in zip(span, owners):
        if owner >= 0:
            groups.setdefault(owner, set()).add(q)
    if not well_formed and groups:
        extra = draw(st.lists(st.tuples(st.sampled_from(span), st.sampled_from(sorted(groups)))))
        for q, owner in extra:
            groups[owner].add(q)
    components = tuple(
        UserComponent(draw(st.sampled_from(list(Trust))), frozenset(qubits))
        for owner, qubits in sorted(groups.items())
        if owner > 0
    )
    partial = Allocation(unallocated=frozenset(groups.get(0, ())), components=components)
    return graph, update_sizes(n, sizes), partial


LINE4 = ConnectivityGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stray_partials())
@example((LINE4, SizeRequests(untrusted=(4,)), Allocation(frozenset(range(4)), (u(-1),))))
@example((LINE4, SizeRequests(untrusted=(4,)), Allocation(frozenset({0, 1, 2, -3}))))
def test_partials_naming_stray_qubits_never_complete(case):
    graph, sizes, partial = case
    decided = can_complete(partial, graph, sizes)
    result = complete_allocation(partial, graph, sizes)
    assert (result is not None) is decided
    if validate_allocation(partial, graph):
        assert not decided


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
                    qubit_mask(base), target, qubit_mask(available), graph.adjacency_masks
                )
                found = [mask_qubits(m) for m in grown]
                assert len(found) == len(set(found))
                assert set(found) == brute_supersets(nx_graph, base, target, available | base)


def reference_connected_supersets(base, target, available, adjacency):
    """``connected_supersets`` as it was when it took connected bases only."""

    def neighborhood(mask):
        out = 0
        for q in mask_qubits(mask):
            out |= adjacency[q]
        return out

    count = base.bit_count()
    if count > target:
        return
    stack = [(base, neighborhood(base), available & ~base, count)]
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
        stack.append((current, reach, allowed, count))
        stack.append(
            (current | pick, reach | adjacency[pick.bit_length() - 1], allowed, count + 1)
        )


def sample_bases(nx_graph, rng, connected):
    """Up to a dozen bases of 2 to 4 qubits, all connected or all disconnected."""
    n = nx_graph.number_of_nodes()
    bases = set()
    for size in (2, 3, 4):
        for combo in itertools.combinations(range(n), size):
            if nx.is_connected(nx_graph.subgraph(combo)) is connected:
                bases.add(frozenset(combo))
    return rng.sample(sorted(bases, key=sorted), min(12, len(bases)))


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_disconnected_bases_match_brute_force(name):
    # ``connected_supersets`` takes connected bases only; the allocator's
    # ``_grown`` is the one enumerator of disconnected join bases.
    nx_graph, graph = platform_of(NX_GRAPHS[name])
    n = graph.vertex_count
    rng = random.Random(name)
    bases = sample_bases(nx_graph, rng, connected=False)
    assert bases or name == "complete5"
    for base in bases:
        others = frozenset(range(n)) - base
        for available in (others, frozenset(q for q in others if rng.random() < 0.6)):
            for target in range(len(base), n + 1):
                grown = allocator_module._grown(
                    qubit_mask(base), qubit_mask(available | base), target, graph
                )
                found = [mask_qubits(m) for m in grown]
                assert len(found) == len(set(found))
                assert all(len(region) <= target for region in found)
                at_target = {region for region in found if len(region) == target}
                assert at_target == brute_supersets(nx_graph, base, target, available | base)


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_connected_bases_keep_the_enumeration_order(name):
    nx_graph, graph = platform_of(NX_GRAPHS[name])
    n = graph.vertex_count
    rng = random.Random(name)
    bases = [frozenset({q}) for q in range(n)] + sample_bases(nx_graph, rng, connected=True)
    for base in bases:
        others = frozenset(range(n)) - base
        for available in (others, frozenset(q for q in others if rng.random() < 0.6)):
            for target in range(len(base), n + 1):
                args = (qubit_mask(base), target, qubit_mask(available), graph.adjacency_masks)
                assert list(connected_supersets(*args)) == list(
                    reference_connected_supersets(*args)
                )


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_connected_subsets_match_brute_force(name):
    nx_graph, graph = platform_of(NX_GRAPHS[name])
    for size in range(1, graph.vertex_count + 1):
        found = list(connected_blocks(qubit_mask(graph.qubits), size, graph.adjacency_masks))
        assert len(found) == len(set(found))
        expected = {
            qubit_mask(c)
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
        for allocation in built(outcome.allocations):
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


@st.composite
def partial_sequences(draw):
    """A platform, requests, and a sequence of partial allocations on that platform.

    Each partial keeps a random subset of the components of either the
    drawn partial or one complete allocation, so the sequence mixes
    completable and stranded states that share sub-states.
    """
    graph, sizes, partial = draw(partial_instances())
    pool = [partial.components] + [a.components for a in enumerate_complete(graph, sizes)]
    sequence = []
    for _ in range(draw(st.integers(1, 6))):
        kept = tuple(c for c in draw(st.sampled_from(pool)) if draw(st.booleans()))
        used = frozenset().union(*(c.qubits for c in kept))
        sequence.append(Allocation(unallocated=graph.qubits - used, components=kept))
    return graph, sizes, sequence


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(partial_sequences())
def test_one_shared_table_decides_like_a_fresh_table_per_state(case):
    graph, sizes, sequence = case
    requests = open_requests(request_slots(update_sizes(graph.vertex_count, sizes)))
    complete = enumerate_complete(graph, sizes)
    shared: dict = {}
    for partial in sequence:
        state = state_of(partial)
        verdict = decide(*state, graph, requests, shared)
        assert verdict is decide(*state, graph, requests, {})
        assert verdict is any(extends(alloc, partial) for alloc in complete)


# --- the index of the complete set against the decider ----------------------


def requests_of(graph, sizes):
    return open_requests(request_slots(update_sizes(graph.vertex_count, sizes)))


_STAR4 = ConnectivityGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(partial_sequences())
# A star of 4 has no two connected pairs: an index of no structures refuses even the empty state.
@example((_STAR4, SizeRequests(untrusted=(2, 2)), [build(4)]))
def test_the_index_decides_like_the_decider(case):
    graph, sizes, sequence = case
    requests = requests_of(graph, sizes)
    index = completion_index(requests, graph)
    for partial in sequence:
        free, pending = state_of(partial)
        assert index.admits(pending) is decide(free, pending, graph, requests, {})


_PATH3 = ConnectivityGraph(3, frozenset({(0, 1), (1, 2)}))
_PATH4 = ConnectivityGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))


@pytest.mark.parametrize(
    "graph, sizes, partial, expected",
    [
        # The only blocks holding {1} are trusted: {0, 1, 2} and {1, 2, 3}.
        (_PATH4, SizeRequests(trusted=(3,), untrusted=(1,)), build(4, u(1)), False),
        (_PATH4, SizeRequests(trusted=(3,), untrusted=(1,)), build(4, t(1)), True),
        # Both users fit the one block, but not one each.
        (_PATH3, SizeRequests(untrusted=(3,)), build(3, u(0), u(2)), False),
        (_PATH3, SizeRequests(untrusted=(3,)), build(3, u(0, 1)), True),
        (_PATH4, SizeRequests(untrusted=(2, 2)), build(4, u(0), u(3)), True),
        (_PATH4, SizeRequests(untrusted=(2, 2)), build(4, u(0), u(1)), False),
        # {0} and {1} fit only apart beside {3} in no structure: {0, 1, 2}
        # holds both, and {1, 2, 3} holds {3} too.
        (_PATH4, SizeRequests(untrusted=(3, 1)), build(4, u(0), u(1), u(3)), False),
    ],
)
def test_the_index_reads_trust_and_keeps_users_apart(graph, sizes, partial, expected):
    requests = requests_of(graph, sizes)
    free, pending = state_of(partial)
    assert decide(free, pending, graph, requests, {}) is expected
    assert completion_index(requests, graph).admits(pending) is expected


def test_the_index_counts_the_oracles_complete_set():
    for instance in instance_family(60):
        index = completion_index(requests_of(instance.graph, instance.sizes), instance.graph)
        assert index.count == len(enumerate_complete(instance.graph, instance.sizes))


def test_the_index_gives_up_past_its_budget(monkeypatch):
    graph = ConnectivityGraph(6, frozenset((q, q + 1) for q in range(5)))
    requests = requests_of(graph, SizeRequests(untrusted=(2, 2)))
    assert completion_index(requests, graph).count == 1
    monkeypatch.setattr(completion_module, "INDEX_BUDGET", 1)
    assert completion_index(requests, graph) is None


_COMPLETE7 = ConnectivityGraph(7, frozenset(itertools.combinations(range(7), 2)))
_STAR8 = ConnectivityGraph(8, frozenset((0, q) for q in range(1, 8)))


@pytest.mark.parametrize(
    "graph, sizes",
    [
        (_COMPLETE7, SizeRequests(trusted=(2,), untrusted=(2,))),
        (_STAR8, SizeRequests(trusted=(1,), untrusted=(1, 1))),
    ],
)
def test_the_index_decides_like_the_decider_where_many_blocks_meet(graph, sizes):
    """Every qubit of a complete graph, and a star's centre, lies in most blocks."""
    requests = requests_of(graph, sizes)
    index = completion_index(requests, graph)
    assert index is not None
    platform = qubit_mask(range(graph.vertex_count))
    users = [
        UserComponent(trust, mask_qubits(block))
        for size in range(1, graph.vertex_count + 1)
        for block in connected_blocks(platform, size, graph.adjacency_masks)
        for trust in Trust
    ]
    partials = [build(graph.vertex_count, user) for user in users] + [
        build(graph.vertex_count, first, second)
        for first, second in itertools.combinations(users, 2)
        if not first.qubits & second.qubits
    ]
    verdicts = set()
    for partial in partials:
        free, pending = state_of(partial)
        verdict = decide(free, pending, graph, requests, {})
        assert index.admits(pending) is verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


def counting_draws(monkeypatch):
    """Wrap ``connected_supersets`` in the completion module; the list's length is the blocks drawn."""
    drawn = []
    supersets = completion_module.connected_supersets

    def counting(*args):
        for block in supersets(*args):
            drawn.append(block)
            yield block

    monkeypatch.setattr(completion_module, "connected_supersets", counting)
    return drawn


def test_the_budget_bounds_the_index_at_platform_scale(monkeypatch):
    """Each structure of a 64x64 grid with (5,5,5) files an idle block of 4,081 qubits.

    Filing charges a block its size, so the third structure's idle block
    passes the budget after a few candidates; charging only the
    candidates would draw ``INDEX_BUDGET + 1`` of them.
    """
    side = 64
    assert side * side == MAX_QUBITS
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    graph = ConnectivityGraph(MAX_QUBITS, frozenset(edges))
    drawn = counting_draws(monkeypatch)
    assert completion_index(requests_of(graph, SizeRequests(untrusted=(5, 5, 5))), graph) is None
    assert 0 < len(drawn) <= 40


def test_the_budget_bounds_the_filed_blocks():
    """A line with untrusted (5,) has two structures, each with one idle block of all but 5 qubits."""
    short = ConnectivityGraph(100, frozenset((q, q + 1) for q in range(99)))
    index = completion_index(requests_of(short, SizeRequests(untrusted=(5,))), short)
    assert index.count == 2
    filed = sum(len(listed) for by_trust in index.blocks for listed in by_trust.values())
    assert filed == 200 <= completion_module.INDEX_BUDGET


def test_the_budget_refuses_a_ring_of_huge_idle_blocks(monkeypatch):
    """A 4,096-qubit ring with (5,): every structure's idle arc of 4,091 qubits is a new block."""

    def unfilled(*args):
        raise AssertionError("the table was filled past the budget")

    monkeypatch.setattr(completion_module, "CompletionIndex", unfilled)
    drawn = counting_draws(monkeypatch)
    ring = ConnectivityGraph(
        MAX_QUBITS, frozenset((q, (q + 1) % MAX_QUBITS) for q in range(MAX_QUBITS))
    )
    assert completion_index(requests_of(ring, SizeRequests(untrusted=(5,))), ring) is None
    assert 0 < len(drawn) <= 40


@pytest.mark.parametrize("untrusted, count", [((3, 3, 3), 74), ((5, 5, 5), 28), ((4, 4, 4, 4), 33)])
def test_the_heavy_hex_27_index_is_built(untrusted, count):
    graph = HEAVY_HEX_27
    index = completion_index(requests_of(graph, SizeRequests(untrusted=untrusted)), graph)
    assert index.count == count


def test_the_heavy_hex_27_index_decides_every_search_state_like_the_decider(monkeypatch):
    """Every state a one-rate (3,3,3) search builds, against one shared decider table.

    A join of many regions keeps the states its host blocks hold and
    builds no other, so each join's regions are built here one by one and
    decided apart: the join must keep exactly those the decider completes,
    in region order.
    """
    graph, sizes = HEAVY_HEX_27, SizeRequests(untrusted=(3, 3, 3))
    requests, verdicts = requests_of(graph, sizes), {}
    fused = allocator_module._fused
    asked, hosted = [], 0

    def checked(state, owner, base, regions, memo):
        nonlocal hosted
        made = fused(state, owner, base, regions, memo)
        assert memo.index is not None
        free, components = state
        touching = [(t, m) for t, m in components if m & base]
        if len({t for t, _ in touching}) > 1:  # every region would mix classes
            assert made == ()
            return made
        trust = touching[0][0] if touching else owner[0]
        touched = 0
        for _, mask in touching:
            touched |= mask
        kept = [component for component in components if component not in touching]
        expected = []
        for region in regions:
            candidate = state_of(Allocation(
                unallocated=mask_qubits(free & ~region),
                components=tuple(UserComponent(t, mask_qubits(m)) for t, m in kept)
                + (UserComponent(trust, mask_qubits(region | touched)),),
            ))
            verdict = decide(*candidate, graph, requests, verdicts)
            asked.append(verdict)
            if verdict:
                expected.append(candidate)
        assert list(made) == expected
        hosted += len(regions) >= allocator_module._HOSTED_REGIONS
        return made

    monkeypatch.setattr(allocator_module, "_fused", checked)
    allocate(graph, sizes, sort_rates(synth_rates(graph, 7))[:1])
    assert set(asked) == {True, False}
    assert hosted > 100


class TestDeciderKeyCarriesTheOpenRequests:
    """Two growth paths meet in one ``(free, pending)`` with different open requests.

    The platform is the path 0-1-2-3-4 joined at 4 to the star 5-{6,7,8,9},
    with untrusted requests (1, 2, 3, 4) and single-qubit users {0}, {3}
    and {5}.  Growing {0} and {3} into sizes 1 and 4, or into 2 and 3,
    fills the same qubits 0-4 and leaves {6,7,8,9} free with {5} pending;
    the open requests are then (2, 3), which the star cannot take, or
    (1, 4), which it can.  A verdict keyed without the open requests
    carries one path's answer over to the other.
    """

    GRAPH = ConnectivityGraph(
        10, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (5, 8), (5, 9)})
    )
    SIZES = SizeRequests(untrusted=(1, 2, 3, 4))
    REQUESTS = open_requests(request_slots(SIZES))

    def decide(self, allocation, verdicts):
        return decide(*state_of(allocation), self.GRAPH, self.REQUESTS, verdicts)

    def test_the_shared_sub_state_is_decided_per_open_requests(self):
        free, pending = qubit_mask({6, 7, 8, 9}), ((Trust.UNTRUSTED, 1 << 5),)
        for left, expected in (((1, 4), True), ((2, 3), False)):
            remaining = tuple((Trust.UNTRUSTED, size) for size in left)
            assert decide(free, pending, self.GRAPH, remaining, {}) is expected

    def test_a_failure_under_one_path_does_not_refuse_the_other(self):
        # Sizes 1 and 4 are tried first and fail at the star; 2 and 3 complete.
        partial = build(10, u(0), u(3), u(5))
        assert self.decide(partial, {}) is True
        _, assignment = complete_allocation(partial, self.GRAPH, self.SIZES)
        assert {frozenset({0, 1}), frozenset({2, 3, 4})} <= set(assignment.values())

    def test_a_success_under_one_path_does_not_accept_the_other(self):
        verdicts: dict = {}
        assert self.decide(build(10, u(0, 1), u(2, 3, 4), u(5)), verdicts) is True
        # Only sizes 1 and 4 fit here, so the star is left the requests (2, 3).
        assert self.decide(build(10, u(0), u(1, 2, 3, 4), u(5)), verdicts) is False
        assert self.decide(build(10, u(0), u(1, 2, 3, 4), u(5)), {}) is False


@pytest.mark.parametrize("vertex_count, verdict", [(2000, True), (2001, False)])
def test_the_decider_walks_a_thousand_blocks_deep(vertex_count, verdict):
    # A line tiled by 1,000 pairs: one state per block, each with one
    # child, so the search runs 1,000 states deep before it settles.  On
    # 2,001 qubits one qubit is left over, and every state is refused.
    line = ConnectivityGraph(vertex_count, [(q, q + 1) for q in range(vertex_count - 1)])
    requests = ((Trust.UNTRUSTED, 2),) * 1000
    verdicts: dict = {}
    assert decide((1 << vertex_count) - 1, (), line, requests, verdicts) is verdict
    assert len(verdicts) >= 1000 and set(verdicts.values()) == {verdict}

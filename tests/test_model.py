"""Domain types: canonical keys, structural validation, rate ordering."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import re
import sys

import networkx as nx
import pytest

from qaiccc import (
    Allocation,
    ConnectivityGraph,
    CrosstalkRate,
    SearchConfig,
    SizeRequests,
    Trust,
    UserComponent,
    canonicalize,
    sort_rates,
    validate_allocation,
)
from qaiccc.model import mask_neighborhood, mask_qubits, mask_region, qubit_mask

from conftest import build, built, u


class TestCanonicalize:
    def test_empty_allocation_key(self):
        key = canonicalize(build(5))
        assert key == ((0, 1, 2, 3, 4), ())

    def test_attributes_do_not_change_key(self):
        plain = build(5, u(2, 3))
        attributed = build(5, u(2, 3), score=0.5, penalty=0.25)
        assert canonicalize(plain) == canonicalize(attributed)

    def test_different_components_different_keys(self):
        assert canonicalize(build(5, u(2, 3))) != canonicalize(build(5, u(2, 4)))

    def test_component_order_is_irrelevant(self):
        a = Allocation(unallocated=frozenset({4}), components=(u(0, 1), u(2, 3)))
        b = Allocation(unallocated=frozenset({4}), components=(u(2, 3), u(0, 1)))
        assert canonicalize(a) == canonicalize(b)

    def test_trust_tag_enters_key(self):
        a = build(5, u(2, 3))
        b = build(5, UserComponent(Trust.TRUSTED, frozenset({2, 3})))
        assert canonicalize(a) != canonicalize(b)

    def test_attribute_perturbation_never_changes_key(self):
        # Congruence probed over randomized structures and attributes.
        rng = random.Random(7)
        rate = CrosstalkRate(0.001, frozenset({0}), frozenset({1}))
        for _ in range(50):
            qubits = list(range(6))
            rng.shuffle(qubits)
            comp = u(*qubits[:3])
            base = Allocation(unallocated=frozenset(qubits[3:]), components=(comp,))
            perturbed = Allocation(
                unallocated=base.unallocated,
                components=base.components,
                score=rng.random(),
                penalty=rng.random(),
                incidental=(rate,) if rng.random() < 0.5 else (),
                last_rate=rate if rng.random() < 0.5 else None,
            )
            assert canonicalize(base) == canonicalize(perturbed)


class TestValidateAllocation:
    def test_connected_component_ok(self, demo_graph):
        # 0-2 and 2-3 are platform edges, so {0,2,3} is connected.
        allocation = build(5, u(0, 2, 3))
        assert validate_allocation(allocation, demo_graph) == []

    def test_disconnected_component_reported(self, demo_graph):
        # 1 and 4 are not adjacent and no third qubit joins them.
        allocation = build(5, u(1, 4))
        problems = validate_allocation(allocation, demo_graph)
        assert any("not connected" in p for p in problems)

    def test_overlapping_components_reported(self, demo_graph):
        allocation = Allocation(
            unallocated=frozenset({2, 3, 4}),
            components=(u(0), u(0, 1)),
        )
        problems = validate_allocation(allocation, demo_graph)
        assert any("overlaps" in p for p in problems)

    def test_missing_coverage_reported(self, demo_graph):
        allocation = Allocation(unallocated=frozenset({0, 1}), components=(u(2, 3),))
        problems = validate_allocation(allocation, demo_graph)
        assert any("neither allocated nor unallocated" in p for p in problems)

    def test_unknown_qubits_reported(self, demo_graph):
        allocation = Allocation(unallocated=frozenset({0, 1, 2, 3, 4, 9}), components=())
        problems = validate_allocation(allocation, demo_graph)
        assert any("unknown qubits [9]" in p for p in problems)

    def test_component_naming_an_unknown_qubit_is_reported(self):
        line = ConnectivityGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        allocation = Allocation(unallocated=frozenset({0, 1, 2, 3}), components=(u(99),))
        problems = validate_allocation(allocation, line)
        assert any("component [99] uses unknown qubits [99]" in p for p in problems)
        assert any("component [99] is not connected" in p for p in problems)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            ConnectivityGraph(3, frozenset({(0, 3)}))

    @pytest.mark.parametrize("vertex_count, edges", [
        (3.0, frozenset()),
        (True, frozenset()),
        (3, frozenset({(0.5, 1)})),
        (3, frozenset({(0, True)})),
    ])
    def test_rejects_a_count_or_endpoint_that_is_not_an_int(self, vertex_count, edges):
        with pytest.raises(TypeError, match="int"):
            ConnectivityGraph(vertex_count, edges)

    def test_edge_normalization_deduplicates(self):
        g = ConnectivityGraph(3, frozenset({(1, 0), (0, 1)}))
        assert g.edges == frozenset({(0, 1)})

    def test_is_connected(self, demo_graph):
        assert demo_graph.is_connected({0, 2, 3})
        assert not demo_graph.is_connected({1, 4})
        assert demo_graph.is_connected(set())
        assert demo_graph.is_connected({3})

    def test_every_subset_agrees_with_networkx(self, demo_graph):
        nx_graph = nx.Graph(sorted(demo_graph.edges))
        for size in range(1, 6):
            for group in itertools.combinations(range(5), size):
                expected = nx.is_connected(nx_graph.subgraph(group))
                assert demo_graph.is_connected(group) == expected, group

    def test_neighbors_agree_with_networkx(self, demo_graph):
        nx_graph = nx.Graph(sorted(demo_graph.edges))
        for qubit in range(5):
            assert demo_graph.neighbors(qubit) == tuple(sorted(nx_graph[qubit]))
        for qubit in (-1, 5):
            with pytest.raises(IndexError):
                demo_graph.neighbors(qubit)

    @pytest.mark.parametrize(
        "qubits", [{99}, {5}, {0, 5}, {3, 4, 7}, {-1}, {-1, 0}, {0, 1, -3}, {0, 1, 2, 3, 4, 5}]
    )
    def test_unknown_or_negative_qubits_are_not_connected(self, demo_graph, qubits):
        assert not demo_graph.is_connected(qubits)


class TestMasks:
    def test_mask_round_trip(self):
        assert qubit_mask(()) == 0
        assert qubit_mask({0, 3, 4}) == 0b11001
        assert mask_qubits(0b11001) == frozenset({0, 3, 4})
        assert mask_qubits(0) == frozenset()
        for qubits in ({7}, {0, 1, 2}, set(range(0, 64, 5))):
            assert mask_qubits(qubit_mask(qubits)) == frozenset(qubits)

    def test_neighborhood_and_region(self, demo_graph):
        adjacency = demo_graph.adjacency_masks
        assert mask_neighborhood(qubit_mask({0}), adjacency) == qubit_mask({1, 2})
        assert mask_neighborhood(qubit_mask({0, 3}), adjacency) == qubit_mask({1, 2, 4})
        within = qubit_mask({0, 1, 3, 4})
        assert mask_region(qubit_mask({0}), within, adjacency) == qubit_mask({0, 1})
        assert mask_region(qubit_mask({4}), within, adjacency) == qubit_mask({3, 4})
        assert mask_region(qubit_mask({0}), qubit_mask(range(5)), adjacency) == qubit_mask(range(5))


class TestRates:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CrosstalkRate(0.1, frozenset({0, 1, 2}), frozenset({3}))
        with pytest.raises(ValueError):
            CrosstalkRate(0.1, frozenset({0}), frozenset({0}))
        with pytest.raises(ValueError):
            CrosstalkRate(-0.1, frozenset({0}), frozenset({1}))

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_scores(self, score):
        with pytest.raises(ValueError, match="finite"):
            CrosstalkRate(score, frozenset({0}), frozenset({1}))

    def test_an_int_past_every_float_is_not_finite(self):
        # It is refused with the same ValueError, not an OverflowError; the
        # largest float itself is a valid score.
        with pytest.raises(ValueError, match="rate score must be a finite non-negative number"):
            CrosstalkRate(10**400, frozenset({0}), frozenset({1}))
        top = int(sys.float_info.max)
        assert CrosstalkRate(top, frozenset({0}), frozenset({1})).score == top

    @pytest.mark.parametrize("impacting, impacted, named", [
        ({True, 2}, {0}, "True"),
        ({1}, {0.5}, "0.5"),
    ])
    def test_rejects_a_qubit_that_is_not_an_int(self, impacting, impacted, named):
        with pytest.raises(TypeError, match=f"rate qubit must be an int, not {named}"):
            CrosstalkRate(0.1, frozenset(impacting), frozenset(impacted))

    def test_rejects_a_bool_score(self):
        with pytest.raises(TypeError, match="rate score must be a number, not True"):
            CrosstalkRate(True, frozenset({0}), frozenset({1}))

    def test_accepts_an_int_score(self):
        assert CrosstalkRate(2, frozenset({0}), frozenset({1})).score == 2

    def test_sort_rates_descending_with_tiebreak(self):
        a = CrosstalkRate(0.002, frozenset({1}), frozenset({0}))
        b = CrosstalkRate(0.002, frozenset({0}), frozenset({1}))
        c = CrosstalkRate(0.005, frozenset({2}), frozenset({3}))
        ordered = sort_rates([a, b, c])
        assert ordered[0] == c
        # Equal scores tie-break on sorted impacting, then impacted.
        assert ordered[1] == b and ordered[2] == a


class TestSizeRequests:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            SizeRequests(untrusted=(0,))
        with pytest.raises(ValueError):
            SizeRequests(trusted=(-2,))

    @pytest.mark.parametrize("sizes, name, value", [
        (dict(untrusted=(True, 3)), "request size", True),
        (dict(untrusted=(2.5, 2)), "request size", 2.5),
        (dict(trusted=(2.0,)), "request size", 2.0),
        (dict(untrusted=(2,), idle_size=True), "idle size", True),
        (dict(untrusted=(2,), idle_size=3.0), "idle size", 3.0),
    ])
    def test_rejects_a_size_that_is_not_an_int(self, sizes, name, value):
        with pytest.raises(TypeError, match=re.escape(f"{name} must be an int, not {value!r}")):
            SizeRequests(**sizes)

    def test_idle_counts_as_untrusted(self):
        sizes = SizeRequests(trusted=(2,), untrusted=(1,), idle_size=3)
        assert sizes.for_trust(Trust.UNTRUSTED) == (1, 3)
        assert sizes.for_trust(Trust.TRUSTED) == (2,)
        assert sizes.total() == 6


def test_penalty_equals_incidental_sum_on_search_output(demo_graph, demo_sizes, demo_rates):
    from qaiccc import allocate

    outcome = allocate(demo_graph, demo_sizes, demo_rates)
    for allocation in built(outcome.allocations):
        assert abs(allocation.penalty - sum(r.score for r in allocation.incidental)) <= 1e-12


# ---------------------------------------------------------------------------
# the value types' contract, as the frozen dataclasses they replaced kept it

_RATE = CrosstalkRate(0.5, frozenset({1, 2}), frozenset({0}))
_EDGES = frozenset({(0, 1), (1, 2)})

#: Per value type: a factory of equal instances, one unequal instance, and
#: the repr of the factory's instance in the dataclass format.
VALUES = {
    "ConnectivityGraph": (
        lambda: ConnectivityGraph(3, [(1, 0), (1, 2), (0, 1)]),
        ConnectivityGraph(3, [(0, 1)]),
        f"ConnectivityGraph(vertex_count=3, edges={_EDGES!r})",
    ),
    "CrosstalkRate": (
        lambda: CrosstalkRate(0.5, [2, 1], {0}),
        CrosstalkRate(0.25, [2, 1], {0}),
        f"CrosstalkRate(score=0.5, impacting={frozenset({1, 2})!r}, impacted=frozenset({{0}}))",
    ),
    "UserComponent": (
        lambda: UserComponent(Trust.TRUSTED, [3, 4]),
        UserComponent(Trust.UNTRUSTED, [3, 4]),
        "UserComponent(trust=<Trust.TRUSTED: 'trusted'>, qubits=frozenset({3, 4}))",
    ),
    "SizeRequests": (
        lambda: SizeRequests([2], [3, 1]),
        SizeRequests([2], [1, 3]),
        "SizeRequests(trusted=(2,), untrusted=(3, 1), idle_size=None)",
    ),
    "Allocation": (
        lambda: Allocation(
            [0], [UserComponent(Trust.UNTRUSTED, [2]), UserComponent(Trust.TRUSTED, [1])],
            0.5, 0.25, [_RATE], _RATE,
        ),
        Allocation([0], [UserComponent(Trust.TRUSTED, [1, 2])], 0.5, 0.25, [_RATE], _RATE),
        "Allocation(unallocated=frozenset({0}), components=("
        "UserComponent(trust=<Trust.TRUSTED: 'trusted'>, qubits=frozenset({1})), "
        "UserComponent(trust=<Trust.UNTRUSTED: 'untrusted'>, qubits=frozenset({2}))), "
        f"score=0.5, penalty=0.25, incidental=({_RATE!r},), last_rate={_RATE!r})",
    ),
    "SearchConfig": (
        lambda: SearchConfig(None, 8),
        SearchConfig(3, 8),
        "SearchConfig(max_population=None, max_paths_per_connect=8)",
    ),
}

FIELDS = {
    "ConnectivityGraph": ("vertex_count", "edges"),
    "CrosstalkRate": ("score", "impacting", "impacted"),
    "UserComponent": ("trust", "qubits"),
    "SizeRequests": ("trusted", "untrusted", "idle_size"),
    "Allocation": ("unallocated", "components", "score", "penalty", "incidental", "last_rate"),
    "SearchConfig": ("max_population", "max_paths_per_connect"),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueContract:
    def test_equal_fields_give_equal_objects_and_hashes(self, name):
        make, other, _ = VALUES[name]
        first, second = make(), make()
        assert first is not second
        assert first == second and not first != second and hash(first) == hash(second)
        assert first != other and not first == other
        assert len({first, second, other}) == 2

    def test_instances_of_different_classes_are_unequal(self, name):
        make, _, _ = VALUES[name]
        value = make()
        subclass = type("Sub", (type(value),), {})
        fields = [getattr(value, field) for field in FIELDS[name]]
        assert subclass(*fields) != value and value != subclass(*fields)
        assert value != tuple(fields) and value != fields
        assert all(value != other() for key, (other, _, _) in VALUES.items() if key != name)

    def test_assignment_and_deletion_raise_attribute_error(self, name):
        make, other, _ = VALUES[name]
        value = make()
        for field in (*FIELDS[name], "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(value, field, getattr(other, field, 1))
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(value, field)
        assert value == make()

    def test_repr_keeps_the_dataclass_format(self, name):
        make, _, expected = VALUES[name]
        assert repr(make()) == expected

    def test_a_copy_or_a_pickle_is_an_equal_value(self, name):
        make, _, _ = VALUES[name]
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)
            assert [getattr(twin, f) for f in FIELDS[name]] == [getattr(value, f) for f in FIELDS[name]]


def test_construction_normalises_every_field():
    graph = ConnectivityGraph(3, [(2, 1), (1, 2), (0, 1)])
    assert graph.edges == frozenset({(0, 1), (1, 2)}) and type(graph.edges) is frozenset
    assert graph.adjacency_masks == (0b010, 0b101, 0b010)
    rate = CrosstalkRate(1, [3, 4], (2,))
    assert (rate.score, rate.impacting, rate.impacted) == (1, frozenset({3, 4}), frozenset({2}))
    assert type(rate.impacting) is frozenset and type(rate.impacted) is frozenset
    component = UserComponent(Trust.UNTRUSTED, [4, 3, 4])
    assert component.qubits == frozenset({3, 4}) and type(component.qubits) is frozenset
    sizes = SizeRequests([2], iter([3, 1]), 4)
    assert (sizes.trusted, sizes.untrusted, sizes.idle_size) == ((2,), (3, 1), 4)
    assert SizeRequests() == SizeRequests((), (), None)
    trusted, idle = UserComponent(Trust.TRUSTED, {3}), UserComponent(Trust.UNTRUSTED, {0, 1})
    allocation = Allocation({2}, [idle, trusted], incidental=[rate])
    assert allocation.components == (trusted, idle)
    assert type(allocation.unallocated) is frozenset and allocation.incidental == (rate,)
    assert (allocation.score, allocation.penalty, allocation.last_rate) == (0.0, 0.0, None)
    assert SearchConfig() == SearchConfig(None, 64)


@pytest.mark.parametrize("build, kind, message", [
    (lambda: ConnectivityGraph(True, ()), TypeError, "vertex_count must be an int, not True"),
    (lambda: ConnectivityGraph(0, ()), ValueError, "vertex_count must be positive"),
    (lambda: ConnectivityGraph(3, [(0, 1.0)]), TypeError,
     "edge (0, 1.0) has an endpoint that is not an int"),
    (lambda: ConnectivityGraph(3, [(1, 1)]), ValueError, "self loop on qubit 1"),
    (lambda: ConnectivityGraph(3, [(0, 3)]), ValueError, "edge (0, 3) has an endpoint outside 0..2"),
    (lambda: CrosstalkRate(0.1, {True}, {0}), TypeError, "rate qubit must be an int, not True"),
    (lambda: CrosstalkRate(True, {1}, {0}), TypeError, "rate score must be a number, not True"),
    (lambda: CrosstalkRate("1", {1}, {0}), TypeError, "rate score must be a number, not '1'"),
    (lambda: CrosstalkRate(-1, {1}, {0}), ValueError,
     "rate score must be a finite non-negative number"),
    (lambda: CrosstalkRate(0.1, {1}, {0, 2}), ValueError, "unsupported crosstalk shape (1, 2)"),
    (lambda: CrosstalkRate(0.1, {1}, {1}), ValueError, "impacting and impacted sets overlap"),
    (lambda: UserComponent(Trust.TRUSTED, ()), ValueError, "a user component cannot be empty"),
    (lambda: SizeRequests([2.0]), TypeError, "request size must be an int, not 2.0"),
    (lambda: SizeRequests((), [0]), ValueError, "request sizes must be positive"),
    (lambda: SizeRequests((), [1], True), TypeError, "idle size must be an int, not True"),
    (lambda: SizeRequests((), [1], 0), ValueError, "idle size must be positive"),
    (lambda: SearchConfig(None, 0), ValueError, "max_paths_per_connect must be at least 1"),
    (lambda: SearchConfig(0), ValueError, "max_population must be at least 1 when set"),
])
def test_every_validation_error_is_unchanged(build, kind, message):
    with pytest.raises(kind) as raised:
        build()
    assert type(raised.value) is kind and str(raised.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"max_paths_per_connect": 2.5}, "max_paths_per_connect must be an int, not 2.5"),
    ({"max_paths_per_connect": True}, "max_paths_per_connect must be an int, not True"),
    ({"max_paths_per_connect": None}, "max_paths_per_connect must be an int, not None"),
    ({"max_population": 1.5}, "max_population must be an int, not 1.5"),
    ({"max_population": True}, "max_population must be an int, not True"),
    ({"max_population": "3"}, "max_population must be an int, not '3'"),
])
def test_search_config_refuses_a_knob_that_is_not_an_int(fields, message):
    # A float cap once reached ``itertools.islice`` inside the search, and
    # ``True`` ran as 1.
    with pytest.raises(TypeError) as raised:
        SearchConfig(**fields)
    assert str(raised.value) == message

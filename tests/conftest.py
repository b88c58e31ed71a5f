"""Shared fixtures: the 5-qubit demo platform and a seeded instance family."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from qaiccc import (
    Allocation,
    ConnectivityGraph,
    CrosstalkRate,
    SizeRequests,
    enumerate_complete,
    synth_rates,
)
from qaiccc.model import allocation_of

# The 5-qubit platform used throughout: a triangle 0-1-2 joined to a
# triangle 2-3-4 at qubit 2.
DEMO_EDGES = frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)})

# Heavy-hex 27, the IBM Falcon layout.
HEAVY_HEX_27 = ConnectivityGraph(27, frozenset(
    tuple(map(int, edge.split("-")))
    for edge in (
        "0-1 1-2 1-4 2-3 3-5 4-7 5-8 6-7 7-10 8-9 8-11 10-12 11-14 12-13 12-15 "
        "13-14 14-16 15-18 16-19 17-18 18-21 19-20 19-22 21-23 22-25 23-24 24-25 25-26"
    ).split()
))


def built(members) -> list[Allocation]:
    """Each ``(state, record)`` member of an outcome or ranking as the allocation it stands for."""
    return [allocation_of(state, *record) for state, record in members]


@pytest.fixture
def demo_graph() -> ConnectivityGraph:
    return ConnectivityGraph(5, DEMO_EDGES)


@pytest.fixture
def demo_rates() -> list[CrosstalkRate]:
    """Three published composite rates for the demo platform, strongest first."""
    return [
        CrosstalkRate(0.0027, frozenset({3, 4}), frozenset({2})),
        CrosstalkRate(0.0017, frozenset({1, 2}), frozenset({0})),
        CrosstalkRate(0.0013, frozenset({2, 4}), frozenset({0})),
    ]


@pytest.fixture
def demo_sizes() -> SizeRequests:
    return SizeRequests(untrusted=(2, 3))


@dataclass(frozen=True)
class Instance:
    seed: int
    graph: ConnectivityGraph
    sizes: SizeRequests
    rates: tuple[CrosstalkRate, ...]


def _random_connected_graph(rng: random.Random) -> ConnectivityGraph:
    n = rng.randint(5, 7)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return ConnectivityGraph(n, frozenset(edges))


def _random_requests(rng: random.Random, vertex_count: int) -> SizeRequests:
    # Sums strictly below the platform size so the idle user always appears.
    budget = rng.randint(2, vertex_count - 1)
    trusted: list[int] = []
    untrusted: list[int] = []
    while budget:
        size = rng.randint(1, budget)
        (trusted if rng.random() < 0.3 else untrusted).append(size)
        budget -= size
    if not untrusted and not trusted:
        untrusted.append(1)
    return SizeRequests(trusted=tuple(trusted), untrusted=tuple(untrusted))


def make_instance(seed: int) -> Instance:
    rng = random.Random(seed)
    graph = _random_connected_graph(rng)
    sizes = _random_requests(rng, graph.vertex_count)
    full = synth_rates(graph, seed)
    rates = tuple(sorted(full, key=lambda r: -r.score)[:12])
    return Instance(seed=seed, graph=graph, sizes=sizes, rates=rates)


def instance_family(count: int = 20, start_seed: int = 1000) -> list[Instance]:
    """First ``count`` seeded instances on which a complete allocation exists.

    Instances whose platform cannot be partitioned into the requested
    connected sizes at all are skipped (the pipeline correctly errors on
    those; the coverage properties presuppose a selectable instance).
    """
    out: list[Instance] = []
    seed = start_seed
    while len(out) < count:
        candidate = make_instance(seed)
        seed += 1
        if enumerate_complete(candidate.graph, candidate.sizes):
            out.append(candidate)
    return out


_FAMILY_CACHE: list[Instance] | None = None


@pytest.fixture(scope="session")
def family() -> list[Instance]:
    global _FAMILY_CACHE
    if _FAMILY_CACHE is None:
        _FAMILY_CACHE = instance_family()
    return _FAMILY_CACHE

"""Instance generation for the benchmark workloads.

Everything here is stdlib only and independent of the package under
test, so a change to the program cannot silently change the benchmark's
inputs.  The rate generator reproduces ``qaiccc.ingest.synth_rates``
draw for draw (a test checks this), and the top-k cut is taken here by
score: ``qaiccc synth --max-rates`` truncates in shape order instead.

A workload is a list of instances; each instance is three JSON files
(platform, requests, rates) plus the CLI commands run on them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

_RATE_SHAPES = ((1, 1), (2, 1), (2, 2))
_SCORE_RANGE = (1e-4, 1e-2)
RATES_SEED = 7

GRID16_EDGES = tuple((q, q + 1) for q in range(16) if q % 4 < 3) + tuple(
    (q, q + 4) for q in range(12)
)

# IBM Falcon heavy-hex restricted to qubits 0-15: one heavy-hex ring plus tails.
HEAVYHEX16_EDGES = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
)

DESK8_FAMILY_SEED = 2  # a family that includes instances with no complete allocation
DESK8_INSTANCES = 40
DESK8_QUBITS = 8
DESK8_TOP_K = 12
DESK8_TRUSTED_SHARE = 0.3


@dataclass(frozen=True)
class Rate:
    score: float
    impacting: tuple[int, ...]
    impacted: tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """One platform/requests/rates triple; ``oracle`` adds the oracle command."""

    name: str
    qubits: int
    edges: tuple[tuple[int, int], ...]
    trusted: tuple[int, ...]
    untrusted: tuple[int, ...]
    rates: tuple[Rate, ...]
    oracle: bool = False


def _adjacency(qubits: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {q: set() for q in range(qubits)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _connected(group, adj) -> bool:
    group = set(group)
    start = min(group)
    seen = {start}
    stack = [start]
    while stack:
        for n in adj[stack.pop()]:
            if n in group and n not in seen:
                seen.add(n)
                stack.append(n)
    return seen == group


def synth_rates(qubits: int, edges, seed: int) -> list[Rate]:
    """One rate per connected qubit group per shape, drawn as the package does."""
    adj = _adjacency(qubits, edges)
    rng = random.Random(seed)
    rates: list[Rate] = []
    for impacting_count, impacted_count in _RATE_SHAPES:
        size = impacting_count + impacted_count
        for group in itertools.combinations(range(qubits), size):
            if not _connected(group, adj):
                continue
            splits = list(itertools.combinations(group, impacting_count))
            impacting = rng.choice(splits)
            impacted = tuple(q for q in group if q not in impacting)
            rates.append(Rate(rng.uniform(*_SCORE_RANGE), impacting, impacted))
    return rates


def top_k(rates, k: int) -> tuple[Rate, ...]:
    return tuple(sorted(rates, key=lambda r: -r.score)[:k])


def _fixed(name, qubits, edges, untrusted, k) -> list[Instance]:
    rates = top_k(synth_rates(qubits, edges, RATES_SEED), k)
    return [Instance(name, qubits, tuple(edges), (), untrusted, rates)]


def _random_connected_edges(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
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
    return tuple(sorted(edges))


def _random_requests(rng: random.Random, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    budget = rng.randint(2, n - 1)
    trusted: list[int] = []
    untrusted: list[int] = []
    while budget:
        size = rng.randint(1, budget)
        (trusted if rng.random() < DESK8_TRUSTED_SHARE else untrusted).append(size)
        budget -= size
    return tuple(trusted), tuple(untrusted)


def _desk8() -> list[Instance]:
    """Random connected platforms built like the test suite's seeded instance
    family, at the oracle's 8-qubit cap."""
    family = random.Random(DESK8_FAMILY_SEED)
    out = []
    for i in range(DESK8_INSTANCES):
        instance_seed = family.getrandbits(32)
        rng = random.Random(instance_seed)
        edges = _random_connected_edges(rng, DESK8_QUBITS)
        trusted, untrusted = _random_requests(rng, DESK8_QUBITS)
        rates = top_k(synth_rates(DESK8_QUBITS, edges, instance_seed), DESK8_TOP_K)
        out.append(Instance(f"i{i:02d}", DESK8_QUBITS, edges, trusted, untrusted, rates, oracle=True))
    return out


WORKLOADS = {
    "grid16-complete": lambda: _fixed("grid16", 16, GRID16_EDGES, (4, 4, 4), 30),
    "heavyhex16-population": lambda: _fixed("heavyhex16", 16, HEAVYHEX16_EDGES, (4, 4), 10),
    "desk8-oracle": _desk8,
}


def generate(workload: str, seed: int) -> list[Instance]:
    """The workload's instances as presented under ``seed``.

    The instances themselves are fixed, so every seed asks the same
    questions and the quality metrics stay comparable across seeds.  The
    seed shuffles the order of the instances and of the edge and rate
    records in each file, which must not change any report.
    """
    rng = random.Random(seed)
    out = []
    for inst in WORKLOADS[workload]():
        edges, rates = list(inst.edges), list(inst.rates)
        rng.shuffle(edges)
        rng.shuffle(rates)
        out.append(replace(inst, edges=tuple(edges), rates=tuple(rates)))
    rng.shuffle(out)
    return out


def write_instance(instance: Instance, directory: Path) -> dict[str, Path]:
    """Write the three input files; return their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    payloads = {
        "platform": {"qubits": instance.qubits, "edges": [list(e) for e in instance.edges]},
        "requests": {"trusted": list(instance.trusted), "untrusted": list(instance.untrusted)},
        "rates": [
            {"score": r.score, "impacting": list(r.impacting), "impacted": list(r.impacted)}
            for r in instance.rates
        ],
    }
    paths = {}
    for role, payload in payloads.items():
        path = directory / f"{instance.name}.{role}.json"
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        paths[role] = path
    return paths

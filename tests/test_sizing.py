"""Size feasibility and growth budgets, checked against brute force."""

from __future__ import annotations

import itertools
import random

from qaiccc import Allocation, SizeRequests, Trust, UserComponent
from qaiccc.model import qubit_mask, state_of
from qaiccc.sizing import allocation_feasible, assignment_feasible, remain

from conftest import build_free, u


def brute_force_feasible(component_sizes, request_sizes) -> bool:
    """Oracle: try every injective component-to-request assignment."""
    if len(component_sizes) > len(request_sizes):
        return False
    for chosen in itertools.permutations(range(len(request_sizes)), len(component_sizes)):
        if all(c <= request_sizes[j] for c, j in zip(component_sizes, chosen)):
            return True
    return False


def test_assignment_feasible_matches_brute_force():
    rng = random.Random(11)
    for _ in range(500):
        comps = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        reqs = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        assert assignment_feasible(comps, reqs) == brute_force_feasible(comps, reqs)


def brute_force_remain(user, allocation, sizes, fresh_trust=None) -> int:
    """Oracle for remain: scan growth directly over brute-force feasibility."""
    if user:
        owner = next(c for c in allocation.components if c.qubits == user)
        trust = owner.trust
        same = [len(c.qubits) for c in allocation.components_of(trust) if c is not owner]
        base = len(user)
        candidates = range(base, max(sizes.for_trust(trust), default=0) + 1)
    else:
        trust = fresh_trust
        same = [len(c.qubits) for c in allocation.components_of(trust)]
        base = 0
        candidates = range(1, max(sizes.for_trust(trust), default=0) + 1)
    other = Trust.UNTRUSTED if trust is Trust.TRUSTED else Trust.TRUSTED
    if not brute_force_feasible(
        [len(c.qubits) for c in allocation.components_of(other)], sizes.for_trust(other)
    ):
        return -1
    best = -1
    for grown in candidates:
        if brute_force_feasible(same + [grown], sizes.for_trust(trust)):
            best = grown
    if best < 0:
        return -1
    return best - base if user else best


def owner(trust, *qubits):
    """The ``(trust, mask)`` pair of a component; no qubits names a fresh user."""
    return trust, qubit_mask(qubits)


class TestRemain:
    def test_single_component_can_grow_to_the_larger_request(self):
        allocation = build_free({0, 1, 3, 4}, u(2))
        sizes = SizeRequests(untrusted=(2, 3))
        assert remain(owner(Trust.UNTRUSTED, 2), state_of(allocation), sizes) == 2
        assert brute_force_remain(frozenset({2}), allocation, sizes) == 2

    def test_exactly_filled_requests_leave_no_growth(self):
        allocation = build_free(set(), u(0, 1), u(2, 3, 4))
        sizes = SizeRequests(untrusted=(2, 3))
        assert remain(owner(Trust.UNTRUSTED, 0, 1), state_of(allocation), sizes) == 0

    def test_fresh_component_without_unclaimed_request_is_infeasible(self):
        allocation = build_free({2, 3, 4}, u(0, 1))
        sizes = SizeRequests(untrusted=(2,))
        assert remain(owner(Trust.UNTRUSTED), state_of(allocation), sizes) == -1

    def test_fresh_component_budget_is_the_largest_assignable_size(self):
        allocation = build_free({0, 1, 4}, u(2, 3))
        sizes = SizeRequests(untrusted=(2, 3))
        assert remain(owner(Trust.UNTRUSTED), state_of(allocation), sizes) == 3

    def test_oversized_component_is_infeasible(self):
        allocation = build_free({3, 4}, u(0, 1, 2))
        sizes = SizeRequests(untrusted=(2,))
        assert remain(owner(Trust.UNTRUSTED, 0, 1, 2), state_of(allocation), sizes) == -1

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(3, 7)
            qubits = list(range(n))
            rng.shuffle(qubits)
            comps = []
            i = 0
            while i < n and rng.random() < 0.8:
                width = rng.randint(1, n - i)
                trust = Trust.TRUSTED if rng.random() < 0.3 else Trust.UNTRUSTED
                comps.append(UserComponent(trust, frozenset(qubits[i : i + width])))
                i += width
            allocation = Allocation(unallocated=frozenset(qubits[i:]), components=tuple(comps))
            sizes = SizeRequests(
                trusted=tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2))),
                untrusted=tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3))),
            )
            state = state_of(allocation)
            if comps and rng.random() < 0.7:
                target = rng.choice(state[1])  # the state's own triple
                assert remain(target, state, sizes) == brute_force_remain(
                    frozenset(q for q in qubits if target[1] >> q & 1), allocation, sizes
                )
            else:
                trust = rng.choice([Trust.TRUSTED, Trust.UNTRUSTED])
                assert remain((trust, 0), state, sizes) == brute_force_remain(
                    frozenset(), allocation, sizes, fresh_trust=trust
                )


def test_allocation_feasible_checks_both_classes():
    sizes = SizeRequests(trusted=(2,), untrusted=(3,))
    good = build_free({3, 4}, UserComponent(Trust.TRUSTED, frozenset({0, 1})), u(2))
    assert allocation_feasible(good, sizes)
    bad = build_free({3, 4}, UserComponent(Trust.TRUSTED, frozenset({0, 1, 2})))
    assert not allocation_feasible(bad, sizes)

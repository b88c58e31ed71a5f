"""Safe-pattern rule and party counting."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qaiccc import (
    Allocation,
    CrosstalkRate,
    SafetyReason,
    Trust,
    UserComponent,
    canonicalize,
    involved_parties,
    is_safe,
)
from qaiccc.allocator import rate_masks, replay_attributes, replay_state
from qaiccc.model import state_of
from qaiccc.safety import state_parties, state_verdict

from conftest import build_free, t, u

RATE = CrosstalkRate(0.0027, frozenset({3, 4}), frozenset({2}))


class TestIsSafe:
    def test_single_owner_holding_everything_is_safe(self):
        verdict = is_safe(build_free({0, 1}, u(2, 3, 4)), RATE)
        assert verdict.safe
        assert verdict is SafetyReason.ALL_IMPACTED_OWNERS_CONTROL_IMPACTING

    def test_owner_with_one_impacting_qubit_is_safe(self):
        # Qubit 4 stays unallocated: the owner of 2 already controls 3.
        verdict = is_safe(build_free({0, 1, 4}, u(2, 3)), RATE)
        assert verdict.safe
        assert verdict is SafetyReason.ALL_IMPACTED_OWNERS_CONTROL_IMPACTING

    def test_all_unallocated_is_unsafe(self):
        verdict = is_safe(build_free({0, 1, 2, 3, 4}), RATE)
        assert not verdict.safe
        assert verdict is SafetyReason.UNALLOCATED_IMPACTED

    def test_trusted_impacting_owner_is_safe_even_with_unallocated_impacted(self):
        verdict = is_safe(build_free({0, 1, 2, 4}, t(3)), RATE)
        assert verdict.safe
        assert verdict is SafetyReason.TRUSTED_CONTROLS_IMPACTING

    def test_impacted_owner_without_impacting_is_unsafe(self):
        verdict = is_safe(build_free({0, 1}, u(2), u(3, 4)), RATE)
        assert not verdict.safe
        assert verdict is SafetyReason.IMPACTED_OWNER_WITHOUT_IMPACTING

    def test_spreading_impacting_over_untrusted_users_is_not_safe(self):
        # Different untrusted users on 3 and 4 may collude; owner of 2 holds neither.
        verdict = is_safe(build_free({0, 1}, u(2), u(3), u(4)), RATE)
        assert not verdict.safe

    def test_trusted_impacted_owner_without_impacting_is_still_unsafe(self):
        verdict = is_safe(build_free({0, 1}, t(2), u(3, 4)), RATE)
        assert not verdict.safe


def test_each_reason_is_its_verdict():
    assert {reason.value: reason.safe for reason in SafetyReason} == {
        "trusted-controls-impacting": True,
        "all-impacted-owners-control-impacting": True,
        "unallocated-impacted": False,
        "impacted-owner-without-impacting": False,
    }
    assert SafetyReason("unallocated-impacted") is SafetyReason.UNALLOCATED_IMPACTED


class TestInvolvedParties:
    def test_single_owner(self):
        assert involved_parties(build_free({0, 1}, u(2, 3, 4)), RATE) == 1

    def test_unallocated_involved_qubit_adds_a_party(self):
        assert involved_parties(build_free({0, 1, 4}, u(2, 3)), RATE) == 2

    def test_three_distinct_owners(self):
        assert involved_parties(build_free({0, 1}, u(2), u(3), u(4)), RATE) == 3

    def test_uninvolved_components_do_not_count(self):
        assert involved_parties(build_free({1}, u(2, 3, 4), u(0)), RATE) == 1


def _random_case(rng: random.Random):
    """Random allocation over 6 qubits plus a random valid-shape rate."""
    qubits = list(range(6))
    rng.shuffle(qubits)
    cut1 = rng.randint(0, 6)
    cut2 = rng.randint(cut1, 6)
    comp_pool = qubits[:cut2]
    components = []
    i = 0
    while i < len(comp_pool):
        width = rng.randint(1, len(comp_pool) - i)
        trust = Trust.TRUSTED if rng.random() < 0.3 else Trust.UNTRUSTED
        components.append(UserComponent(trust, frozenset(comp_pool[i : i + width])))
        i += width
    allocation = Allocation(unallocated=frozenset(qubits[cut2:]), components=tuple(components))
    shape = rng.choice([(1, 1), (2, 1), (2, 2)])
    involved = rng.sample(range(6), shape[0] + shape[1])
    rate = CrosstalkRate(rng.random(), frozenset(involved[: shape[0]]), frozenset(involved[shape[0] :]))
    return allocation, rate


def _merge(allocation: Allocation, i: int, j: int) -> Allocation | None:
    comps = list(allocation.components)
    if comps[i].trust is not comps[j].trust:
        return None
    merged = UserComponent(comps[i].trust, comps[i].qubits | comps[j].qubits)
    rest = [c for k, c in enumerate(comps) if k not in (i, j)]
    return Allocation(unallocated=allocation.unallocated, components=tuple(rest + [merged]))


def test_safety_is_monotone_under_user_merge():
    rng = random.Random(42)
    checked = 0
    for _ in range(300):
        allocation, rate = _random_case(rng)
        if not is_safe(allocation, rate).safe or len(allocation.components) < 2:
            continue
        for i, j in itertools.combinations(range(len(allocation.components)), 2):
            merged = _merge(allocation, i, j)
            if merged is not None:
                checked += 1
                assert is_safe(merged, rate).safe
    assert checked > 50


def test_single_party_implies_safe():
    rng = random.Random(43)
    checked = 0
    for _ in range(500):
        allocation, rate = _random_case(rng)
        if involved_parties(allocation, rate) == 1 and not (rate.involved & allocation.unallocated):
            checked += 1
            assert is_safe(allocation, rate).safe
    assert checked > 20


def test_verdict_depends_only_on_involved_qubits():
    # Moving an uninvolved qubit between unallocated and a fresh user
    # never flips the verdict.
    rng = random.Random(44)
    checked = 0
    for _ in range(300):
        allocation, rate = _random_case(rng)
        outside = sorted(allocation.unallocated - rate.involved)
        if not outside:
            continue
        moved = Allocation(
            unallocated=allocation.unallocated - {outside[0]},
            components=allocation.components
            + (UserComponent(Trust.UNTRUSTED, frozenset({outside[0]})),),
        )
        checked += 1
        assert is_safe(moved, rate).safe == is_safe(allocation, rate).safe
    assert checked > 50


# --- the rule on masks against the rule on frozensets ------------------------

SAFE = {SafetyReason.TRUSTED_CONTROLS_IMPACTING, SafetyReason.ALL_IMPACTED_OWNERS_CONTROL_IMPACTING}


def reference_reason(allocation, rate):
    """The safe-pattern rule as written on frozensets before it moved to masks."""
    for comp in allocation.components_of(Trust.TRUSTED):
        if comp.qubits & rate.impacting:
            return SafetyReason.TRUSTED_CONTROLS_IMPACTING
    if rate.impacted & allocation.unallocated:
        return SafetyReason.UNALLOCATED_IMPACTED
    owners = [comp for comp in allocation.components if comp.qubits & rate.impacted]
    if all(comp.qubits & rate.impacting for comp in owners):
        return SafetyReason.ALL_IMPACTED_OWNERS_CONTROL_IMPACTING
    return SafetyReason.IMPACTED_OWNER_WITHOUT_IMPACTING


def reference_parties(allocation, rate):
    count = sum(1 for comp in allocation.components if comp.qubits & rate.involved)
    return count + bool(rate.involved & allocation.unallocated)


def reference_replay(allocation, rates):
    """``(score, penalty, incidental)`` after the rates, one per-rate update each, or None."""
    score, penalty, incidental = allocation.score, 0.0, ()
    for rate in rates:
        if reference_reason(allocation, rate) not in SAFE:
            return None
        score = rate.score
        if rate.involved & allocation.unallocated:
            penalty = penalty + rate.score
            incidental = incidental + (rate,)
    return score, penalty, incidental


@st.composite
def safety_cases(draw):
    """A partial or complete allocation of at most 8 qubits and a few rates on them."""
    n = draw(st.integers(2, 8))
    complete = draw(st.booleans())
    owners = draw(st.lists(st.integers(0 if complete else -1, 3), min_size=n, max_size=n))
    trusts = draw(st.lists(st.sampled_from(list(Trust)), min_size=4, max_size=4))
    groups: dict[int, set[int]] = {}
    for qubit, owner in enumerate(owners):
        groups.setdefault(owner, set()).add(qubit)
    allocation = Allocation(
        unallocated=frozenset(groups.pop(-1, ())),
        components=tuple(UserComponent(trusts[o], frozenset(q)) for o, q in groups.items()),
    )
    rates = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
        if sum(shape) > n:
            shape = (1, 1)
        involved = draw(st.permutations(range(n)))[: sum(shape)]
        score = draw(st.floats(0, 1, allow_nan=False))
        rates.append(CrosstalkRate(score, frozenset(involved[: shape[0]]), frozenset(involved[shape[0] :])))
    return allocation, rates


@settings(max_examples=300, deadline=None)
@given(safety_cases())
def test_the_mask_rule_matches_the_rule_on_allocations(case):
    allocation, rates = case
    state = state_of(allocation)
    for rate in rates:
        _, impacting, impacted, involved = rate_masks(rate)
        verdict = state_verdict(state, impacting, impacted)
        assert verdict == is_safe(allocation, rate)
        assert verdict is reference_reason(allocation, rate)
        assert verdict.safe is (verdict in SAFE)
        parties = state_parties(state, involved)
        assert parties == involved_parties(allocation, rate) == reference_parties(allocation, rate)

    replayed = replay_state(state, [rate_masks(rate) for rate in rates])
    via_allocation = replay_attributes(allocation, rates)
    expected = reference_replay(allocation, rates)
    assert (replayed is None) == (via_allocation is None) == (expected is None)
    if replayed is not None:
        attributes = (replayed.score, replayed.penalty, replayed.incidental)
        assert attributes == (via_allocation.score, via_allocation.penalty, via_allocation.incidental)
        assert attributes == expected
        assert canonicalize(via_allocation) == canonicalize(allocation)
        assert replayed.last_rate is via_allocation.last_rate is None

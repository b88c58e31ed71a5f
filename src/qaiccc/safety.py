"""Safe-pattern classification for a crosstalk rate against an allocation.

An ownership arrangement of a rate's qubits is safe when a trusted user
controls at least one impacting qubit, or when every user owning an
impacted qubit also controls at least one impacting qubit.  Spreading the
impacting qubits over several untrusted users is *not* safe on its own:
those users may collude or be the same actor.  An unallocated impacted
qubit always makes the pattern unsafe, because a future tenant placed
there would be an unprotected victim; an unallocated impacting qubit
merely adds a potential extra party.

The rule is written once, on bitmasks: :func:`state_verdict` classifies a
search state (:data:`qaiccc.model.SearchState`) against the rate's
impacting and impacted masks, and :func:`state_parties` counts the parties
on its involved mask.  :func:`is_safe` and :func:`involved_parties` take an
:class:`Allocation` and a :class:`CrosstalkRate` and delegate to them; the
search calls the mask functions on its states directly, with each rate's
masks worked out once.  A verdict is a :class:`SafetyReason`, and its
``safe`` attribute says which way the reason goes.
"""

from __future__ import annotations

from enum import Enum

from .model import Allocation, CrosstalkRate, SearchState, Trust, qubit_mask, state_of


class SafetyReason(Enum):
    """Why a rate's ownership pattern is safe or unsafe; ``safe`` is the verdict.

    Each member's ``safe`` is a plain attribute set with the member, so a
    verdict cannot name a reason that says otherwise.
    """

    safe: bool

    TRUSTED_CONTROLS_IMPACTING = ("trusted-controls-impacting", True)
    ALL_IMPACTED_OWNERS_CONTROL_IMPACTING = ("all-impacted-owners-control-impacting", True)
    UNALLOCATED_IMPACTED = ("unallocated-impacted", False)
    IMPACTED_OWNER_WITHOUT_IMPACTING = ("impacted-owner-without-impacting", False)

    def __new__(cls, value: str, safe: bool) -> SafetyReason:
        member = object.__new__(cls)
        member._value_ = value
        member.safe = safe
        return member


def state_verdict(state: SearchState, impacting: int, impacted: int) -> SafetyReason:
    """Classify ``state`` against a rate with the ``impacting`` and ``impacted`` masks.

    The verdict depends only on the owners of the rate's qubits; qubits
    outside the two masks never flip it, and neither does the order of
    the state's components.
    """
    free, components = state
    for trust, mask in components:
        if mask & impacting and trust is Trust.TRUSTED:
            return SafetyReason.TRUSTED_CONTROLS_IMPACTING
    if impacted & free:
        return SafetyReason.UNALLOCATED_IMPACTED
    for _, mask in components:
        if mask & impacted and not mask & impacting:
            return SafetyReason.IMPACTED_OWNER_WITHOUT_IMPACTING
    return SafetyReason.ALL_IMPACTED_OWNERS_CONTROL_IMPACTING


def state_parties(state: SearchState, involved: int) -> int:
    """Number of distinct parties holding the ``involved`` mask in ``state``.

    Counts the components meeting it, plus one when any involved qubit is
    still unallocated: that qubit could later be handed to another user.
    """
    free, components = state
    count = sum(1 for _, mask in components if mask & involved)
    return count + 1 if involved & free else count


def is_safe(allocation: Allocation, rate: CrosstalkRate) -> SafetyReason:
    """Classify ``allocation`` against ``rate`` (:func:`state_verdict` on its state)."""
    return state_verdict(state_of(allocation), qubit_mask(rate.impacting), qubit_mask(rate.impacted))


def involved_parties(allocation: Allocation, rate: CrosstalkRate) -> int:
    """Number of distinct parties holding the rate's qubits (:func:`state_parties` on its state)."""
    return state_parties(state_of(allocation), qubit_mask(rate.involved))

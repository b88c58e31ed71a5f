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
masks worked out once.  A verdict is one of four shared constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Allocation, CrosstalkRate, SearchState, Trust, qubit_mask, state_of


class SafetyReason(Enum):
    TRUSTED_CONTROLS_IMPACTING = "trusted-controls-impacting"
    ALL_IMPACTED_OWNERS_CONTROL_IMPACTING = "all-impacted-owners-control-impacting"
    UNALLOCATED_IMPACTED = "unallocated-impacted"
    IMPACTED_OWNER_WITHOUT_IMPACTING = "impacted-owner-without-impacting"


_SAFE_REASONS = frozenset(
    {SafetyReason.TRUSTED_CONTROLS_IMPACTING, SafetyReason.ALL_IMPACTED_OWNERS_CONTROL_IMPACTING}
)


@dataclass(frozen=True)
class SafetyVerdict:
    safe: bool
    reason: SafetyReason

    def __post_init__(self) -> None:
        if self.safe != (self.reason in _SAFE_REASONS):
            raise ValueError(f"verdict flag contradicts reason {self.reason}")


_TRUSTED_CONTROLS = SafetyVerdict(True, SafetyReason.TRUSTED_CONTROLS_IMPACTING)
_ALL_CONTROL = SafetyVerdict(True, SafetyReason.ALL_IMPACTED_OWNERS_CONTROL_IMPACTING)
_UNALLOCATED = SafetyVerdict(False, SafetyReason.UNALLOCATED_IMPACTED)
_WITHOUT_IMPACTING = SafetyVerdict(False, SafetyReason.IMPACTED_OWNER_WITHOUT_IMPACTING)


def state_verdict(state: SearchState, impacting: int, impacted: int) -> SafetyVerdict:
    """Classify ``state`` against a rate with the ``impacting`` and ``impacted`` masks.

    The verdict depends only on the owners of the rate's qubits; qubits
    outside the two masks never flip it, and neither does the order of
    the state's components.
    """
    free, components = state
    for trust, mask in components:
        if mask & impacting and trust is Trust.TRUSTED:
            return _TRUSTED_CONTROLS
    if impacted & free:
        return _UNALLOCATED
    for _, mask in components:
        if mask & impacted and not mask & impacting:
            return _WITHOUT_IMPACTING
    return _ALL_CONTROL


def state_parties(state: SearchState, involved: int) -> int:
    """Number of distinct parties holding the ``involved`` mask in ``state``.

    Counts the components meeting it, plus one when any involved qubit is
    still unallocated: that qubit could later be handed to another user.
    """
    free, components = state
    count = sum(1 for _, mask in components if mask & involved)
    return count + 1 if involved & free else count


def is_safe(allocation: Allocation, rate: CrosstalkRate) -> SafetyVerdict:
    """Classify ``allocation`` against ``rate`` (:func:`state_verdict` on its state)."""
    return state_verdict(state_of(allocation), qubit_mask(rate.impacting), qubit_mask(rate.impacted))


def involved_parties(allocation: Allocation, rate: CrosstalkRate) -> int:
    """Number of distinct parties holding the rate's qubits (:func:`state_parties` on its state)."""
    return state_parties(state_of(allocation), qubit_mask(rate.involved))

"""Size-feasibility checks for partial allocations.

A partial allocation is size-feasible when, per trust class, its
components can be injectively assigned to requests of that class with
each component no larger than its request.  Because a component of size
``c`` fits exactly the requests of size ``>= c``, the bipartite matching
degenerates to a sorted comparison: align components and requests in
decreasing size and require element-wise fit.  :func:`remain` turns this
into the growth budget of one user of a search state, named by its
``(trust, mask)`` pair.
"""

from __future__ import annotations

from typing import Sequence

from .model import Allocation, SearchState, SizeRequests, StateComponent, Trust


def assignment_feasible(component_sizes: Sequence[int], request_sizes: Sequence[int]) -> bool:
    """Can every component be matched to its own request of at least its size?"""
    if len(component_sizes) > len(request_sizes):
        return False
    comps = sorted(component_sizes, reverse=True)
    reqs = sorted(request_sizes, reverse=True)
    return all(c <= r for c, r in zip(comps, reqs))


def allocation_feasible(allocation: Allocation, sizes: SizeRequests) -> bool:
    """Size feasibility of a whole allocation, both trust classes."""
    for trust in (Trust.TRUSTED, Trust.UNTRUSTED):
        comp_sizes = [len(c.qubits) for c in allocation.components_of(trust)]
        if not assignment_feasible(comp_sizes, sizes.for_trust(trust)):
            return False
    return True


def remain(owner: StateComponent, state: SearchState, sizes: SizeRequests) -> int:
    """Growth budget of ``owner``, a component of ``state`` or ``(trust, 0)`` for a fresh user.

    The largest ``k >= 0`` such that growing the owner by ``k`` qubits
    leaves every component assignable to its own request, or -1.  A
    component that fits a request still fits when grown to its size, and a
    larger size never fits where a smaller one does not, so the request
    sizes are scanned from the largest down and the first that fits wins.
    """
    trust, mask = owner
    base = mask.bit_count()
    other_trust = Trust.UNTRUSTED if trust is Trust.TRUSTED else Trust.TRUSTED
    other_sizes = [m.bit_count() for t, m in state[1] if t is not trust]
    if not assignment_feasible(other_sizes, sizes.for_trust(other_trust)):
        return -1
    others = [m.bit_count() for t, m in state[1] if t is trust and m != mask]
    requests = sizes.for_trust(trust)
    for grown in sorted({r for r in requests if r >= base}, reverse=True):
        if assignment_feasible(others + [grown], requests):
            return grown - base
    return -1

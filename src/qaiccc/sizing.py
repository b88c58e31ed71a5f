"""Size-feasibility checks for partial allocations.

A partial allocation is size-feasible when, per trust class, its
components can be injectively assigned to requests of that class with
each component no larger than its request.  Because a component of size
``c`` fits exactly the requests of size ``>= c``, the bipartite matching
degenerates to a sorted comparison: align components and requests in
decreasing size and require element-wise fit.
"""

from __future__ import annotations

from typing import Sequence

from .model import Allocation, SearchState, SizeRequests, Trust


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


def remain(
    user: int,
    state: SearchState,
    sizes: SizeRequests,
    *,
    fresh_trust: Trust | None = None,
) -> int:
    """Growth budget of the component with qubit mask ``user``; reads only ``state``'s sizes.

    For an existing component ``user``: the largest ``k >= 0`` such that
    growing it by ``k`` qubits still leaves every component of the
    allocation assignable to its own request; -1 when the allocation is
    already infeasible.

    For ``user`` empty (a component about to be created, class
    ``fresh_trust``): the largest size the fresh component may take
    alongside the existing components; -1 when no request is left for it.
    """
    components = state[1]
    if user:
        owner = next((c for c in components if c[1] == user), None)
        if owner is None:
            raise ValueError("user must be an existing component's qubit mask")
        trust, _, base = owner
    else:
        if fresh_trust is None:
            raise ValueError("fresh_trust is required when user is empty")
        trust, base = fresh_trust, 0
    others = [size for t, mask, size in components if t is trust and mask != user]
    other_sizes = [size for t, _, size in components if t is not trust]

    requests = sizes.for_trust(trust)
    other_trust = Trust.UNTRUSTED if trust is Trust.TRUSTED else Trust.TRUSTED
    if not assignment_feasible(other_sizes, sizes.for_trust(other_trust)):
        return -1

    limit = max(requests, default=0)
    best = -1
    start = base if user else 1
    for grown in range(start, limit + 1):
        if assignment_feasible(others + [grown], requests):
            best = grown
    if best < 0:
        return -1
    return best - base if user else best

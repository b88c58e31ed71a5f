"""Output checks and quality figures for one instance of one pass.

The checks re-derive every claim in a report with the package's own
independent routes: structural validation, attribute replay of every
ranked allocation, the worklist recomputed from the selected allocation,
and, for oracle instances, exhaustive enumeration deciding whether exit 3
(no feasible allocation) was the right verdict.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from qaiccc import (
    ConnectivityGraph,
    CrosstalkRate,
    SizeRequests,
    enumerate_complete,
    noise_worklist,
    replay_check,
    safe_prefix,
    sort_rates,
    validate_allocation,
)
from qaiccc.cli import allocation_from_dict, rate_from_record

EXIT_OK = 0
EXIT_NO_ALLOCATION = 3


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    safe_prefix: int = 0
    max_cross_score: float = 0.0
    penalty: float = 0.0
    worklist_len: int = 0
    worklist_score: float = 0.0
    oracle_gap: int = 0


def report_digest(text: str) -> str:
    """SHA-256 of a JSON report with its ``timings`` removed."""
    data = json.loads(text)
    data.pop("timings", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


class InstanceChecker:
    """Everything about one instance that does not depend on a pass."""

    def __init__(self, instance) -> None:
        self.instance = instance
        self.graph = ConnectivityGraph(instance.qubits, frozenset(instance.edges))
        self.sizes = SizeRequests(trusted=instance.trusted, untrusted=instance.untrusted)
        self.rates = sort_rates(
            [CrosstalkRate(r.score, frozenset(r.impacting), frozenset(r.impacted)) for r in instance.rates]
        )
        # Only oracle instances may lack a complete allocation.
        self.complete_count = (
            len(enumerate_complete(self.graph, self.sizes)) if instance.oracle else None
        )
        self.expected_code = EXIT_NO_ALLOCATION if self.complete_count == 0 else EXIT_OK

    def check(self, codes: list[int], outputs: list[Path]) -> Verdict:
        """Check the exit codes and reports of this instance's commands."""
        verdict = Verdict()
        digests = []
        for code, output in zip(codes, outputs):
            if code != self.expected_code:
                verdict.errors.append(f"{output.name}: exit {code}, expected {self.expected_code}")
                digests.append(f"exit {code}")
                continue
            if code != EXIT_OK:
                digests.append(f"exit {code}")
                continue
            text = output.read_text(encoding="utf-8")
            digests.append(report_digest(text))
            report = json.loads(text)
            if output.name.endswith(".oracle.json"):
                self._check_oracle(report, verdict)
            else:
                self._check_allocate(report, verdict)
        verdict.digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()
        return verdict

    def _check_allocate(self, report: dict, verdict: Verdict) -> None:
        errors = verdict.errors
        selected = allocation_from_dict(report["selected"]["allocation"])
        errors += validate_allocation(selected, self.graph)
        if selected.unallocated:
            errors.append(f"selected allocation leaves {sorted(selected.unallocated)} unallocated")
        assignment = report["selected"]["assignment"]
        total = sum(self.sizes.trusted) + sum(self.sizes.untrusted)
        idle = self.graph.vertex_count - total or None
        expected_sizes = (list(self.sizes.trusted), list(self.sizes.untrusted), idle)
        got_sizes = (
            [len(qs) for qs in assignment["trusted"]],
            [len(qs) for qs in assignment["untrusted"]],
            len(assignment["idle"]) if assignment["idle"] is not None else None,
        )
        if got_sizes != expected_sizes:
            errors.append(f"assignment sizes {got_sizes} != requested {expected_sizes}")
        assigned = {("trusted", tuple(qs)) for qs in assignment["trusted"]}
        assigned |= {("untrusted", tuple(qs)) for qs in assignment["untrusted"]}
        if assignment["idle"] is not None:
            assigned.add(("untrusted", tuple(assignment["idle"])))
        components = {(c.trust.value, tuple(sorted(c.qubits))) for c in selected.components}
        if assigned != components:
            errors.append("assignment does not match the selected components")
        for position, entry in enumerate(report["ranking"]):
            replay = replay_check(allocation_from_dict(entry), self.rates)
            if not replay.ok:
                errors.append(f"ranking[{position}] fails replay: {'; '.join(replay.mismatches)}")
        worklist = tuple(rate_from_record(r) for r in report["worklist"])
        if worklist != noise_worklist(selected, self.rates):
            errors.append("worklist differs from the recomputed noise worklist")

        prefix = safe_prefix(selected, self.rates)
        verdict.safe_prefix = prefix
        verdict.max_cross_score = self.rates[prefix].score if prefix < len(self.rates) else 0.0
        verdict.penalty = selected.penalty
        verdict.worklist_len = len(worklist)
        verdict.worklist_score = sum(r.score for r in worklist)

    def _check_oracle(self, report: dict, verdict: Verdict) -> None:
        if report["complete_allocations"] != self.complete_count:
            verdict.errors.append(
                f"oracle counts {report['complete_allocations']} complete allocations, "
                f"enumeration gives {self.complete_count}"
            )
        # The allocate command runs first, so its safe prefix is already known.
        if report["algorithm_safe_prefix"] != verdict.safe_prefix:
            verdict.errors.append(
                f"oracle's algorithm prefix {report['algorithm_safe_prefix']} "
                f"!= allocate's {verdict.safe_prefix}"
            )
        gap = report["optimum_safe_prefix"] - report["algorithm_safe_prefix"]
        if gap != report["gap"] or gap < 0:
            verdict.errors.append(f"oracle gap {report['gap']} is inconsistent")
        verdict.oracle_gap = gap

"""Command-line front end: allocate, oracle, and synth subcommands.

Exit codes are stable API: 0 success, 1 I/O or parse error, 2 not enough
qubits for the requests, 3 no feasible allocation, 4 instance too large
for exhaustive enumeration.  Reports are versioned JSON by default; the
text format mirrors the search narrative and, under ``--verbose``, shows
the population after each rate.  The ``QAICCC_LOG`` environment variable
(error, info, debug) controls diagnostic logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .allocator import AllocationOutcome, SearchConfig, allocate
from .completion import RequestLabel, request_slots
from .errors import (
    InputFileError,
    InstanceTooLargeError,
    InsufficientQubitsError,
    NoFeasibleAllocationError,
    QaicccError,
)
from .ingest import (
    finite_number,
    integer_list,
    load_platform,
    load_rates,
    load_requests,
    rate_from_record,
    rate_to_record,
    save_rates,
    synth_rates,
)
from .model import Allocation, CrosstalkRate, SizeRequests, Trust, UserComponent
from .oracle import DEFAULT_ENUMERATION_CAP, OracleReport, oracle_report
# ``rank`` is not called here (``select`` returns its ranking); it stays
# bound because the benchmark's tracer (bench/spans.py) wraps it here.
from .selection import SelectionResult, rank, select  # noqa: F401

log = logging.getLogger("qaiccc.cli")

REPORT_SCHEMA = "qaiccc-report/1"
ORACLE_SCHEMA = "qaiccc-oracle/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INSUFFICIENT_QUBITS = 2
EXIT_NO_ALLOCATION = 3
EXIT_TOO_LARGE = 4


# ---------------------------------------------------------------------------
# serialization.  Each record kind has one checked reader (rate records:
# ``ingest.rate_from_record``); a malformed field raises InputFileError
# naming it, e.g. ``'ranking[3].components[0].qubits' repeats a qubit``.

_TRUST_VALUES = tuple(t.value for t in Trust)


def _field(data, key: str, where: str, kind: type | None = None):
    """``data[key]`` of the object at ``where``, refused unless it is a ``kind``."""
    if not isinstance(data, Mapping) or key not in data:
        raise InputFileError(f"'{where}' must be an object with '{key}'")
    if kind is not None and not isinstance(data[key], kind):
        raise InputFileError(f"'{where}.{key}' must be a {kind.__name__}")
    return data[key]


def _integer(data, key: str, where: str, *, optional: bool = False) -> int | None:
    value = _field(data, key, where)
    if (value is not None or not optional) and type(value) is not int:
        raise InputFileError(f"'{where}.{key}' must be an integer{' or null' if optional else ''}")
    return value


def _qubits(value, name: str) -> frozenset[int]:
    return frozenset(integer_list(value, name, distinct=True))


def _timings(value) -> dict[str, float] | None:
    if value is None:
        return None
    if not isinstance(value, Mapping):
        raise InputFileError("'report.timings' must be an object or null")
    return {key: finite_number(v, f"report.timings.{key}") for key, v in value.items()}


def allocation_to_dict(allocation: Allocation) -> dict:
    return {
        "unallocated": sorted(allocation.unallocated),
        "components": [
            {"trust": comp.trust.value, "qubits": sorted(comp.qubits)}
            for comp in allocation.components
        ],
        "score": allocation.score,
        "penalty": allocation.penalty,
        "incidental": [rate_to_record(r) for r in allocation.incidental],
        "last_rate": rate_to_record(allocation.last_rate) if allocation.last_rate else None,
    }


def allocation_from_dict(data: Mapping, where: str = "allocation") -> Allocation:
    """One report allocation; errors name the offending field under ``where``."""
    components = []
    for i, comp in enumerate(_field(data, "components", where, list)):
        at = f"{where}.components[{i}]"
        if _field(comp, "trust", at) not in _TRUST_VALUES:
            raise InputFileError(f"'{at}.trust' must be one of {', '.join(_TRUST_VALUES)}")
        qubits = _qubits(_field(comp, "qubits", at), f"{at}.qubits")
        if not qubits:
            raise InputFileError(f"'{at}.qubits' is empty")
        components.append(UserComponent(Trust(comp["trust"]), qubits))
    incidental = _field(data, "incidental", where, list)
    last_rate = _field(data, "last_rate", where)
    return Allocation(
        unallocated=_qubits(_field(data, "unallocated", where), f"{where}.unallocated"),
        components=tuple(components),
        score=finite_number(_field(data, "score", where), f"{where}.score"),
        penalty=finite_number(_field(data, "penalty", where), f"{where}.penalty"),
        incidental=tuple(
            rate_from_record(r, i, f"{where}.incidental") for i, r in enumerate(incidental)
        ),
        last_rate=(
            None if last_rate is None else rate_from_record(last_rate, path=f"{where}.last_rate")
        ),
    )


def _assignment_to_dict(
    assignment: Mapping[RequestLabel, frozenset[int]], sizes: SizeRequests
) -> dict:
    return {
        "trusted": [sorted(assignment[("trusted", i)]) for i in range(len(sizes.trusted))],
        "untrusted": [sorted(assignment[("untrusted", i)]) for i in range(len(sizes.untrusted))],
        "idle": sorted(assignment[("idle", 0)]) if sizes.idle_size is not None else None,
    }


def _assignment_from_dict(data: Mapping, where: str) -> dict[RequestLabel, frozenset[int]]:
    out: dict[RequestLabel, frozenset[int]] = {}
    for kind in ("trusted", "untrusted"):
        for i, qubits in enumerate(_field(data, kind, where, list)):
            out[(kind, i)] = _qubits(qubits, f"{where}.{kind}[{i}]")
    if data.get("idle") is not None:
        out[("idle", 0)] = _qubits(data["idle"], f"{where}.idle")
    return out


@dataclass(frozen=True)
class RunReport:
    """Machine-readable result of one allocate run; the ranking rides on ``selected``."""

    sizes: SizeRequests
    config: SearchConfig
    selected: SelectionResult
    timings: Mapping[str, float] | None

    def to_dict(self) -> dict:
        payload = {
            "schema": REPORT_SCHEMA,
            "requests": {
                "trusted": list(self.sizes.trusted),
                "untrusted": list(self.sizes.untrusted),
                "idle": self.sizes.idle_size,
            },
            "config": {
                "max_population": self.config.max_population,
                "max_paths_per_connect": self.config.max_paths_per_connect,
            },
            "selected": {
                "allocation": allocation_to_dict(self.selected.allocation),
                "assignment": _assignment_to_dict(self.selected.assignment, self.sizes),
            },
            "worklist": [rate_to_record(r) for r in self.selected.worklist],
            "ranking": [allocation_to_dict(a) for a in self.selected.ranking],
        }
        if self.timings is not None:
            payload["timings"] = dict(self.timings)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunReport":
        if data.get("schema") != REPORT_SCHEMA:
            raise ValueError(f"unsupported report schema {data.get('schema')!r}")
        requests, config, selected = (
            _field(data, key, "report") for key in ("requests", "config", "selected")
        )
        try:
            sizes = SizeRequests(
                trusted=integer_list(_field(requests, "trusted", "requests"), "requests.trusted"),
                untrusted=integer_list(_field(requests, "untrusted", "requests"), "requests.untrusted"),
                idle_size=_integer(requests, "idle", "requests", optional=True),
            )
            config = SearchConfig(
                max_population=_integer(config, "max_population", "config", optional=True),
                max_paths_per_connect=_integer(config, "max_paths_per_connect", "config"),
            )
        except ValueError as exc:
            raise InputFileError(str(exc)) from exc
        worklist = _field(data, "worklist", "report", list)
        selected = SelectionResult(
            allocation=allocation_from_dict(
                _field(selected, "allocation", "selected"), "selected.allocation"
            ),
            assignment=_assignment_from_dict(
                _field(selected, "assignment", "selected"), "selected.assignment"
            ),
            worklist=tuple(rate_from_record(r, i, "worklist") for i, r in enumerate(worklist)),
            ranking=tuple(
                allocation_from_dict(a, f"ranking[{i}]")
                for i, a in enumerate(_field(data, "ranking", "report", list))
            ),
        )
        timings = _timings(data.get("timings"))
        return cls(sizes=sizes, config=config, selected=selected, timings=timings)


def oracle_report_to_dict(report: OracleReport, cap: int) -> dict:
    return {
        "schema": ORACLE_SCHEMA,
        "cap": cap,
        "complete_allocations": report.complete_count,
        "optimum_safe_prefix": report.optimum_safe_prefix,
        "optimum_allocations": [
            {
                "unallocated": list(unallocated),
                "components": [{"trust": t, "qubits": list(qs)} for t, qs in components],
            }
            for unallocated, components in report.optimum_allocations
        ],
        "algorithm_safe_prefix": report.algorithm_safe_prefix,
        "gap": report.gap,
    }


# ---------------------------------------------------------------------------
# text rendering

def format_rate(rate: CrosstalkRate) -> str:
    return (
        f"score={rate.score!r} impacting={sorted(rate.impacting)} "
        f"impacted={sorted(rate.impacted)}"
    )


def format_structure(allocation: Allocation) -> str:
    parts = [
        f"{comp.trust.value}{{{','.join(str(q) for q in sorted(comp.qubits))}}}"
        for comp in allocation.components
    ]
    if allocation.unallocated:
        parts.append(f"free{{{','.join(str(q) for q in sorted(allocation.unallocated))}}}")
    return " ".join(parts) if parts else "(empty)"


def render_text(report: RunReport, outcome: AllocationOutcome, verbose: bool) -> str:
    lines: list[str] = []
    sizes = report.sizes
    lines.append(
        f"requests: trusted={list(sizes.trusted)} untrusted={list(sizes.untrusted)} "
        f"idle={sizes.idle_size if sizes.idle_size is not None else '-'}"
    )
    lines.append(f"rates: {len(outcome.rates)} (processed in decreasing score order)")
    if verbose:
        for step_index, step in enumerate(outcome.steps, start=1):
            lines.append(f"rate {step_index}/{len(outcome.rates)}: {format_rate(step.rate)}")
            for archived in step.archived:
                lines.append(f"  archived: {format_structure(archived)}")
            lines.append(f"  population ({len(step.population)}):")
            for member in step.population:
                lines.append(
                    f"    {format_structure(member)} "
                    f"score={member.score!r} penalty={member.penalty!r}"
                )
        if outcome.halted:
            lines.append("population empty: search stopped")
    selected = report.selected
    lines.append(
        f"selected: {format_structure(selected.allocation)} "
        f"score={selected.allocation.score!r} penalty={selected.allocation.penalty!r}"
    )
    lines.append("assignment:")
    for label, trust, size in request_slots(sizes):
        kind, position = label
        qubits = sorted(selected.assignment[label])
        lines.append(f"  {kind}[{position}] (size {size}, {trust.value}): {qubits}")
    lines.append(f"noise worklist ({len(selected.worklist)}):")
    for rate in selected.worklist:
        lines.append(f"  {format_rate(rate)}")
    lines.append(f"ranking ({len(selected.ranking)}):")
    for position, allocation in enumerate(selected.ranking, start=1):
        last = f"last={allocation.last_rate.score!r}" if allocation.last_rate else "last=-"
        lines.append(
            f"  {position}. {format_structure(allocation)} "
            f"score={allocation.score!r} penalty={allocation.penalty!r} {last}"
        )
    if report.timings is not None:
        for stage, seconds in report.timings.items():
            lines.append(f"timing {stage}: {seconds:.6f}s")
    return "\n".join(lines) + "\n"


def render_oracle_text(report: OracleReport, cap: int) -> str:
    lines = [
        f"complete allocations: {report.complete_count} (cap {cap})",
        f"optimum safe prefix: {report.optimum_safe_prefix}",
        f"algorithm safe prefix: {report.algorithm_safe_prefix}",
        f"gap: {report.gap}",
        f"optimum witnesses: {len(report.optimum_allocations)}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def _write_output(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_allocate(args: argparse.Namespace) -> int:
    try:
        config = SearchConfig(
            max_population=args.max_population,
            max_paths_per_connect=args.max_paths,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    timer = time.perf_counter
    t0 = timer()
    graph = load_platform(args.platform)
    rates = load_rates(args.rates, graph)
    sizes = load_requests(args.requests)
    t1 = timer()
    outcome = allocate(graph, sizes, rates, config)
    t2 = timer()
    selected = select(outcome, graph)
    t3 = timer()

    timings = None
    if not args.no_timings:
        timings = {"ingest_s": t1 - t0, "allocate_s": t2 - t1, "select_s": t3 - t2}
    report = RunReport(
        sizes=outcome.sizes,
        config=config,
        selected=selected,
        timings=timings,
    )
    if args.format == "json":
        _write_output(json.dumps(report.to_dict(), indent=2) + "\n", args.output)
    else:
        _write_output(render_text(report, outcome, args.verbose), args.output)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    graph = load_platform(args.platform)
    rates = load_rates(args.rates, graph)
    sizes = load_requests(args.requests)
    report = oracle_report(graph, sizes, rates, cap=args.cap)
    if args.format == "json":
        _write_output(json.dumps(oracle_report_to_dict(report, args.cap), indent=2) + "\n", args.output)
    else:
        _write_output(render_oracle_text(report, args.cap), args.output)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    graph = load_platform(args.platform)
    rates = synth_rates(graph, args.seed, max_rates=args.max_rates)
    if args.output:
        save_rates(rates, args.output)
    else:
        sys.stdout.write(json.dumps([rate_to_record(r) for r in rates], indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaiccc",
        description="Crosstalk-aware qubit allocation for shared quantum platforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="run the allocation pipeline")
    p_alloc.add_argument("--platform", required=True, help="platform JSON file")
    p_alloc.add_argument("--rates", required=True, help="crosstalk rates JSON file")
    p_alloc.add_argument("--requests", required=True, help="size requests JSON file")
    p_alloc.add_argument("--output", help="write the report here instead of stdout")
    p_alloc.add_argument("--format", choices=("json", "text"), default="json")
    p_alloc.add_argument("--max-population", type=int, default=None)
    p_alloc.add_argument("--max-paths", type=int, default=64)
    p_alloc.add_argument("--no-timings", action="store_true", help="omit timings for reproducible output")
    p_alloc.add_argument("--verbose", action="store_true", help="text format: show the population per rate")
    p_alloc.set_defaults(func=cmd_allocate)

    p_oracle = sub.add_parser("oracle", help="exhaustive validation on a small platform")
    p_oracle.add_argument("--platform", required=True)
    p_oracle.add_argument("--rates", required=True)
    p_oracle.add_argument("--requests", required=True)
    p_oracle.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p_oracle.add_argument("--output", help="write the report here instead of stdout")
    p_oracle.add_argument("--format", choices=("json", "text"), default="json")
    p_oracle.set_defaults(func=cmd_oracle)

    p_synth = sub.add_parser("synth", help="generate a deterministic synthetic rates file")
    p_synth.add_argument("--platform", required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--max-rates", type=int, default=None)
    p_synth.add_argument("--output", help="write the rates here instead of stdout")
    p_synth.set_defaults(func=cmd_synth)
    return parser


_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("QAICCC_LOG", "error").lower()
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS.get(level, logging.ERROR))


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientQubitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_QUBITS
    except NoFeasibleAllocationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ALLOCATION
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QaicccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line front end: allocate, oracle, and synth subcommands.

Exit codes are stable API: 0 success, 1 I/O or parse error or a usage
error on the command line, 2 not enough qubits for the requests, 3 no
feasible allocation, 4 exhaustive enumeration passed its work budget.
Reports are versioned JSON by default; the text format mirrors the
search narrative and, under ``--verbose``, shows the population after
each rate.  The ``QAICCC_LOG`` environment variable (error, info,
debug) controls diagnostic logging on stderr.  Only what ``allocate``
runs is imported up front: ``logging`` is loaded when ``QAICCC_LOG``
asks for info or debug, and the oracle when ``oracle`` runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .allocator import AllocationOutcome, SearchConfig, allocate
from .completion import request_slots
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
    synth_rates,
)
from .model import (
    Allocation, CrosstalkRate, SearchState, SizeRequests, Trust, UserComponent, mask_bits, state_of,
)
# ``rank`` is not called here (``select`` returns its ranking); it stays
# bound because the benchmark's tracer (bench/spans.py) wraps it here.
from .selection import SelectionResult, rank, select  # noqa: F401

if TYPE_CHECKING:
    from .oracle import OracleReport

REPORT_SCHEMA = "qaiccc-report/1"
ORACLE_SCHEMA = "qaiccc-oracle/2"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INSUFFICIENT_QUBITS = 2
EXIT_NO_ALLOCATION = 3
EXIT_TOO_LARGE = 4

#: The exit code of each error class :func:`main` reports, tried in
#: order; any other error, an unreadable file included, gives EXIT_INPUT.
EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (InsufficientQubitsError, EXIT_INSUFFICIENT_QUBITS),
    (NoFeasibleAllocationError, EXIT_NO_ALLOCATION),
    (InstanceTooLargeError, EXIT_TOO_LARGE),
)


# ---------------------------------------------------------------------------
# serialization.  The allocate report is laid out by ``RunReport.json_chunks``,
# the one JSON layout written by hand, in pieces that ``_write_output``
# writes as they come: no piece holds more than one ranking entry, so the
# report is never held whole.  The oracle report and ``synth`` output go
# through ``json.dumps``.  Every command writes through ``_write_output``.
# A report allocation has one checked reader, ``allocation_from_dict`` (its
# rate records: ``ingest.rate_from_record``); a malformed field raises
# InputFileError naming it, e.g. ``'ranking[3].components[0].qubits' repeats
# a qubit``.

_TRUST_VALUES = tuple(t.value for t in Trust)


def _field(data, key: str, where: str, kind: type | None = None):
    """``data[key]`` of the object at ``where``, refused unless it is a ``kind``."""
    if not isinstance(data, Mapping) or key not in data:
        raise InputFileError(f"'{where}' must be an object with '{key}'")
    if kind is not None and not isinstance(data[key], kind):
        raise InputFileError(f"'{where}.{key}' must be a {kind.__name__}")
    return data[key]


def _qubits(value, name: str) -> frozenset[int]:
    return frozenset(integer_list(value, name, distinct=True))


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


def json_scalar(value) -> str:
    """A JSON scalar as ``json.dumps`` writes it."""
    if isinstance(value, float):
        if value - value == 0:  # finite
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _list(texts: Sequence[str], indent: str) -> str:
    """A JSON list of written items, laid out at ``indent`` as ``json.dumps(..., indent=2)`` does."""
    if not texts:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(texts) + "\n" + indent + "]"


def _ints(values: Iterable[int], indent: str) -> str:
    """A JSON list of ints, laid out at ``indent``."""
    return _list([*map(int.__repr__, values)], indent)


def _object(fields: Iterable[tuple[str, str]], indent: str) -> str:
    """A JSON object of ``(key, written value)`` fields, laid out at ``indent``."""
    inner = "\n" + indent + "  "
    texts = [json_scalar(key) + ": " + text for key, text in fields]
    return "{" + inner + ("," + inner).join(texts) + "\n" + indent + "}" if texts else "{}"


class RunReport(NamedTuple):
    """Machine-readable result of one allocate run; the ranking rides on ``selected``.

    :meth:`json_chunks` lays it out in pieces, which the command writes as
    they come (:func:`_write_output`), so the report's text is never held
    whole; its largest piece is one ranking entry or the part before the
    ranking.
    """

    sizes: SizeRequests
    config: SearchConfig
    selected: SelectionResult
    timings: Mapping[str, float] | None

    def json_chunks(self) -> Iterator[str]:
        """The report, in pieces, in the ``REPORT_SCHEMA`` layout ``json.dumps(..., indent=2)`` writes.

        The fixed schema is written straight from the report, with no dict
        tree in between, and handed on in the order it is laid out:
        everything before the ranking, then each ranking entry, then the
        tail.  Joined, the pieces are the report; written one by one
        (:func:`_write_output`), they never hold more than one ranking
        entry at a time.  Within one report the text of each distinct rate
        record and component, at its indent, is written once: the ranking
        repeats the same few rates on hundreds of entries.  A rate's text is
        kept by the record object, which the report holds, not by its value:
        rates that compare equal can read differently (scores ``0.0`` and
        ``-0.0``).
        """
        rates: dict[tuple[int, str], str] = {}
        components: dict[tuple[Trust, frozenset[int]], str] = {}

        def rate(record: CrosstalkRate, indent: str) -> str:
            key = (id(record), indent)
            text = rates.get(key)
            if text is None:
                inner = indent + "  "
                text = rates[key] = _object(
                    (
                        ("score", json_scalar(record.score)),
                        ("impacting", _ints(sorted(record.impacting), inner)),
                        ("impacted", _ints(sorted(record.impacted), inner)),
                    ),
                    indent,
                )
            return text

        def component(comp: UserComponent) -> str:
            """A component at the one indent every component of the report sits at."""
            key = (comp.trust, comp.qubits)
            text = components.get(key)
            if text is None:
                qubits = _ints(sorted(comp.qubits), " " * 10)
                text = components[key] = _object(
                    (("trust", json_scalar(comp.trust.value)), ("qubits", qubits)), " " * 8
                )
            return text

        def allocation(alloc: Allocation) -> str:
            """An allocation at the one indent every allocation of the report sits at."""
            held = _list([component(c) for c in alloc.components], " " * 6)
            incidental = _list([rate(r, " " * 8) for r in alloc.incidental], " " * 6)
            last = "null" if alloc.last_rate is None else rate(alloc.last_rate, " " * 6)
            return (
                f'{{\n      "unallocated": {_ints(sorted(alloc.unallocated), " " * 6)},'
                f'\n      "components": {held},'
                f'\n      "score": {json_scalar(alloc.score)},'
                f'\n      "penalty": {json_scalar(alloc.penalty)},'
                f'\n      "incidental": {incidental},'
                f'\n      "last_rate": {last}\n    }}'
            )

        sizes, selected = self.sizes, self.selected
        bound = selected.assignment
        counts = (("trusted", len(sizes.trusted)), ("untrusted", len(sizes.untrusted)))
        assignment = [
            (kind, _list([_ints(sorted(bound[kind, i]), " " * 8) for i in range(count)], " " * 6))
            for kind, count in counts
        ]
        idle = "null" if sizes.idle_size is None else _ints(sorted(bound["idle", 0]), " " * 6)
        assignment.append(("idle", idle))
        fields = [
            ("schema", json_scalar(REPORT_SCHEMA)),
            ("requests", _object(
                (
                    ("trusted", _ints(sizes.trusted, "    ")),
                    ("untrusted", _ints(sizes.untrusted, "    ")),
                    ("idle", json_scalar(sizes.idle_size)),
                ),
                "  ",
            )),
            ("config", _object(
                (
                    ("max_population", json_scalar(self.config.max_population)),
                    ("max_paths_per_connect", json_scalar(self.config.max_paths_per_connect)),
                ),
                "  ",
            )),
            ("selected", _object(
                (
                    ("allocation", allocation(selected.allocation)),
                    ("assignment", _object(assignment, "    ")),
                ),
                "  ",
            )),
            ("worklist", _list([rate(r, "    ") for r in selected.worklist], "  ")),
        ]
        # ``_object(fields, "")`` up to the ranking, whose list is laid out as ``_list`` does.
        head = "".join(json_scalar(key) + ": " + text + ",\n  " for key, text in fields)
        yield "{\n  " + head + '"ranking": '
        separator = "[\n    "
        for alloc in selected.ranking:
            yield separator + allocation(alloc)
            separator = ",\n    "
        yield "[]" if not selected.ranking else "\n  ]"
        if self.timings is not None:
            timings = _object([(k, json_scalar(v)) for k, v in self.timings.items()], "  ")
            yield ',\n  "timings": ' + timings
        yield "\n}"


def oracle_report_to_dict(report: OracleReport) -> dict:
    return {
        "schema": ORACLE_SCHEMA,
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


def format_structure(state: SearchState) -> str:
    """A state's components, then its free qubits, each as ``name{q,...}``."""
    free, components = state
    parts = [(trust.value, mask) for trust, mask in components]
    if free:
        parts.append(("free", free))
    text = " ".join(f"{name}{{{','.join(map(str, mask_bits(mask)))}}}" for name, mask in parts)
    return text or "(empty)"


def render_text(report: RunReport, outcome: AllocationOutcome, verbose: bool) -> Iterator[str]:
    """The text view of an allocate run, one line (ending in a newline) at a time."""
    sizes = report.sizes
    yield (
        f"requests: trusted={list(sizes.trusted)} untrusted={list(sizes.untrusted)} "
        f"idle={sizes.idle_size if sizes.idle_size is not None else '-'}\n"
    )
    yield f"rates: {len(outcome.rates)} (processed in decreasing score order)\n"
    if verbose:
        for step_index, step in enumerate(outcome.steps, start=1):
            yield f"rate {step_index}/{len(outcome.rates)}: {format_rate(step.rate)}\n"
            for state, _ in step.archived:
                yield f"  archived: {format_structure(state)}\n"
            yield f"  population ({len(step.population)}):\n"
            for state, member in step.population:
                yield (
                    f"    {format_structure(state)} "
                    f"score={member.score!r} penalty={member.penalty!r}\n"
                )
        if outcome.halted:
            yield "population empty: search stopped\n"
    selected = report.selected
    yield (
        f"selected: {format_structure(state_of(selected.allocation))} "
        f"score={selected.allocation.score!r} penalty={selected.allocation.penalty!r}\n"
    )
    yield "assignment:\n"
    for label, trust, size in request_slots(sizes):
        kind, position = label
        qubits = sorted(selected.assignment[label])
        yield f"  {kind}[{position}] (size {size}, {trust.value}): {qubits}\n"
    yield f"noise worklist ({len(selected.worklist)}):\n"
    for rate in selected.worklist:
        yield f"  {format_rate(rate)}\n"
    yield f"ranking ({len(selected.ranking)}):\n"
    for position, allocation in enumerate(selected.ranking, start=1):
        last = f"last={allocation.last_rate.score!r}" if allocation.last_rate else "last=-"
        yield (
            f"  {position}. {format_structure(state_of(allocation))} "
            f"score={allocation.score!r} penalty={allocation.penalty!r} {last}\n"
        )
    if report.timings is not None:
        for stage, seconds in report.timings.items():
            yield f"timing {stage}: {seconds:.6f}s\n"


def render_oracle_text(report: OracleReport) -> Iterator[str]:
    """The text view of an oracle report, one line (ending in a newline) at a time."""
    yield f"complete allocations: {report.complete_count}\n"
    yield f"optimum safe prefix: {report.optimum_safe_prefix}\n"
    yield f"algorithm safe prefix: {report.algorithm_safe_prefix}\n"
    yield f"gap: {report.gap}\n"
    yield f"optimum witnesses: {len(report.optimum_allocations)}\n"


# ---------------------------------------------------------------------------
# commands

def _write_output(chunks: Iterable[str], output: str | None) -> None:
    """Write ``chunks`` in order to the file ``output``, or to stdout, each as it comes.

    No chunk is joined to another first, so a report is never held whole.
    The file is opened here, after the command's work has succeeded: a
    failing command leaves no file.
    """
    if not output:
        sys.stdout.writelines(chunks)
        return
    with open(output, "w", encoding="utf-8") as out:
        out.writelines(chunks)


def cmd_allocate(args: argparse.Namespace) -> int:
    for flag, value in (("--max-paths", args.max_paths), ("--max-population", args.max_population)):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return EXIT_INPUT
    config = SearchConfig(max_population=args.max_population, max_paths_per_connect=args.max_paths)
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
        chunks = itertools.chain(report.json_chunks(), ("\n",))
    else:
        chunks = render_text(report, outcome, args.verbose)
    _write_output(chunks, args.output)
    return EXIT_OK


def oracle_report(*args, **kwargs) -> OracleReport:
    """:func:`qaiccc.oracle.oracle_report`, whose module is loaded on the first call.

    ``allocate`` never runs the oracle, so it does not pay for loading it.
    :func:`cmd_oracle` looks this name up here, where the benchmark's
    tracer (bench/spans.py) wraps it.
    """
    from .oracle import oracle_report

    return oracle_report(*args, **kwargs)


def cmd_oracle(args: argparse.Namespace) -> int:
    graph = load_platform(args.platform)
    rates = load_rates(args.rates, graph)
    sizes = load_requests(args.requests)
    report = oracle_report(graph, sizes, rates)
    if args.format == "json":
        _write_output((json.dumps(oracle_report_to_dict(report), indent=2), "\n"), args.output)
    else:
        _write_output(render_oracle_text(report), args.output)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    graph = load_platform(args.platform)
    try:
        rates = synth_rates(graph, args.seed, max_rates=args.max_rates)
    except ValueError as exc:
        print(f"error: --max-rates: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write_output((json.dumps([rate_to_record(r) for r in rates], indent=2), "\n"), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it holds no run data."""
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
    defaults = SearchConfig()
    p_alloc.add_argument("--max-population", type=int, default=defaults.max_population)
    p_alloc.add_argument("--max-paths", type=int, default=defaults.max_paths_per_connect)
    p_alloc.add_argument("--no-timings", action="store_true", help="omit timings for reproducible output")
    p_alloc.add_argument("--verbose", action="store_true", help="text format: show the population per rate")

    p_oracle = sub.add_parser("oracle", help="exhaustive validation on a small platform")
    p_oracle.add_argument("--platform", required=True)
    p_oracle.add_argument("--rates", required=True)
    p_oracle.add_argument("--requests", required=True)
    p_oracle.add_argument("--output", help="write the report here instead of stdout")
    p_oracle.add_argument("--format", choices=("json", "text"), default="json")

    p_synth = sub.add_parser("synth", help="generate a deterministic synthetic rates file")
    p_synth.add_argument("--platform", required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--max-rates", type=int, default=None)
    p_synth.add_argument("--output", help="write the rates here instead of stdout")
    return parser


def _setup_logging() -> None:
    """Log the package to stderr at the level ``QAICCC_LOG`` names now, on every call.

    ``basicConfig`` adds the handler once per process, so the level is set
    on the package's logger each time instead.  ``logging`` is loaded only
    when ``QAICCC_LOG`` names ``info`` or ``debug``; once loaded, by an
    earlier call or by the caller, the level is set on every call.
    """
    level = os.environ.get("QAICCC_LOG", "error").lower()
    if level not in ("info", "debug") and "logging" not in sys.modules:
        return
    import logging

    logging.basicConfig(stream=sys.stderr)
    levels = {"info": logging.INFO, "debug": logging.DEBUG}
    logging.getLogger("qaiccc").setLevel(levels.get(level, logging.ERROR))


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written the usage error, or the help
        return EXIT_INPUT if exc.code else EXIT_OK
    # Looked up at call time, so a wrapper bound to the module name sees every call.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (OSError, QaicccError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in EXIT_CODES if isinstance(exc, kind)), EXIT_INPUT)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

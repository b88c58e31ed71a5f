"""Loading and saving platforms, size requests, and crosstalk rates.

All files are UTF-8 JSON:

* platform: ``{"qubits": N, "edges": [[a, b], ...]}``
* requests: ``{"trusted": [sizes...], "untrusted": [sizes...]}``
* rates: a JSON array of records, each with integer arrays ``impacting``
  and ``impacted`` plus either a precomputed ``score`` or the pair
  ``stochastic`` + ``hamiltonian`` whose sum is the composite score.

Saved files are written by ``json.dumps(..., indent=2)``.  Reading is
strict: a file that is not UTF-8, not JSON, or nested too deeply to
parse is an :class:`~qaiccc.errors.InputFileError` naming the file.
Rates keep their file order here; sorting in decreasing score order is
the allocator's job.
A deterministic synthetic generator stands in for the physical crosstalk
measurement so the allocator can be exercised without lab data.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path
from typing import Iterable

from .completion import connected_subsets
from .errors import InputFileError
from .model import ConnectivityGraph, CrosstalkRate, SizeRequests, check_score_total, is_int

_RATE_SHAPES = ((1, 1), (2, 1), (2, 2))
_SCORE_RANGE = (1e-4, 1e-2)

#: Largest ``qubits`` value :func:`load_platform` accepts, checked before
#: the graph builds any per-qubit table.
MAX_QUBITS = 4096


def composite_score(stochastic: float, hamiltonian: float) -> float:
    """Composite error rate: the sum of the stochastic and hamiltonian rates."""
    if stochastic < 0 or hamiltonian < 0:
        raise ValueError("error rates must be non-negative")
    return stochastic + hamiltonian


def _read_json(path: str | Path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFileError(str(exc), path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise InputFileError(f"not UTF-8: {exc}", path=str(path)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFileError(f"invalid JSON: {exc}", path=str(path)) from exc
    except RecursionError as exc:
        raise InputFileError("invalid JSON: nested too deeply to parse", path=str(path)) from exc


def _refuse_unknown_keys(data: dict, known: tuple[str, ...], path: str | Path) -> None:
    """Refuse a top-level key outside ``known``: a misspelt key must not pass as absent."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise InputFileError(
            f"unknown key {unknown[0]!r}; expected only {', '.join(map(repr, known))}",
            path=str(path),
        )


def load_platform(path: str | Path) -> ConnectivityGraph:
    data = _read_json(path)
    if not isinstance(data, dict) or "qubits" not in data:
        raise InputFileError("platform file must be an object with 'qubits'", path=str(path))
    _refuse_unknown_keys(data, ("qubits", "edges"), path)
    qubits = data["qubits"]
    edges = data.get("edges", [])
    if not is_int(qubits):
        raise InputFileError("'qubits' must be an integer", path=str(path))
    if qubits > MAX_QUBITS:
        raise InputFileError(f"'qubits' is {qubits}, above the limit of {MAX_QUBITS}", path=str(path))
    if not isinstance(edges, list):
        raise InputFileError("'edges' must be a list of pairs", path=str(path))
    pairs = set()
    for i, edge in enumerate(edges):
        if not isinstance(edge, list) or len(edge) != 2 or not all(is_int(q) for q in edge):
            raise InputFileError(f"edge {i} must be a pair of integers", path=str(path))
        pairs.add((edge[0], edge[1]))
    try:
        return ConnectivityGraph(qubits, frozenset(pairs))
    except ValueError as exc:
        raise InputFileError(str(exc), path=str(path)) from exc


def save_platform(graph: ConnectivityGraph, path: str | Path) -> None:
    payload = {"qubits": graph.vertex_count, "edges": [list(e) for e in sorted(graph.edges)]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def integer_list(
    values, name: str, *, distinct: bool = False, path: str | None = None, record: int | None = None
) -> tuple[int, ...]:
    """``values`` as integers, else an error naming ``name``; ``distinct`` refuses repeats."""
    if not isinstance(values, list) or not all(is_int(v) for v in values):
        raise InputFileError(f"'{name}' must be a list of integers", path=path, record=record)
    if distinct and len(set(values)) != len(values):
        raise InputFileError(f"'{name}' repeats a qubit", path=path, record=record)
    return tuple(values)


def load_requests(path: str | Path) -> SizeRequests:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputFileError("requests file must be an object", path=str(path))
    _refuse_unknown_keys(data, ("trusted", "untrusted"), path)
    try:
        return SizeRequests(
            trusted=integer_list(data.get("trusted", []), "trusted", path=str(path)),
            untrusted=integer_list(data.get("untrusted", []), "untrusted", path=str(path)),
        )
    except ValueError as exc:
        raise InputFileError(str(exc), path=str(path)) from exc


def save_requests(sizes: SizeRequests, path: str | Path) -> None:
    payload = {"trusted": list(sizes.trusted), "untrusted": list(sizes.untrusted)}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def finite_number(value, name: str, *, path: str | None = None, record: int | None = None) -> float:
    """``value`` as a float if finite and non-negative (``json.loads`` lets NaN and Infinity in).

    An integer past the largest float counts as not finite.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not 0 <= value <= sys.float_info.max:
        raise InputFileError(f"'{name}' must be a finite non-negative number", path=path, record=record)
    return float(value)


def _resolve_score(record: dict, index: int | None, path) -> float:
    has_score = "score" in record
    has_parts = "stochastic" in record or "hamiltonian" in record
    if has_score and has_parts:
        raise InputFileError(
            "give either 'score' or 'stochastic'+'hamiltonian', not both", path=path, record=index
        )
    if has_score:
        return finite_number(record["score"], "score", path=path, record=index)
    if "stochastic" not in record or "hamiltonian" not in record:
        raise InputFileError(
            "record needs 'score' or both 'stochastic' and 'hamiltonian'", path=path, record=index
        )
    return composite_score(
        *(finite_number(record[k], k, path=path, record=index) for k in ("stochastic", "hamiltonian"))
    )


def rate_from_record(record, index: int | None = None, path: str | None = None) -> CrosstalkRate:
    """One rate record, checked without a platform: qubit lists, score and shape.

    Errors are :class:`InputFileError` naming ``path`` and ``index`` when given.
    """
    if not isinstance(record, dict):
        raise InputFileError("record must be an object", path=path, record=index)
    impacting, impacted = (
        frozenset(integer_list(record.get(key), key, distinct=True, path=path, record=index))
        for key in ("impacting", "impacted")
    )
    score = _resolve_score(record, index, path)
    try:
        return CrosstalkRate(score, impacting, impacted)
    except ValueError as exc:
        raise InputFileError(str(exc), path=path, record=index) from exc


def load_rates(path: str | Path, graph: ConnectivityGraph) -> tuple[CrosstalkRate, ...]:
    """Parse a rates file against ``graph``, preserving file order.

    Every record passes :func:`rate_from_record` and is then checked
    against the platform: known qubits, a connected qubit group, and no
    duplicate (impacting, impacted) pair.  Errors carry the record index.
    The scores, summed in processing order, must stay below the largest
    float (:func:`~qaiccc.model.check_score_total`).
    """
    data = _read_json(path)
    if not isinstance(data, list):
        raise InputFileError("rates file must be a JSON array of records", path=str(path))
    rates: list[CrosstalkRate] = []
    seen_pairs: dict[tuple, int] = {}
    for index, record in enumerate(data):
        rate = rate_from_record(record, index, str(path))
        for key, group in (("impacting", rate.impacting), ("impacted", rate.impacted)):
            invalid = [q for q in group if not 0 <= q < graph.vertex_count]
            if invalid:
                raise InputFileError(
                    f"'{key}' names unknown qubits {sorted(invalid)}", path=str(path), record=index
                )
        if not graph.is_connected(rate.involved):
            raise InputFileError(
                f"qubit group {sorted(rate.involved)} is not connected on the platform",
                path=str(path),
                record=index,
            )
        pair = (tuple(sorted(rate.impacting)), tuple(sorted(rate.impacted)))
        if pair in seen_pairs:
            raise InputFileError(
                f"duplicate of record {seen_pairs[pair]} (same impacting/impacted pair)",
                path=str(path),
                record=index,
            )
        seen_pairs[pair] = index
        rates.append(rate)
    try:
        check_score_total(rates)
    except ValueError as exc:
        raise InputFileError(str(exc), path=str(path)) from exc
    return tuple(rates)


def rate_to_record(rate: CrosstalkRate) -> dict:
    return {
        "score": rate.score,
        "impacting": sorted(rate.impacting),
        "impacted": sorted(rate.impacted),
    }


def save_rates(rates: Iterable[CrosstalkRate], path: str | Path) -> None:
    payload = [rate_to_record(rate) for rate in rates]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def synth_rates(
    graph: ConnectivityGraph, seed: int, max_rates: int | None = None
) -> tuple[CrosstalkRate, ...]:
    """Deterministic synthetic rate list for a platform.

    Emits one rate per connected qubit group per shape (1-to-1 over pairs,
    2-to-1 over triples, 2-to-2 over quadruples), with the split between
    impacting and impacted qubits and the score drawn from a seeded
    stream.  Identical ``(graph, seed)`` always yields the identical list.
    A negative ``max_rates`` raises ``ValueError``.
    """
    if max_rates is not None and max_rates < 0:
        raise ValueError(f"max_rates must be at least 0, got {max_rates}")
    rng = random.Random(seed)
    rates: list[CrosstalkRate] = []
    for impacting_count, impacted_count in _RATE_SHAPES:
        group_size = impacting_count + impacted_count
        groups = sorted(
            tuple(sorted(group))
            for group in connected_subsets(graph.qubits, group_size, graph)
        )
        for group in groups:
            if max_rates is not None and len(rates) >= max_rates:
                return tuple(rates)
            splits = [
                (frozenset(combo), frozenset(group) - frozenset(combo))
                for combo in itertools.combinations(group, impacting_count)
            ]
            impacting, impacted = rng.choice(splits)
            score = rng.uniform(*_SCORE_RANGE)
            rates.append(CrosstalkRate(score, impacting, impacted))
    return tuple(rates)

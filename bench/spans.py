"""Per-layer tracing by wrapping the package's functions from outside.

Modules bind their collaborators with ``from .x import y``, so patching
``y`` in its home module does not reach the callers: every wrapper is
installed at the import site the caller actually looks the name up in.
Each call records a span (name, parent span, start, end, two measured
values) in flat in-memory arrays; self time and the derived counters
(``connect`` calls that hit the path cap, completion-cache hits) are
computed from the spans after the run, in :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter


def _length(args, result):
    return len(result), 0


def _truth(args, result):
    return 1 if result else 0, 0


def _not_none(args, result):
    return 1 if result is not None else 0, 0


def _offered_and_population(args, result):
    return len(args[0]), len(args[1])


def _archive_length(args, result):
    return len(args[2]), 0


# (module, attribute, span name, measured values).  A class attribute is
# written as "module:Class".
SITES = (
    ("qaiccc.allocator", "connect", "allocator.connect", _length),
    ("qaiccc.allocator", "new_alloc", "allocator.new_alloc", _not_none),
    ("qaiccc.allocator", "alloc_unallocated", "allocator.alloc_unallocated", _length),
    ("qaiccc.allocator", "alloc_impacted", "allocator.alloc_impacted", _length),
    ("qaiccc.allocator", "improve_alloc", "allocator.improve_alloc", _length),
    ("qaiccc.allocator", "alloc_trusted", "allocator.alloc_trusted", _length),
    ("qaiccc.allocator", "update_population", "allocator.update_population", _offered_and_population),
    ("qaiccc.allocator", "replay_attributes", "allocator.replay_attributes", _not_none),
    ("qaiccc.allocator", "archive_alloc", "allocator.archive_alloc", _archive_length),
    ("qaiccc.allocator", "can_complete", "completion.can_complete", _truth),
    ("qaiccc.allocator", "is_safe", "safety.is_safe", None),
    ("qaiccc.allocator", "involved_parties", "safety.involved_parties", None),
    ("qaiccc.allocator", "allocation_feasible", "sizing.allocation_feasible", _truth),
    ("qaiccc.allocator", "remain", "sizing.remain", None),
    ("qaiccc.allocator", "canonicalize", "model.canonicalize", None),
    ("qaiccc.allocator", "dedup_allocations", "model.dedup_allocations", None),
    ("qaiccc.model", "canonicalize", "model.canonicalize", None),
    ("qaiccc.model:ConnectivityGraph", "is_connected", "model.is_connected", None),
    ("qaiccc.selection", "complete_allocation", "completion.complete_allocation", None),
    ("qaiccc.selection", "rank", "selection.rank", None),
    ("qaiccc.cli", "allocate", "allocator.allocate", None),
    ("qaiccc.cli", "select", "selection.select", None),
    ("qaiccc.cli", "rank", "selection.rank", None),
    ("qaiccc.cli", "load_platform", "ingest.load_platform", None),
    ("qaiccc.cli", "load_rates", "ingest.load_rates", None),
    ("qaiccc.cli", "load_requests", "ingest.load_requests", None),
    ("qaiccc.cli", "cmd_allocate", "cli.cmd_allocate", None),
    ("qaiccc.cli", "cmd_oracle", "cli.cmd_oracle", None),
    ("qaiccc.cli", "oracle_report", "oracle.oracle_report", None),
    ("qaiccc.oracle", "allocate", "allocator.allocate", None),
    ("qaiccc.oracle", "select", "selection.select", None),
    ("qaiccc.oracle", "enumerate_complete", "oracle.enumerate_complete", _length),
)


def _owner(site: str):
    module_name, _, class_name = site.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.value2 = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, measure):
        code = self._code(name)
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        value, value2 = self.value, self.value2

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(parent)
            name_of.append(code)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            value.append(0.0)
            value2.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if measure is not None:
                value[span], value2[span] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        for site, attribute, name, measure in SITES:
            owner = _owner(site)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, measure))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class _Stat:
    __slots__ = ("calls", "total", "self_time", "value", "value_max", "value2_max")

    def __init__(self) -> None:
        self.calls = 0
        self.total = self.self_time = self.value = self.value_max = self.value2_max = 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, max_paths_per_connect: int) -> dict[str, float]:
    """Per-layer counts and times, named ``<module>.<function>.<stat>``."""
    count = len(tracer.parent)
    names = tracer.names
    # A name never recorded gets code -1, which no span carries.
    code = {name: i for i, name in enumerate(names)}
    connect, new_alloc, feasible, select, complete, replay = (code.get(name, -1) for name in (
        "allocator.connect", "allocator.new_alloc", "sizing.allocation_feasible",
        "selection.select", "completion.complete_allocation", "allocator.replay_attributes",
    ))
    duration = [tracer.end[i] - tracer.start[i] for i in range(count)]
    child_time = [0.0] * count
    new_alloc_children = [0] * count
    for i in range(count):
        p = tracer.parent[i]
        if p >= 0:
            child_time[p] += duration[i]
            if tracer.name_of[i] == new_alloc:
                new_alloc_children[p] += 1

    stats = {name: _Stat() for name in names}
    capped = regions = feasible_in_new_alloc = tried = admitted = 0
    for i in range(count):
        n = tracer.name_of[i]
        s = stats[names[n]]
        s.calls += 1
        s.total += duration[i]
        s.self_time += duration[i] - child_time[i]
        s.value += tracer.value[i]
        s.value_max = max(s.value_max, tracer.value[i])
        s.value2_max = max(s.value2_max, tracer.value2[i])
        p = tracer.parent[i]
        parent_name = tracer.name_of[p] if p >= 0 else -1
        if n == connect:
            regions += new_alloc_children[i]
            capped += new_alloc_children[i] >= max_paths_per_connect
        elif n == feasible:
            feasible_in_new_alloc += parent_name == new_alloc and tracer.value[i] > 0
        elif n == complete:
            tried += parent_name == select
        elif n == replay:
            admitted += tracer.value[i] > 0

    def get(name: str) -> _Stat:
        return stats.get(name) or _Stat()

    out: dict[str, float] = {}
    for name in (
        "completion.can_complete", "allocator.update_population", "allocator.replay_attributes",
        "allocator.archive_alloc", "model.canonicalize", "model.dedup_allocations",
        "allocator.connect", "model.is_connected", "allocator.new_alloc", "safety.is_safe",
        "sizing.allocation_feasible", "sizing.remain",
    ):
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.self_s"] = get(name).self_time
    misses = get("completion.can_complete").calls
    out["completion.can_complete.true_ratio"] = _ratio(get("completion.can_complete").value, misses)
    out["completion.cache_hit_ratio"] = _ratio(feasible_in_new_alloc - misses, feasible_in_new_alloc)
    population = get("allocator.update_population")
    out["allocator.update_population.offered"] = population.value
    out["allocator.update_population.admit_ratio"] = _ratio(admitted, population.value)
    out["allocator.update_population.population_peak"] = population.value2_max
    replay = get("allocator.replay_attributes")
    out["allocator.replay_attributes.reject_ratio"] = _ratio(replay.calls - replay.value, replay.calls)
    out["allocator.archive_size"] = get("allocator.archive_alloc").value_max
    connect = get("allocator.connect")
    out["allocator.connect.regions"] = regions
    out["allocator.connect.capped"] = capped
    out["allocator.connect.yield_ratio"] = _ratio(connect.value, regions)
    new_alloc = get("allocator.new_alloc")
    out["allocator.new_alloc.accept_ratio"] = _ratio(new_alloc.value, new_alloc.calls)
    for operator in ("alloc_unallocated", "alloc_impacted", "improve_alloc", "alloc_trusted"):
        s = get(f"allocator.{operator}")
        out[f"allocator.{operator}.calls"] = s.calls
        out[f"allocator.{operator}.candidates"] = s.value
        out[f"allocator.{operator}.total_s"] = s.total
    out["safety.involved_parties.calls"] = get("safety.involved_parties").calls
    out["allocator.allocate.total_s"] = get("allocator.allocate").total
    out["selection.select.total_s"] = get("selection.select").total
    out["selection.select.tried"] = tried
    out["selection.rank.self_s"] = get("selection.rank").self_time
    out["cli.cmd_allocate.self_s"] = get("cli.cmd_allocate").self_time
    for loader in ("load_platform", "load_rates", "load_requests"):
        out[f"ingest.{loader}.total_s"] = get(f"ingest.{loader}").total
    enumerate_complete = get("oracle.enumerate_complete")
    out["oracle.enumerate_complete.total_s"] = enumerate_complete.total
    out["oracle.enumerate_complete.partitions"] = enumerate_complete.value
    out["oracle.oracle_report.total_s"] = get("oracle.oracle_report").total
    out["trace.spans"] = count
    return out

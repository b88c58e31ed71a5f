"""Time ``qaiccc allocate`` at device scale: heavy-hex 27, untrusted (5,5,5) by default, no cap.

Usage::

    python tools/device_scale.py [TREE ...] [--k K ...] [--untrusted SIZES] [--profile N]

Each tree is a checkout holding ``src/qaiccc`` (default: the tree this
script lives in).  The instance is the IBM Falcon heavy-hex layout of 27
qubits, the untrusted requests ``--untrusted`` names as comma-separated
sizes (default ``5,5,5``; ``4,4,4,4`` and ``3,3,3`` are the other rows
the ROADMAP measures), and the ``k`` highest-scored rates of
``synth_rates(graph, 7)``, searched with the default
``SearchConfig``.  For every ``k`` given (default 1 and 2; repeat a value
to measure it again) and every tree, a fresh interpreter writes the
instance's files to a temporary directory and runs the whole command
through ``qaiccc.cli.main``: ``allocate``, then ``select``, then the
JSON report streamed to a temporary file (``--output``,
``--no-timings``).  With several trees their order alternates from one
``k`` to the next, so a drift of the host does not favour one tree.  One
line per run gives the seconds ``allocate`` took, the final population
and archive sizes, the interpreter's peak resident memory (``VmHWM``;
blank where ``/proc`` does not provide it) once ``allocate`` has
returned (``peak_rss_mb``), the seconds from ``allocate``'s return to
``select``'s, which ranks the members and builds an allocation for each
entry it walks (``select_s``), the seconds from ``select``'s return to the
end of the command, which writes the report (``report_s``), the peak
resident memory at the end of the command (``report_peak_rss_mb``), and
the entry count of each table of the run's ``allocator.SearchMemo`` as
the memo is freed (``-`` for a table the tree does not have), then the
number of complete structures in the memo's completion index (``-`` when
the run fell back to the decider, or the tree has no index).  The memo is
only counted, through a ``__del__`` the child installs, not kept: it is
freed when the search releases it, as in the command.  Children run with ``PYTHONDONTWRITEBYTECODE=1``, so no run
leaves a ``__pycache__`` in a tree to speed up the next one.  With
``--profile N`` the ``allocate`` call of each run is made under the
standard library's ``cProfile`` (so its seconds include the profiler's
overhead) and is followed by the ``N`` functions with the most self
time: self seconds, cumulative seconds, calls and the function.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Heavy-hex 27 (IBM Falcon), the layout the ROADMAP measures.
EDGES = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10), (8, 9),
    (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14), (14, 16), (15, 18),
    (16, 19), (17, 18), (18, 21), (19, 20), (19, 22), (21, 23), (22, 25), (23, 24),
    (24, 25), (25, 26),
)

#: The ``allocator.SearchMemo`` tables whose entry counts a run line gives.
MEMO_TABLES = ("states", "verdicts", "joins", "shapes", "budgets", "bases", "reaches", "regions")

CHILD = """
import cProfile, json, os, pstats, sys, tempfile, time
from pathlib import Path
from qaiccc import ConnectivityGraph, SizeRequests, allocator, cli, sort_rates, synth_rates
from qaiccc.ingest import save_platform, save_rates, save_requests

edges, k, untrusted, profile, tables = json.loads(sys.argv[1])


def peak_mb():
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) / 1024 for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None


freed = []
if hasattr(allocator, "SearchMemo"):

    def recording(memo):
        sizes = {name: len(getattr(memo, name)) if hasattr(memo, name) else None for name in tables}
        index = getattr(memo, "index", None)
        freed.append((sizes, None if index is None else index.count))

    # Counted as the memo is freed, so the run holds it no longer than the command does.
    allocator.SearchMemo.__del__ = recording
profiler = cProfile.Profile() if profile else None
run = {}
allocate, select = cli.allocate, cli.select


def measured_allocate(*args):
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    outcome = allocate(*args)
    if profiler is not None:
        profiler.disable()
    run["seconds"] = time.perf_counter() - start
    run["peak_rss_mb"] = peak_mb()
    run["population"], run["archive"] = len(outcome.population), len(outcome.archive)
    run["memo"], run["index"] = freed.pop() if freed else (dict.fromkeys(tables), None)
    run["allocated"] = time.perf_counter()
    return outcome


def measured_select(*args):
    selected = select(*args)
    run["selected"] = time.perf_counter()
    run["select_s"] = run["selected"] - run.pop("allocated")
    return selected


cli.allocate, cli.select = measured_allocate, measured_select
graph = ConnectivityGraph(27, frozenset(map(tuple, edges)))
with tempfile.TemporaryDirectory() as work:
    names = ("platform", "rates", "requests", "report")
    paths = {name: os.path.join(work, f"{name}.json") for name in names}
    save_platform(graph, paths["platform"])
    save_rates(sort_rates(synth_rates(graph, 7))[:k], paths["rates"])
    save_requests(SizeRequests(untrusted=tuple(untrusted)), paths["requests"])
    argv = ["allocate", "--no-timings", "--output", paths["report"]]
    for name in ("platform", "rates", "requests"):
        argv += [f"--{name}", paths[name]]
    code = cli.main(argv)
    run["report_s"] = time.perf_counter() - run.pop("selected")
    run["report_peak_rss_mb"] = peak_mb()
if code != 0:
    sys.exit(f"allocate exited {code}")
top = []
if profiler is not None:
    stats = pstats.Stats(profiler).sort_stats("tottime")
    for function in stats.fcn_list[:profile]:
        _, calls, self_s, total_s, _ = stats.stats[function]
        path, line, name = function
        where = f"{Path(path).name}:{line}({name})" if line else name
        top.append([self_s, total_s, calls, where])
run["profile"] = top
print(json.dumps(run))
"""


def measure(tree: Path, k: int, profile: int = 0, untrusted: tuple[int, ...] = (5, 5, 5)) -> dict:
    """One ``qaiccc allocate`` run of the top-``k`` instance on ``tree``, in a fresh interpreter.

    The requests are the ``untrusted`` sizes.
    With ``profile`` above 0 the run is profiled, and the result's
    ``profile`` entry lists that many of its functions with the most self
    time, each as ``[self_s, total_s, calls, function]``.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([EDGES, k, untrusted, profile, MEMO_TABLES])],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def sizes(text: str) -> tuple[int, ...]:
    """Comma-separated positive request sizes, such as ``5,5,5``."""
    try:
        parsed = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of sizes")
    if min(parsed) < 1 or sum(parsed) > 27:
        raise argparse.ArgumentTypeError(f"{text!r} must be sizes of at least 1 that fit 27 qubits")
    return parsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="source trees holding src/qaiccc")
    parser.add_argument("--k", type=int, nargs="+", default=[1, 2], help="rates kept (default 1 2)")
    parser.add_argument(
        "--untrusted", type=sizes, default=(5, 5, 5), metavar="SIZES",
        help="untrusted request sizes, comma-separated (default 5,5,5)",
    )
    parser.add_argument(
        "--profile", type=int, default=0, metavar="N",
        help="profile each run and print its N functions with the most self time",
    )
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees] or [ROOT]
    for tree in trees:
        if not (tree / "src" / "qaiccc").is_dir():
            parser.error(f"{tree} holds no src/qaiccc")
    if min(args.k) < 1:
        parser.error("--k must be at least 1")
    if args.profile < 0:
        parser.error("--profile must be at least 0")

    for turn, k in enumerate(args.k):
        for tree in trees[::-1] if turn % 2 else trees:
            run = measure(tree, k, args.profile, args.untrusted)
            peak, report_peak = (
                "" if mb is None else f"{mb:.1f}"
                for mb in (run["peak_rss_mb"], run["report_peak_rss_mb"])
            )
            tables = " ".join(
                f"{name} {'-' if size is None else size}" for name, size in run["memo"].items()
            )
            index = "-" if run["index"] is None else run["index"]
            print(
                f"k={k} seconds {run['seconds']:.2f} population {run['population']} "
                f"archive {run['archive']} peak_rss_mb {peak} select_s {run['select_s']:.3f} "
                f"report_s {run['report_s']:.2f} "
                f"report_peak_rss_mb {report_peak} memo {tables} index {index} {tree}",
                flush=True,
            )
            for self_s, total_s, calls, function in run["profile"]:
                print(f"  self_s {self_s:7.3f} total_s {total_s:7.3f} calls {calls:>9} {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

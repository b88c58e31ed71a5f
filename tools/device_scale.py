"""Time ``allocate`` at device scale: heavy-hex 27, untrusted (5,5,5), no cap.

Usage::

    python tools/device_scale.py [TREE ...] [--k K ...] [--profile N]

Each tree is a checkout holding ``src/qaiccc`` (default: the tree this
script lives in).  The instance is the IBM Falcon heavy-hex layout of 27
qubits, three untrusted requests of 5 qubits, and the ``k`` highest-scored
rates of ``synth_rates(graph, 7)``, searched with the default
``SearchConfig``.  For every ``k`` given (default 1 and 2; repeat a value
to measure it again) and every tree, ``allocate`` runs in a fresh
interpreter; with several trees their order alternates from one ``k`` to
the next, so a drift of the host does not favour one tree.  One line per
run gives the seconds ``allocate`` took, the final population and archive
sizes, the interpreter's peak resident memory (``VmHWM``; blank where
``/proc`` does not provide it) and the entry count of each table of the
run's ``allocator.SearchMemo`` when the search ends (``-`` for a table the
tree does not have), then the number of complete structures in the memo's
completion index (``-`` when the run fell back to the decider, or the
tree has no index).  Children run with ``PYTHONDONTWRITEBYTECODE=1``, so
no run leaves a ``__pycache__`` in a tree to speed up the next one.  With
``--profile N`` each run is made under the
standard library's ``cProfile`` (so its seconds include the profiler's
overhead) and is followed by the ``N`` functions with the most self
time: self seconds, cumulative seconds, calls and the function.
Standard library only.
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
MEMO_TABLES = ("states", "verdicts", "joins", "shapes", "budgets", "regions")

CHILD = """
import cProfile, json, pstats, sys, time
from pathlib import Path
from qaiccc import ConnectivityGraph, SizeRequests, allocate, allocator, sort_rates, synth_rates

edges, k, profile, tables = json.loads(sys.argv[1])
memos = []
if hasattr(allocator, "SearchMemo"):
    record = allocator.SearchMemo.__init__

    def recording(self, *args, **kwargs):
        record(self, *args, **kwargs)
        memos.append(self)

    allocator.SearchMemo.__init__ = recording
graph = ConnectivityGraph(27, frozenset(map(tuple, edges)))
rates = sort_rates(synth_rates(graph, 7))[:k]
profiler = cProfile.Profile() if profile else None
start = time.perf_counter()
if profiler is not None:
    profiler.enable()
outcome = allocate(graph, SizeRequests(untrusted=(5, 5, 5)), rates)
if profiler is not None:
    profiler.disable()
seconds = time.perf_counter() - start
top = []
if profiler is not None:
    stats = pstats.Stats(profiler).sort_stats("tottime")
    for function in stats.fcn_list[:profile]:
        _, calls, self_s, total_s, _ = stats.stats[function]
        path, line, name = function
        where = f"{Path(path).name}:{line}({name})" if line else name
        top.append([self_s, total_s, calls, where])
peak = None
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) / 1024 for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
memo = memos[-1] if memos else None
sizes = {name: len(getattr(memo, name)) if hasattr(memo, name) else None for name in tables}
index = getattr(memo, "index", None)
print(json.dumps({"seconds": seconds, "population": len(outcome.population),
                  "archive": len(outcome.archive), "peak_rss_mb": peak, "profile": top,
                  "memo": sizes, "index": None if index is None else index.count}))
"""


def measure(tree: Path, k: int, profile: int = 0) -> dict:
    """One ``allocate`` run of the top-``k`` instance on ``tree``, in a fresh interpreter.

    With ``profile`` above 0 the run is profiled, and the result's
    ``profile`` entry lists that many of its functions with the most self
    time, each as ``[self_s, total_s, calls, function]``.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([EDGES, k, profile, MEMO_TABLES])],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="source trees holding src/qaiccc")
    parser.add_argument("--k", type=int, nargs="+", default=[1, 2], help="rates kept (default 1 2)")
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
            run = measure(tree, k, args.profile)
            peak = "" if run["peak_rss_mb"] is None else f"{run['peak_rss_mb']:.1f}"
            tables = " ".join(
                f"{name} {'-' if size is None else size}" for name, size in run["memo"].items()
            )
            index = "-" if run["index"] is None else run["index"]
            print(
                f"k={k} seconds {run['seconds']:.2f} population {run['population']} "
                f"archive {run['archive']} peak_rss_mb {peak} memo {tables} index {index} {tree}",
                flush=True,
            )
            for self_s, total_s, calls, function in run["profile"]:
                print(f"  self_s {self_s:7.3f} total_s {total_s:7.3f} calls {calls:>9} {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

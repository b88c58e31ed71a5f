"""qaiccc benchmark runner (stdlib only).

Usage, from the repository root::

    python3 bench/run.py --workload grid16-complete --seed 1 --seconds 30 --trace 0

The runner generates the workload's instance files from ``--seed`` (see
``workloads.py``), then runs the package from ``src/`` in fresh child
processes (``child.py``):

* several set-up children, each importing the package and ingesting the
  files; their median wall time is ``setup_s``;
* workload passes, one child each, until ``--seconds`` have gone by
  (at least ``MIN_PASSES``); their median wall time is ``wall_s``.  Each
  pass runs the CLI for every instance and every report is checked
  (``checks.py``).  An instance fails on an unexpected exit code, a
  timeout, a failed check, or a report whose hash differs from the first
  pass of the same invocation.

Both times are scaled to a reference machine speed by a calibration loop
timed around them (see ``calibrate``); the raw times go to stderr.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics (``spans.py``) plus the tracing overhead.  Metric names
and units come from ``BENCHMARK.json``; ``bench/layers.json`` says which
end-to-end metric and workload each per-layer metric should move.
Report hashes are compared with ``bench/report_hashes.json``: a
difference is reported on stderr as changed behaviour, not as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 21
SETUP_CALIBRATION_SHARE = 0.2
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 100
# calibrate() takes about this long on the 2-core x86_64 box (Python 3.11) the bounds were set on.
CALIBRATION_REFERENCE_S = 0.5
MAX_PATHS_PER_CONNECT = 64  # the CLI's --max-paths default, which the passes use


_PROBE = frozenset({1, 2, 3})


def calibrate(share: float = 1.0) -> float:
    """Seconds taken by a fixed pure-Python loop of set, tuple and sort work.

    ``share`` runs that part of the loop; the time is scaled up to the
    whole loop.

    The 2-core x86_64 box the bounds were set on changes speed by 20 % and more
    within minutes, and the program's passes slow down with it.  Timing
    this loop next to each pass and dividing it out removes most of that
    drift; the loop is independent of the program, so a change to the
    program moves the scaled times fully.
    """
    start = perf_counter()
    seen = set()
    hits = 0
    for i in range(int(150_000 * share)):
        group = frozenset((i % 97, i % 89, i % 83, i % 7))
        seen.add(group)
        hits += len(group & _PROBE)
    sorted(seen, key=lambda g: tuple(sorted(g)))
    return (perf_counter() - start) / share


def _speed(calibrations: list[float]) -> float:
    """Factor scaling a time measured now to the reference machine speed."""
    return CALIBRATION_REFERENCE_S / statistics.mean(calibrations)


class Child(NamedTuple):
    """Wall time and outcome of one finished child process."""

    wall_s: float
    returncode: int
    timed_out: bool


def run_child(job: dict, work: Path, tag: str) -> Child:
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / f"{tag}.stderr", "wb") as stderr:
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(job_path)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=stderr, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return Child(perf_counter() - start, -signal.SIGKILL, True)
    return Child(perf_counter() - start, proc.returncode, False)


class Workload:
    """Generated instance files plus their checkers."""

    def __init__(self, name: str, seed: int, work: Path):
        import workloads
        from checks import InstanceChecker

        self.name = name
        self.instances = workloads.generate(name, seed)
        self.files = [workloads.write_instance(inst, work / "inputs") for inst in self.instances]
        self.checkers = [InstanceChecker(inst) for inst in self.instances]

    def setup_job(self) -> dict:
        return {
            "mode": "setup",
            "ingest": [[str(f["platform"]), str(f["rates"]), str(f["requests"])] for f in self.files],
        }

    def pass_job(self, out: Path, trace: bool) -> tuple[dict, list[list[Path]]]:
        commands, outputs = [], []
        for inst, files in zip(self.instances, self.files):
            inputs = [
                "--platform", str(files["platform"]),
                "--rates", str(files["rates"]),
                "--requests", str(files["requests"]),
            ]
            mine = [out / f"{inst.name}.allocate.json"]
            commands.append(["allocate", *inputs, "--output", str(mine[0])])
            if inst.oracle:
                mine.append(out / f"{inst.name}.oracle.json")
                commands.append(["oracle", *inputs, "--output", str(mine[1])])
            outputs.append(mine)
        job = {
            "mode": "pass",
            "trace": trace,
            "commands": commands,
            "result": str(out / "result.json"),
            "max_paths_per_connect": MAX_PATHS_PER_CONNECT,
        }
        return job, outputs


class Tally:
    """Pass results of one invocation: timings, failures and quality."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.verdicts = None
        self.walls = {False: [], True: []}
        self.rss: list[float] = []
        self.layers: list[dict] = []

    def run_pass(self, work: Path, index: int, trace: bool) -> float | None:
        """Run and check one pass; its wall time, or None when the child failed."""
        out = work / f"pass{index}"
        out.mkdir()
        job, outputs = self.workload.pass_job(out, trace)
        child = run_child(job, work, f"pass{index}")
        result_path = Path(job["result"])
        result = json.loads(result_path.read_text()) if child.returncode == 0 and result_path.exists() else None
        count = len(self.workload.instances)
        self.attempted += count
        if result is None:
            reason = "timed out" if child.timed_out else f"exited {child.returncode}"
            print(f"pass {index} {reason}; the end of its stderr follows", file=sys.stderr)
            sys.stderr.write((work / f"pass{index}.stderr").read_text(errors="replace")[-2000:])
            self.failed += count
            return None
        codes = iter(result["exit_codes"])
        verdicts = []
        for checker, mine in zip(self.workload.checkers, outputs):
            verdicts.append(checker.check([next(codes) for _ in mine], mine))
        if self.verdicts is None:
            self.verdicts = verdicts
        for inst, verdict, first in zip(self.workload.instances, verdicts, self.verdicts):
            if verdict.digest != first.digest:
                verdict.errors.append("report differs from the first pass (nondeterminism)")
            if verdict.errors:
                self.failed += 1
                for error in verdict.errors[:5]:
                    print(f"pass {index} {inst.name}: {error}", file=sys.stderr)
        self.walls[trace].append(child.wall_s)
        if trace:
            self.layers.append(result["layers"])
        else:
            self.rss.append(result["peak_rss_mb"])
        shutil.rmtree(out)
        return child.wall_s

    def quality(self, field: str) -> float:
        return sum(getattr(v, field) for v in self.verdicts) if self.verdicts else 0.0

    def digest(self) -> str:
        """Hash of every report of the first pass, independent of instance order."""
        named = sorted(zip((i.name for i in self.workload.instances), (v.digest for v in self.verdicts or [])))
        return hashlib.sha256(repr(named).encode()).hexdigest()


def measure(workload: Workload, seconds: float, trace: bool, work: Path) -> tuple[Tally, dict]:
    tally = Tally(workload)
    metrics: dict[str, float] = {}
    if not trace:
        # Set-up children are short, so each gets its own short calibrations.
        calibrations = [calibrate(SETUP_CALIBRATION_SHARE)]
        setups = []
        for rep in range(SETUP_REPS):
            child = run_child(workload.setup_job(), work, f"setup{rep}")
            if child.returncode != 0:
                sys.stderr.write((work / f"setup{rep}.stderr").read_text(errors="replace")[-2000:])
                raise SystemExit(f"set-up child exited {child.returncode}")
            calibrations.append(calibrate(SETUP_CALIBRATION_SHARE))
            setups.append(child.wall_s * _speed(calibrations[-2:]))
        metrics["setup_s"] = statistics.median(setups)

    calibrations = [calibrate()]
    start = perf_counter()
    scaled = []
    last = 0.0
    for index in itertools.count():
        traced = trace and index % 2 == 1
        wall = tally.run_pass(work, index, traced)
        calibrations.append(calibrate())
        if wall is not None and not traced:
            scaled.append(wall * _speed(calibrations[-2:]))
        last = max(last, wall or 0.0)
        if trace:
            enough = min(len(tally.walls[False]), len(tally.walls[True])) >= MIN_TRACED_PASSES
        else:
            enough = len(tally.walls[False]) >= MIN_PASSES
        if tally.failed and index >= 1:
            break
        if enough and perf_counter() - start + last > seconds:
            break

    untraced = tally.walls[False]
    print(
        f"{workload.name}: {len(untraced)} untraced passes {[round(w, 3) for w in untraced]}, "
        f"{len(tally.walls[True])} traced {[round(w, 3) for w in tally.walls[True]]}, "
        f"calibrations {[round(c, 3) for c in calibrations]}",
        file=sys.stderr,
    )
    if not untraced or (trace and not tally.layers):
        return tally, {}
    if trace:
        for name in tally.layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in tally.layers)
        metrics["trace.overhead_s"] = statistics.median(tally.walls[True]) - statistics.median(untraced)
        metrics["selection.select.penalty"] = tally.quality("penalty")
        metrics["oracle.oracle_report.gap"] = tally.quality("oracle_gap")
    else:
        metrics["wall_s"] = statistics.median(scaled)
        metrics["peak_rss_mb"] = statistics.median(tally.rss)
        for name in ("safe_prefix", "max_cross_score", "worklist_len", "worklist_score"):
            metrics[name] = tally.quality(name)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qaiccc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no qaiccc checkout (src/qaiccc, BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # On SIGTERM, unwind through the finally blocks that stop the child and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path[:0] = [str(SRC), str(BENCH)]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, work)
        tally, metrics = measure(workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    digest = tally.digest()
    stored = json.loads((BENCH / "report_hashes.json").read_text(encoding="utf-8")).get(args.workload)
    if stored != digest:
        print(
            f"changed behaviour: report hash {digest} differs from the stored {stored}",
            file=sys.stderr,
        )
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    undeclared = sorted(set(metrics) - {m["name"] for m in declared})
    if undeclared:
        print(f"error: metrics {undeclared} are not declared in BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

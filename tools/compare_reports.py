"""Compare the CLI's behaviour between two source trees, command by command.

Usage::

    python tools/compare_reports.py OLD_TREE NEW_TREE [--only NAME ...]

Each tree is a checkout holding ``src/qaiccc``.  The behaviour set is the
benchmark's 42 instances (``bench/workloads.py``, seed 1): every instance
runs ``allocate`` under four configurations (default, ``--max-paths 1``,
``--max-paths 5``, ``--max-population 3``), each as JSON ``--no-timings``
and as text ``--verbose --no-timings``; every oracle instance also runs
``oracle`` as JSON and as text, and every instance runs ``synth --seed 7``
on its platform: 458 commands.  ``--only`` keeps the named instances.

Every command runs in a fresh interpreter against each tree, on the same
input files, with ``PYTHONDONTWRITEBYTECODE=1``: a comparison leaves no
``__pycache__`` in either tree to skew later timings of one against the
other.  The script prints one line per command whose stdout (the
report), stderr or exit code differs, then a summary, and exits 1 when
anything differed.  Two commands run at once.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SYNTH_SEED = 7
CONFIGS = ([], ["--max-paths", "1"], ["--max-paths", "5"], ["--max-population", "3"])
FORMATS = (["--no-timings"], ["--format", "text", "--verbose", "--no-timings"])
JOBS = 2


def behaviour_set(work: Path, only: set[str] | None) -> list[tuple[str, list[str]]]:
    """(instance name, CLI arguments) for every command, inputs written under ``work``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    commands = []
    for workload in workloads.WORKLOADS:
        for instance in workloads.generate(workload, SEED):
            if only is not None and instance.name not in only:
                continue
            files = workloads.write_instance(instance, work)
            inputs = [f"--{role}={files[role]}" for role in ("platform", "rates", "requests")]
            for config in CONFIGS:
                for fmt in FORMATS:
                    commands.append((instance.name, ["allocate", *inputs, *config, *fmt]))
            if instance.oracle:
                commands.append((instance.name, ["oracle", *inputs]))
                commands.append((instance.name, ["oracle", *inputs, "--format", "text"]))
            commands.append((instance.name, ["synth", inputs[0], "--seed", str(SYNTH_SEED)]))
    return commands


def run(tree: Path, args: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qaiccc.cli", *args],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def compare(old: Path, new: Path, args: list[str]) -> list[str]:
    """Names of the outputs that differ between the two trees."""
    results = (run(old, args), run(new, args))
    return [name for name, a, b in zip(("exit code", "report", "stderr"), *results) if a != b]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree holding src/qaiccc")
    parser.add_argument("new", type=Path, help="source tree holding src/qaiccc")
    parser.add_argument("--only", nargs="+", help="instance names to keep (e.g. grid16 i07)")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "qaiccc").is_dir():
            parser.error(f"{tree} holds no src/qaiccc")

    with tempfile.TemporaryDirectory() as work:
        commands = behaviour_set(Path(work), set(args.only) if args.only else None)
        old, new = args.old.resolve(), args.new.resolve()
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            verdicts = list(pool.map(lambda command: compare(old, new, command[1]), commands))
        differing = 0
        for (name, command), diffs in zip(commands, verdicts):
            if diffs:
                differing += 1
                shown = " ".join(arg.replace(work + "/", "") for arg in command)
                print(f"{name}: differs in {', '.join(diffs)}: {shown}")
    print(f"{len(commands)} commands, {differing} with differences")
    return 1 if differing or not commands else 0


if __name__ == "__main__":
    sys.exit(main())

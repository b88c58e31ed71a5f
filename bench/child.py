"""One benchmark child process: a workload pass, or a set-up measurement.

Usage: ``python bench/child.py JOB.json`` with the package on
``PYTHONPATH``.  The job file names a mode:

* ``setup``: import the package and ingest every instance's files, and
  nothing else;
* ``pass``: run each CLI command through ``qaiccc.cli.main`` in this one
  process, as a library caller would, and record the exit codes.  With
  ``trace`` set, the package's functions are wrapped first and the
  per-layer metrics are written with the exit codes and peak memory.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's own peak resident memory.

    ``getrusage`` cannot give it: its high-water mark survives ``exec`` and
    so includes the memory of the benchmark process that started this one.
    """
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if job["mode"] == "setup":
        import qaiccc

        for platform, rates, requests in job["ingest"]:
            graph = qaiccc.load_platform(platform)
            qaiccc.load_rates(rates, graph)
            qaiccc.load_requests(requests)
        return 0

    from qaiccc import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    codes = []
    try:
        for argv in job["commands"]:
            try:
                codes.append(cli.main(argv))
            except Exception:  # recorded as a failed instance, the pass goes on
                traceback.print_exc()
                codes.append(-1)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"exit_codes": codes, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, job["max_paths_per_connect"])
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Tests for the benchmark's own pieces: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qaiccc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import InstanceChecker, report_digest  # noqa: E402
from qaiccc import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
# Per-layer metrics that run.py derives from whole passes rather than from spans.
PASS_LEVEL = {"trace.overhead_s", "selection.select.penalty", "oracle.oracle_report.gap"}


def _files(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    for inst in workloads.generate(workload, seed):
        workloads.write_instance(inst, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_files(workload, tmp_path):
    first = _files(workload, 5, tmp_path / "a")
    assert first == _files(workload, 5, tmp_path / "b")
    assert first != _files(workload, 6, tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_only_the_presentation(workload):
    def content(seed):
        return sorted(
            (i.name, sorted(i.edges), sorted(i.rates, key=lambda r: r.score), i.trusted, i.untrusted)
            for i in workloads.generate(workload, seed)
        )

    assert content(1) == content(2)


@pytest.mark.parametrize(
    "qubits, edges, seed",
    [
        (16, workloads.GRID16_EDGES, workloads.RATES_SEED),
        (16, workloads.HEAVYHEX16_EDGES, workloads.RATES_SEED),
        (8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (2, 6)), 12345),
    ],
)
def test_rate_generator_matches_the_package(qubits, edges, seed):
    graph = qaiccc.ConnectivityGraph(qubits, frozenset(edges))
    expected = [
        (r.score, tuple(sorted(r.impacting)), tuple(sorted(r.impacted)))
        for r in qaiccc.synth_rates(graph, seed)
    ]
    got = [(r.score, r.impacting, r.impacted) for r in workloads.synth_rates(qubits, edges, seed)]
    assert got == expected


def test_wrappers_restore_every_binding():
    def bindings():
        return {
            (site, attribute): spans._owner(site).__dict__[attribute]
            for site, attribute, _, _ in spans.SITES
        }

    before = bindings()
    with spans.Tracer():
        during = bindings()
        assert all(during[key] is not before[key] for key in before)
    after = bindings()
    assert all(after[key] is before[key] for key in before)


def _run_instance(inst, directory: Path) -> list[str]:
    files = workloads.write_instance(inst, directory)
    inputs = ["--platform", str(files["platform"]), "--rates", str(files["rates"]),
              "--requests", str(files["requests"])]
    texts = []
    for command in ("allocate", "oracle"):
        output = directory / f"{inst.name}.{command}.json"
        assert cli.main([command, *inputs, "--output", str(output)]) == 0
        texts.append(output.read_text(encoding="utf-8"))
    return texts


def test_tracing_changes_no_report(tmp_path):
    inst = next(i for i in workloads.generate("desk8-oracle", 1) if InstanceChecker(i).complete_count)
    plain = _run_instance(inst, tmp_path / "plain")
    with spans.Tracer() as tracer:
        traced = _run_instance(inst, tmp_path / "traced")
    assert [report_digest(t) for t in plain] == [report_digest(t) for t in traced]

    metrics = spans.layer_metrics(tracer, 64)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) == declared - PASS_LEVEL
    assert metrics["allocator.allocate.total_s"] > 0
    assert metrics["oracle.enumerate_complete.partitions"] == InstanceChecker(inst).complete_count


def test_checks_accept_a_report_and_catch_a_tampered_one(tmp_path):
    inst = next(i for i in workloads.generate("desk8-oracle", 1) if InstanceChecker(i).complete_count)
    checker = InstanceChecker(inst)
    _run_instance(inst, tmp_path)
    outputs = [tmp_path / f"{inst.name}.allocate.json", tmp_path / f"{inst.name}.oracle.json"]
    good = checker.check([0, 0], outputs)
    assert good.errors == []

    report = json.loads(outputs[0].read_text(encoding="utf-8"))
    report["worklist"] = report["worklist"][1:] + report["worklist"][:1] + [report["worklist"][0]]
    outputs[0].write_text(json.dumps(report), encoding="utf-8")
    tampered = checker.check([0, 0], outputs)
    assert "worklist differs from the recomputed noise worklist" in tampered.errors
    assert tampered.digest != good.digest
    assert checker.check([3, 0], outputs).errors


def test_infeasible_instance_expects_exit_3():
    infeasible = [i for i in workloads.generate("desk8-oracle", 1) if InstanceChecker(i).complete_count == 0]
    assert infeasible, "the desk8 family should exercise the exit-3 verdict"
    assert InstanceChecker(infeasible[0]).expected_code == 3


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_names_and_layer_map():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)

    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYERS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in LAYERS.items():
        assert entry["unit"] == next(m["unit"] for m in SPEC["per_layer"] if m["name"] == name)
        for metric, on in entry["moves"].items():
            assert metric in end_to_end, name
            assert set(on) <= set(workloads.WORKLOADS), name

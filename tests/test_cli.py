"""Command-line interface: exit codes, determinism, report round-trip."""

from __future__ import annotations

import json

import pytest

from qaiccc.cli import (
    EXIT_INPUT,
    EXIT_INSUFFICIENT_QUBITS,
    EXIT_NO_ALLOCATION,
    EXIT_OK,
    EXIT_TOO_LARGE,
    REPORT_SCHEMA,
    RunReport,
    main,
    rate_from_record,
)
from qaiccc.errors import InputFileError

PLATFORM = {"qubits": 5, "edges": [[0, 1], [0, 2], [1, 2], [2, 3], [2, 4], [3, 4]]}
REQUESTS = {"trusted": [], "untrusted": [2, 3]}
RATES = [
    {"score": 0.0027, "impacting": [3, 4], "impacted": [2]},
    {"score": 0.0017, "impacting": [1, 2], "impacted": [0]},
    {"score": 0.0013, "impacting": [2, 4], "impacted": [0]},
]


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (("platform", PLATFORM), ("requests", REQUESTS), ("rates", RATES)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_allocate(files, *extra):
    return main(
        [
            "allocate",
            "--platform", files["platform"],
            "--rates", files["rates"],
            "--requests", files["requests"],
            *extra,
        ]
    )


class TestAllocateCommand:
    def test_selected_components_in_json_report(self, files, capsys):
        assert run_allocate(files, "--no-timings") == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == REPORT_SCHEMA
        selected = report["selected"]["allocation"]
        assert [c["qubits"] for c in selected["components"]] == [[0, 1], [2, 3, 4]]
        assert selected["score"] == 0.0017
        assert selected["penalty"] == 0.0
        assert report["worklist"] == [{"score": 0.0013, "impacting": [2, 4], "impacted": [0]}]
        assert "timings" not in report

    def test_oversubscription_exits_2(self, files, tmp_path, capsys):
        requests = tmp_path / "big.json"
        requests.write_text(json.dumps({"trusted": [], "untrusted": [6]}), encoding="utf-8")
        files = dict(files, requests=str(requests))
        assert run_allocate(files) == EXIT_INSUFFICIENT_QUBITS
        assert "qubits" in capsys.readouterr().err

    def test_infeasible_platform_exits_3(self, files, tmp_path, capsys):
        platform = tmp_path / "cliques.json"
        platform.write_text(
            json.dumps({"qubits": 4, "edges": [[0, 1], [2, 3]]}), encoding="utf-8"
        )
        requests = tmp_path / "three.json"
        requests.write_text(json.dumps({"trusted": [], "untrusted": [3]}), encoding="utf-8")
        rates = tmp_path / "none.json"
        rates.write_text("[]", encoding="utf-8")
        code = main(
            ["allocate", "--platform", str(platform), "--rates", str(rates), "--requests", str(requests)]
        )
        assert code == EXIT_NO_ALLOCATION
        capsys.readouterr()

    def test_parse_error_exits_1_and_names_the_record(self, files, tmp_path, capsys):
        rates = tmp_path / "bad.json"
        rates.write_text(
            json.dumps([{"score": 0.1, "impacting": [0], "impacted": [3]}]), encoding="utf-8"
        )
        files = dict(files, rates=str(rates))
        assert run_allocate(files) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "record 0" in err and "bad.json" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_score_exits_1_and_names_the_record(self, files, tmp_path, capsys, literal):
        # json.loads accepts these literals; the report must never carry them.
        rates = tmp_path / "bad_score.json"
        rates.write_text(
            '[{"score": 0.1, "impacting": [1], "impacted": [0]},'
            f' {{"score": {literal}, "impacting": [3], "impacted": [4]}}]',
            encoding="utf-8",
        )
        files = dict(files, rates=str(rates))
        assert run_allocate(files, "--no-timings") == EXIT_INPUT
        captured = capsys.readouterr()
        assert "record 1" in captured.err and "finite non-negative" in captured.err
        assert captured.out == ""

    def test_missing_file_exits_1(self, files, capsys):
        files = dict(files, rates=files["rates"] + ".nope")
        assert run_allocate(files) == EXIT_INPUT
        capsys.readouterr()

    def test_byte_identical_reports_without_timings(self, files, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_allocate(files, "--no-timings", "--output", str(out1)) == EXIT_OK
        assert run_allocate(files, "--no-timings", "--output", str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_format_mirrors_the_search_narrative(self, files, capsys):
        assert run_allocate(files, "--no-timings", "--format", "text", "--verbose") == EXIT_OK
        text = capsys.readouterr().out
        assert "untrusted{2,3} free{0,1,4} score=0.0027 penalty=0.0027" in text
        assert "untrusted{2,3,4} free{0,1} score=0.0027 penalty=0.0" in text
        assert "population empty: search stopped" in text
        assert "selected: untrusted{0,1} untrusted{2,3,4} score=0.0017 penalty=0.0" in text

    def test_report_round_trips(self, files, tmp_path):
        out = tmp_path / "report.json"
        assert run_allocate(files, "--no-timings", "--output", str(out)) == EXIT_OK
        data = json.loads(out.read_text(encoding="utf-8"))
        report = RunReport.from_dict(data)
        assert report.to_dict() == data

    def test_schema_field_is_always_present(self, files, capsys):
        assert run_allocate(files) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == REPORT_SCHEMA
        assert "timings" in report


class TestReportRateRecords:
    """Rate records read back from a report pass ingest's record checks."""

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"score": True, "impacting": [3, 4], "impacted": [2]}, "'score' must be a finite"),
            ({"score": 0.0027, "impacting": "01", "impacted": [2]}, "'impacting' must be a list"),
            ({"score": 0.0027, "impacting": [3, 4], "impacted": [2, 2]}, "'impacted' repeats"),
        ],
    )
    def test_malformed_record_is_refused(self, files, tmp_path, record, message):
        with pytest.raises(InputFileError, match=message):
            rate_from_record(record)
        out = tmp_path / "report.json"
        assert run_allocate(files, "--no-timings", "--output", str(out)) == EXIT_OK
        data = json.loads(out.read_text(encoding="utf-8"))
        data["worklist"] = [record]
        with pytest.raises(InputFileError, match=message):
            RunReport.from_dict(data)


class TestOracleCommand:
    def test_demo_gap_is_zero(self, files, capsys):
        code = main(
            ["oracle", "--platform", files["platform"], "--rates", files["rates"],
             "--requests", files["requests"]]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["optimum_safe_prefix"] == 2
        assert report["algorithm_safe_prefix"] == 2
        assert report["gap"] == 0

    def test_large_platform_exits_4_without_cap_override(self, files, tmp_path, capsys):
        platform = tmp_path / "nine.json"
        platform.write_text(
            json.dumps({"qubits": 9, "edges": [[i, i + 1] for i in range(8)]}), encoding="utf-8"
        )
        requests = tmp_path / "nine_req.json"
        requests.write_text(json.dumps({"trusted": [], "untrusted": [9]}), encoding="utf-8")
        rates = tmp_path / "none.json"
        rates.write_text("[]", encoding="utf-8")
        args = ["oracle", "--platform", str(platform), "--rates", str(rates), "--requests", str(requests)]
        assert main(args) == EXIT_TOO_LARGE
        capsys.readouterr()
        assert main(args + ["--cap", "9"]) == EXIT_OK
        capsys.readouterr()

    def test_zero_rates_every_partition_optimal(self, files, tmp_path, capsys):
        rates = tmp_path / "none.json"
        rates.write_text("[]", encoding="utf-8")
        code = main(
            ["oracle", "--platform", files["platform"], "--rates", str(rates),
             "--requests", files["requests"]]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["gap"] == 0
        assert len(report["optimum_allocations"]) == report["complete_allocations"]


class TestSynthCommand:
    def test_identical_seeds_identical_files(self, files, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for out in (out1, out2):
            code = main(["synth", "--platform", files["platform"], "--seed", "7", "--output", str(out)])
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_generated_file_feeds_allocate(self, files, tmp_path, capsys):
        rates = tmp_path / "synth.json"
        assert main(["synth", "--platform", files["platform"], "--seed", "3", "--output", str(rates)]) == EXIT_OK
        files = dict(files, rates=str(rates))
        assert run_allocate(files, "--no-timings") == EXIT_OK
        capsys.readouterr()

    def test_max_rates_cap(self, files, capsys):
        assert main(["synth", "--platform", files["platform"], "--seed", "3", "--max-rates", "10"]) == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 10

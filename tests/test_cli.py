"""Command-line interface: exit codes, determinism, report round-trip."""

from __future__ import annotations

import copy
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
    allocation_from_dict,
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


@pytest.fixture
def report_data(files, tmp_path):
    out = tmp_path / "report.json"
    assert run_allocate(files, "--no-timings", "--output", str(out)) == EXIT_OK
    return json.loads(out.read_text(encoding="utf-8"))


class TestReportReaders:
    """Each report record kind has one checked reader; errors name the field."""

    def test_collapsing_record_is_refused(self):
        record = {
            "unallocated": "01",
            "score": True,
            "components": [{"trust": "untrusted", "qubits": [2, 2, 3]}],
            "penalty": 0.0,
            "incidental": [],
            "last_rate": None,
        }
        with pytest.raises(InputFileError, match=r"'allocation.components\[0\].qubits' repeats"):
            allocation_from_dict(record)
        record["components"][0]["qubits"] = [2, 3]
        with pytest.raises(InputFileError, match="'allocation.unallocated' must be a list"):
            allocation_from_dict(record)
        record["unallocated"] = [0, 1]
        with pytest.raises(InputFileError, match="'allocation.score' must be a finite"):
            allocation_from_dict(record)
        record["score"] = 1.0
        assert allocation_from_dict(record).components[0].qubits == {2, 3}

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (["unallocated"], [0, 0], r"'ranking\[0\].unallocated' repeats a qubit"),
            (["components"], {}, r"'ranking\[0\].components' must be a list"),
            (["components", 0, "trust"], "owner", r"'ranking\[0\].components\[0\].trust' must be one of"),
            (["components", 0, "qubits"], [], r"'ranking\[0\].components\[0\].qubits' is empty"),
            (["components", 0, "qubits"], ["1"], r"components\[0\].qubits' must be a list of integers"),
            (["penalty"], "0", r"'ranking\[0\].penalty' must be a finite"),
            (["incidental"], [{"score": -1, "impacting": [1], "impacted": [0]}],
             r"ranking\[0\].incidental: record 0: 'score'"),
            (["last_rate"], {"score": 0.1, "impacting": [1, 1], "impacted": [0]},
             r"ranking\[0\].last_rate: 'impacting' repeats"),
            (["last_rate"], 0, r"ranking\[0\].last_rate: record must be an object"),
            (["last_rate"], {}, r"ranking\[0\].last_rate: 'impacting' must be a list"),
        ],
    )
    def test_malformed_ranking_entry_is_refused(self, report_data, path, value, message):
        target = report_data["ranking"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(InputFileError, match=message):
            RunReport.from_dict(report_data)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("requests", "trusted", "2", "'requests.trusted' must be a list of integers"),
            ("requests", "untrusted", [0], "request sizes must be positive"),
            ("requests", "idle", 1.5, "'requests.idle' must be an integer or null"),
            ("config", "max_paths_per_connect", True, "'config.max_paths_per_connect' must be an integer$"),
            ("config", "max_paths_per_connect", 0, "max_paths_per_connect must be at least 1"),
            ("config", "max_population", "3", "'config.max_population' must be an integer or null"),
        ],
    )
    def test_malformed_requests_and_config_are_refused(self, report_data, section, key, value, message):
        report_data[section][key] = value
        with pytest.raises(InputFileError, match=message):
            RunReport.from_dict(report_data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["selected"]["assignment"]["untrusted"].__setitem__(0, [1, 1]),
             r"'selected.assignment.untrusted\[0\]' repeats a qubit"),
            (lambda d: d["selected"]["assignment"].__setitem__("idle", "x"),
             "'selected.assignment.idle' must be a list of integers"),
            (lambda d: d["selected"]["allocation"].__setitem__("score", float("nan")),
             "'selected.allocation.score' must be a finite"),
            (lambda d: d.pop("config"), "'report' must be an object with 'config'"),
            (lambda d: d.__setitem__("selected", []), "'selected' must be an object with 'allocation'"),
            (lambda d: d.__setitem__("ranking", {}), "'report.ranking' must be a list"),
            (lambda d: d.__setitem__("timings", 5), "'report.timings' must be an object or null"),
            (lambda d: d.__setitem__("timings", {"ingest_s": "1"}),
             "'report.timings.ingest_s' must be a finite"),
        ],
    )
    def test_malformed_report_fields_are_refused(self, report_data, edit, message):
        edit(report_data)
        with pytest.raises(InputFileError, match=message):
            RunReport.from_dict(report_data)

    def test_reader_keeps_the_selected_ranking(self, report_data):
        report = RunReport.from_dict(copy.deepcopy(report_data))
        assert report.to_dict() == report_data
        assert len(report.selected.ranking) == len(report_data["ranking"]) > 1


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

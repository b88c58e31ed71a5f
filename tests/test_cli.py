"""Command-line interface: exit codes, determinism, the checked report readers."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qaiccc
from qaiccc import cli, oracle
from qaiccc.cli import (
    EXIT_INPUT,
    EXIT_INSUFFICIENT_QUBITS,
    EXIT_NO_ALLOCATION,
    EXIT_OK,
    EXIT_TOO_LARGE,
    ORACLE_SCHEMA,
    REPORT_SCHEMA,
    allocation_from_dict,
    json_scalar,
    main,
    rate_from_record,
)
from qaiccc.allocator import Attributes
from qaiccc.errors import InputFileError
from qaiccc.model import allocation_of, state_of
from qaiccc.ingest import save_platform, save_rates, save_requests

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


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e-300, 1e300, 5e-324, 0.1 + 0.2])
    | st.text()
)


@settings(max_examples=300, deadline=None)
@given(_SCALARS)
@example(-0.0)
@example(1e-300)
@example(1e300)
@example(5e-324)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example("\ud800 lone surrogate")
@example("pair \ud83d\ude00 and \U0001f600")
@example("é \u2603 a\nb\"c \x00")
@example(True)
@example(1)
@example(False)
@example(0)
@example(None)
def test_json_scalar_writes_what_the_standard_library_writes(value):
    assert json_scalar(value) == json.dumps(value)


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

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="int-past-every-float")]
    )
    def test_non_finite_score_exits_1_and_names_the_record(self, files, tmp_path, capsys, literal):
        # json.loads accepts these literals, and an integer past every float;
        # the report must never carry them.
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
        assert captured.out == "" and "Traceback" not in captured.err

    def test_scores_summing_past_the_largest_float_exit_1(self, files, tmp_path, capsys):
        # Four rates at the largest float: the start score, one step above the
        # top rate, and the summed penalties would be written as Infinity.
        pairs = (([3, 4], [2]), ([1, 2], [0]), ([2, 4], [0]), ([0], [1]))
        rates = tmp_path / "huge.json"
        rates.write_text(
            json.dumps([
                {"score": sys.float_info.max, "impacting": a, "impacted": b} for a, b in pairs
            ]),
            encoding="utf-8",
        )
        assert run_allocate(dict(files, rates=str(rates)), "--no-timings") == EXIT_INPUT
        captured = capsys.readouterr()
        assert "huge.json" in captured.err and "sum to inf" in captured.err
        assert captured.out == ""

    def test_a_thousand_requests_on_a_two_thousand_qubit_line_are_all_assigned(
        self, tmp_path, capsys
    ):
        # The completion decider takes one step per request, a thousand deep
        # here; it once recursed per step and ran out of stack in select.
        paths = {}
        for name, payload in (
            ("platform", {"qubits": 2000, "edges": [[q, q + 1] for q in range(1999)]}),
            ("requests", {"untrusted": [2] * 1000}),
            ("rates", [{"score": 0.001, "impacting": [0], "impacted": [1]}]),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            paths[name] = str(path)
        assert run_allocate(paths, "--no-timings") == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        users = report["selected"]["assignment"]["untrusted"]
        assert len(users) == 1000 and report["selected"]["assignment"]["idle"] is None
        assert sorted(q for qubits in users for q in qubits) == list(range(2000))
        assert all(len(qubits) == 2 and qubits[1] == qubits[0] + 1 for qubits in users)

    @pytest.mark.parametrize("flag", ["--max-paths", "--max-population"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_search_bound_below_one_exits_1_and_names_the_flag(self, files, capsys, flag, value):
        assert run_allocate(files, flag, value) == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"error: {flag} must be at least 1, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra, named",
        [
            (None, "the following arguments are required: --rates, --requests"),
            (["--max-paths", "abc"], "--max-paths"),
            (["--format", "xml"], "--format"),
            (["--max-pathz", "3"], "--max-pathz"),
        ],
        ids=["missing-flags", "not-an-int", "unknown-format", "unknown-flag"],
    )
    def test_a_usage_error_exits_1_and_names_the_flag(self, files, capsys, extra, named):
        # Exit 2 means the requests exceed the platform; a usage error is exit 1.
        if extra is None:
            assert main(["allocate", "--platform", files["platform"]]) == EXIT_INPUT
        else:
            assert run_allocate(files, *extra) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "usage: qaiccc" in captured.err and named in captured.err
        assert captured.out == ""

    def test_usage_errors_exit_1_and_help_exits_0_from_the_command_line(self, files):
        env = dict(os.environ, PYTHONPATH=str(Path(qaiccc.__file__).resolve().parents[1]))
        for argv, code in (
            (["allocate", "--platform", files["platform"]], EXIT_INPUT),
            (["allocate", "--help"], EXIT_OK),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "qaiccc.cli", *argv],
                env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            )
            assert proc.returncode == code
            assert "usage: qaiccc allocate" in (proc.stderr if code else proc.stdout)

    @pytest.mark.parametrize(
        "name, payload, key",
        [
            ("requests", {"untrused": [2]}, "untrused"),
            ("platform", {"qubits": 5, "edgez": PLATFORM["edges"]}, "edgez"),
        ],
    )
    def test_misspelt_key_exits_1_and_names_it(self, files, tmp_path, capsys, name, payload, key):
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run_allocate(dict(files, **{name: str(path)}), "--no-timings") == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"unknown key '{key}'" in captured.err and "misspelt.json" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["platform", "requests", "rates"])
    @pytest.mark.parametrize(
        "content, error",
        [(b"\xff\xfe{}", "not UTF-8"), (b"[" * 100_000, "nested too deeply")],
        ids=["not-utf8", "too-deep"],
    )
    def test_unparseable_file_exits_1_and_names_it(
        self, files, tmp_path, capsys, name, content, error
    ):
        path = tmp_path / "unparseable.json"
        path.write_bytes(content)
        assert run_allocate(dict(files, **{name: str(path)}), "--no-timings") == EXIT_INPUT
        captured = capsys.readouterr()
        assert "unparseable.json" in captured.err and error in captured.err
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

    @pytest.mark.parametrize(
        "inputs, code",
        [
            ({"rates": [{"score": 0.1, "impacting": [1]}]}, EXIT_INPUT),
            ({"requests": {"trusted": [], "untrusted": [6]}}, EXIT_INSUFFICIENT_QUBITS),
            (
                {
                    "platform": {"qubits": 4, "edges": [[0, 1], [2, 3]]},
                    "requests": {"trusted": [], "untrusted": [3]},
                    "rates": [],
                },
                EXIT_NO_ALLOCATION,
            ),
        ],
        ids=["malformed-rates", "oversubscribed", "two-cliques"],
    )
    @pytest.mark.parametrize("existing", [None, "kept\n"], ids=["absent", "present"])
    def test_a_failing_run_leaves_the_output_file_as_it_was(
        self, files, tmp_path, capsys, inputs, code, existing
    ):
        # The report file is opened only once ``select`` has succeeded.
        for name, payload in inputs.items():
            path = tmp_path / f"failing.{name}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            files = dict(files, **{name: str(path)})
        output = tmp_path / "report.json"
        if existing is not None:
            output.write_text(existing, encoding="utf-8")
        assert run_allocate(files, "--output", str(output)) == code
        assert capsys.readouterr().out == ""
        if existing is None:
            assert not output.exists()
        else:
            assert output.read_text(encoding="utf-8") == existing

    @pytest.mark.parametrize(
        "view", [["--format", "json"], ["--format", "text"], ["--format", "text", "--verbose"]]
    )
    def test_the_output_file_holds_the_stdout_bytes(self, files, tmp_path, capsysbinary, view):
        output = tmp_path / "report"
        assert run_allocate(files, "--no-timings", *view) == EXIT_OK
        printed = capsysbinary.readouterr().out
        assert run_allocate(files, "--no-timings", *view, "--output", str(output)) == EXIT_OK
        assert capsysbinary.readouterr().out == b""
        assert output.read_bytes() == printed and printed.count(b"\n") > 10

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
    def test_malformed_record_is_refused(self, record, message):
        with pytest.raises(InputFileError, match=message):
            rate_from_record(record)


@pytest.fixture
def report_data(files, tmp_path):
    out = tmp_path / "report.json"
    assert run_allocate(files, "--no-timings", "--output", str(out)) == EXIT_OK
    return json.loads(out.read_text(encoding="utf-8"))


class TestReportReaders:
    """A report allocation has one checked reader; errors name the field."""

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
            pytest.param(["penalty"], 10**400, r"'ranking\[0\].penalty' must be a finite", id="penalty-past-every-float"),
            pytest.param(["score"], 10**400, r"'ranking\[0\].score' must be a finite", id="score-past-every-float"),
        ],
    )
    def test_malformed_ranking_entry_is_refused(self, report_data, path, value, message):
        target = report_data["ranking"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(InputFileError, match=message):
            allocation_from_dict(report_data["ranking"][0], "ranking[0]")


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

    def test_a_nine_qubit_line_is_enumerated(self, tmp_path, capsys):
        platform = tmp_path / "nine.json"
        platform.write_text(
            json.dumps({"qubits": 9, "edges": [[i, i + 1] for i in range(8)]}), encoding="utf-8"
        )
        requests = tmp_path / "nine_req.json"
        requests.write_text(json.dumps({"trusted": [], "untrusted": [9]}), encoding="utf-8")
        rates = tmp_path / "none.json"
        rates.write_text("[]", encoding="utf-8")
        args = ["oracle", "--platform", str(platform), "--rates", str(rates), "--requests", str(requests)]
        assert main(args) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == ORACLE_SCHEMA == "qaiccc-oracle/2"
        assert report["complete_allocations"] == 1 and "cap" not in report
        # Requests that outgrow the platform are refused before any enumeration.
        requests.write_text(json.dumps({"trusted": [], "untrusted": [5, 5]}), encoding="utf-8")
        assert main(args) == EXIT_INSUFFICIENT_QUBITS
        assert capsys.readouterr().out == ""

    def test_passing_the_work_budget_exits_4_and_names_it(self, files, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 44)
        args = ["oracle", "--platform", files["platform"], "--rates", files["rates"]]
        assert main(args + ["--requests", files["requests"]]) == EXIT_TOO_LARGE
        captured = capsys.readouterr()
        assert "work budget of 44 steps" in captured.err and captured.out == ""

    def test_the_cap_flag_is_gone(self, files, capsys):
        args = ["oracle", "--platform", files["platform"], "--rates", files["rates"]]
        assert main(args + ["--requests", files["requests"], "--cap", "9"]) == EXIT_INPUT
        assert "--cap" in capsys.readouterr().err

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

    def test_negative_max_rates_exits_1_and_names_the_flag(self, files, capsys):
        args = ["synth", "--platform", files["platform"], "--seed", "3", "--max-rates"]
        assert main(args + ["-1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "--max-rates" in captured.err and captured.out == ""
        assert main(args + ["0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []


class TestRepeatedMainCalls:
    """``main`` called many times in one process, as a library caller does."""

    def test_a_command_patched_after_the_first_call_is_the_one_run(self, files, monkeypatch, capsys):
        assert run_allocate(files, "--no-timings") == EXIT_OK
        assert cli.build_parser() is cli.build_parser()
        seen = []

        def patched(args):
            seen.append(args.command)
            return 42

        monkeypatch.setattr(cli, "cmd_allocate", patched)
        assert run_allocate(files, "--no-timings") == 42
        assert seen == ["allocate"]
        capsys.readouterr()

    def test_qaiccc_log_is_read_on_every_call(self, files):
        script = (
            "import os, sys\n"
            "from qaiccc.cli import main\n"
            "argv = sys.argv[1:]\n"
            "for level in ('error', 'debug', 'error'):\n"
            "    os.environ['QAICCC_LOG'] = level\n"
            "    main(argv)\n"
            "    print('-- call done', file=sys.stderr, flush=True)\n"
        )
        argv = ["allocate", "--platform", files["platform"], "--rates", files["rates"],
                "--requests", files["requests"], "--no-timings"]
        env = dict(os.environ, PYTHONPATH=str(Path(qaiccc.__file__).resolve().parents[1]))
        env.pop("QAICCC_LOG", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
        )
        calls = proc.stderr.split("-- call done\n")
        assert len(calls) == 4 and calls[3] == ""
        assert ["rate 0.0027 -> population" in call for call in calls[:3]] == [False, True, False]


class TestStartUp:
    """What ``import qaiccc.cli`` loads, in a fresh interpreter."""

    def test_the_command_line_loads_no_dataclasses_logging_or_oracle(self, files):
        # ``sys.modules`` is compared before and after the import, so what
        # ``site`` loads does not count.  Then every public name, ``dir``
        # and the oracle command work, the oracle loaded on first use.
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import qaiccc.cli\n"
            "loaded = set(sys.modules) - before\n"
            "print(json.dumps(sorted(loaded & {'dataclasses', 'inspect', 'logging', 'qaiccc.oracle'})))\n"
            "import qaiccc\n"
            "for name in qaiccc.__all__:\n"
            "    exec(f'from qaiccc import {name}')\n"
            "print(json.dumps(sorted(set(qaiccc.__all__) - set(dir(qaiccc)))))\n"
            "sys.exit(qaiccc.cli.main(['oracle'] + sys.argv[1:]))\n"
        )
        argv = ["--platform", files["platform"], "--rates", files["rates"],
                "--requests", files["requests"]]
        env = dict(os.environ, PYTHONPATH=str(Path(qaiccc.__file__).resolve().parents[1]))
        env.pop("QAICCC_LOG", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        loaded, missing, report = proc.stdout.split("\n", 2)
        assert json.loads(loaded) == []
        assert json.loads(missing) == []
        assert json.loads(report)["gap"] == 0

    def test_the_parser_takes_the_search_config_defaults(self):
        args = cli.build_parser().parse_args(
            ["allocate", "--platform", "p", "--rates", "r", "--requests", "q"]
        )
        defaults = qaiccc.SearchConfig()
        assert (args.max_population, args.max_paths) == (None, 64)
        assert (args.max_population, args.max_paths) == (
            defaults.max_population, defaults.max_paths_per_connect
        )


# ---------------------------------------------------------------------------
# the allocate report's writer against a frozen copy of the dict it replaced


def _reference_rate(rate):
    return {
        "score": rate.score, "impacting": sorted(rate.impacting), "impacted": sorted(rate.impacted)
    }


def _reference_allocation(allocation):
    return {
        "unallocated": sorted(allocation.unallocated),
        "components": [
            {"trust": comp.trust.value, "qubits": sorted(comp.qubits)}
            for comp in allocation.components
        ],
        "score": allocation.score,
        "penalty": allocation.penalty,
        "incidental": [_reference_rate(r) for r in allocation.incidental],
        "last_rate": _reference_rate(allocation.last_rate) if allocation.last_rate else None,
    }


def reference(report):
    """The report's dict as ``RunReport.to_dict`` built it before the writer replaced it."""
    sizes, selected = report.sizes, report.selected
    assignment = selected.assignment
    payload = {
        "schema": REPORT_SCHEMA,
        "requests": {
            "trusted": list(sizes.trusted),
            "untrusted": list(sizes.untrusted),
            "idle": sizes.idle_size,
        },
        "config": {
            "max_population": report.config.max_population,
            "max_paths_per_connect": report.config.max_paths_per_connect,
        },
        "selected": {
            "allocation": _reference_allocation(selected.allocation),
            "assignment": {
                "trusted": [sorted(assignment[("trusted", i)]) for i in range(len(sizes.trusted))],
                "untrusted": [
                    sorted(assignment[("untrusted", i)]) for i in range(len(sizes.untrusted))
                ],
                "idle": sorted(assignment[("idle", 0)]) if sizes.idle_size is not None else None,
            },
        },
        "worklist": [_reference_rate(r) for r in selected.worklist],
        "ranking": [_reference_allocation(allocation_of(s, *r)) for s, r in selected.ranking],
    }
    if report.timings is not None:
        payload["timings"] = dict(report.timings)
    return payload


_QUBITS = st.frozensets(st.integers(0, 40), max_size=6)
_SCORES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e-300, 1e300]
)


@st.composite
def _rates(draw):
    impacting, impacted = draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    qubits = draw(st.lists(st.integers(0, 40), min_size=4, max_size=4, unique=True))
    return qaiccc.CrosstalkRate(
        draw(_SCORES), frozenset(qubits[:impacting]), frozenset(qubits[2:2 + impacted])
    )


@st.composite
def _allocations(draw, rates):
    components = draw(st.lists(
        st.builds(qaiccc.UserComponent, st.sampled_from(list(qaiccc.Trust)), _QUBITS.filter(bool)),
        max_size=4,
    ))
    return qaiccc.Allocation(
        unallocated=draw(_QUBITS),
        components=tuple(components),
        score=draw(_SCORES),
        penalty=draw(_SCORES),
        incidental=tuple(draw(st.lists(st.sampled_from(rates), max_size=4))),
        last_rate=draw(st.none() | st.sampled_from(rates)),
    )


def _entry(allocation):
    """A ranking entry: the allocation's state and its attribute record."""
    attributes = allocation.score, allocation.penalty, allocation.incidental, allocation.last_rate
    return state_of(allocation), Attributes(*attributes)


@st.composite
def _reports(draw):
    sizes = qaiccc.SizeRequests(
        trusted=tuple(draw(st.lists(st.integers(1, 50), max_size=3))),
        untrusted=tuple(draw(st.lists(st.integers(1, 50), max_size=3))),
        idle_size=draw(st.none() | st.integers(1, 50)),
    )
    config = qaiccc.SearchConfig(
        max_population=draw(st.none() | st.integers(1, 10**6)),
        max_paths_per_connect=draw(st.integers(1, 10**6)),
    )
    labels = [("trusted", i) for i in range(len(sizes.trusted))]
    labels += [("untrusted", i) for i in range(len(sizes.untrusted))]
    labels += [("idle", 0)] if sizes.idle_size is not None else []
    rates = draw(st.lists(_rates(), min_size=1, max_size=5))
    allocations = draw(st.lists(_allocations(rates), min_size=1, max_size=6))
    selected = qaiccc.SelectionResult(
        allocation=draw(st.sampled_from(allocations)),
        assignment={label: draw(_QUBITS) for label in labels},
        worklist=tuple(draw(st.lists(st.sampled_from(rates), max_size=5))),
        ranking=tuple(map(_entry, allocations)),
    )
    timings = draw(
        st.none() | st.dictionaries(st.text(max_size=8), _SCORES | st.floats(), max_size=3)
    )
    return cli.RunReport(sizes, config, selected, timings)


_RATE = qaiccc.CrosstalkRate(0.0027, frozenset({3, 4}), frozenset({2}))
_OTHER = qaiccc.CrosstalkRate(1e300, frozenset({0}), frozenset({1}))
_ZERO = qaiccc.CrosstalkRate(0.0, frozenset({0}), frozenset({1}))
_NEGATIVE_ZERO = qaiccc.CrosstalkRate(-0.0, frozenset({0}), frozenset({1}))  # equal to _ZERO


def _example(
    *, trusted=(), idle=None, worklist=(), incidental=(), last_rate=None, timings=None, ranking=None
):
    sizes = qaiccc.SizeRequests(trusted=trusted, untrusted=(), idle_size=idle)
    member = qaiccc.Allocation(
        unallocated=frozenset({0, 1}),
        components=(qaiccc.UserComponent(qaiccc.Trust.TRUSTED, frozenset({2, 3, 4})),),
        score=0.0027,
        penalty=0.0,
        incidental=incidental,
        last_rate=last_rate,
    )
    assignment = {("trusted", i): frozenset({i}) for i in range(len(trusted))}
    if idle is not None:
        assignment["idle", 0] = frozenset({5, 6})
    ranking = (member, member) if ranking is None else ranking
    selected = qaiccc.SelectionResult(member, assignment, worklist, tuple(map(_entry, ranking)))
    return cli.RunReport(sizes, qaiccc.SearchConfig(), selected, timings)


@settings(max_examples=200, deadline=None)
@given(_reports())
@example(_example())  # empty worklist, no incidental, no last rate, idle null, no timings
@example(_example(trusted=(3, 2), worklist=(_RATE, _OTHER), last_rate=_RATE))
@example(_example(incidental=(_RATE, _OTHER, _RATE), last_rate=_OTHER, idle=2))
@example(_example(trusted=(1,), timings={"ingest_s": 0.0, "allocate_s": 1e-300, "select_s": 1e300}))
@example(_example(timings={}))
@example(_example(ranking=(), timings={"select_s": 0.5}))  # an empty ranking between its neighbours
@example(_example(worklist=(_ZERO, _NEGATIVE_ZERO), last_rate=_NEGATIVE_ZERO))
def test_report_writer_writes_what_the_standard_library_writes(report):
    assert "".join(report.json_chunks()) == json.dumps(reference(report), indent=2)


#: The first 16 qubits of the IBM Falcon heavy-hex layout, a connected subgraph.
HEAVY_HEX_16 = frozenset({
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10), (8, 9),
    (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
})


def test_writing_a_report_never_holds_it_whole():
    # Heavy-hex 16, untrusted (4,4), the top 10 rates: a ranking of hundreds
    # of entries.  Written through the command's writer into a file that
    # discards its input, the report's pieces never add up to a quarter of it.
    graph = qaiccc.ConnectivityGraph(16, HEAVY_HEX_16)
    rates = qaiccc.sort_rates(qaiccc.synth_rates(graph, 7))[:10]
    outcome = qaiccc.allocate(graph, qaiccc.SizeRequests(untrusted=(4, 4)), rates)
    selected = qaiccc.select(outcome, graph)
    report = cli.RunReport(outcome.sizes, qaiccc.SearchConfig(), selected, None)
    length = sum(map(len, report.json_chunks()))
    assert len(selected.ranking) > 500 and length > 300_000
    tracemalloc.start()
    try:
        cli._write_output(report.json_chunks(), os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < length / 4


def test_family_reports_through_the_command_are_the_reference_bytes(family, tmp_path, capsys):
    for instance in family:
        paths = {}
        for name, save, value in (
            ("platform", save_platform, instance.graph),
            ("requests", save_requests, instance.sizes),
            ("rates", save_rates, instance.rates),
        ):
            paths[name] = str(tmp_path / f"{instance.seed}.{name}.json")
            save(value, paths[name])
        outcome = qaiccc.allocate(instance.graph, instance.sizes, instance.rates)
        selected = qaiccc.select(outcome, instance.graph)
        expected = cli.RunReport(outcome.sizes, qaiccc.SearchConfig(), selected, None)
        assert run_allocate(paths, "--no-timings") == EXIT_OK
        bare = capsys.readouterr().out
        assert bare == json.dumps(reference(expected), indent=2) + "\n"
        assert run_allocate(paths) == EXIT_OK
        timed = capsys.readouterr().out
        # The timings differ from run to run: the rest is the bare report,
        # and the whole is laid out as the standard library lays it out.
        data = json.loads(timed)
        assert set(data.pop("timings")) == {"ingest_s", "allocate_s", "select_s"}
        assert data == json.loads(bare)
        assert timed == json.dumps(json.loads(timed), indent=2) + "\n"

"""``tools/compare_reports.py`` on one benchmark instance, and the tracer's import sites."""

from __future__ import annotations

import ast
import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_file(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tool():
    return load_file("compare_reports", ROOT / "tools" / "compare_reports.py")


def unused_imports(path: Path) -> set[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", ["allocator", "cli"])
def test_unused_imports_are_tracer_sites(module):
    # A name bound but never read here is only kept for bench/spans.py,
    # which wraps collaborators at the import site its callers look in.
    sites = load_file("spans", ROOT / "bench" / "spans.py").SITES
    wrapped = {attribute for owner, attribute, _, _ in sites if owner == f"qaiccc.{module}"}
    unused = unused_imports(ROOT / "src" / "qaiccc" / f"{module}.py")
    assert unused <= wrapped, sorted(unused - wrapped)


def test_no_allocator_function_takes_the_memo_and_what_it_carries():
    # A run's graph, sizes and config are read from its SearchMemo, so a
    # function taking the memo takes none of them beside it.
    tree = ast.parse((ROOT / "src" / "qaiccc" / "allocator.py").read_text())
    taking_memo, doubled = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            names = {argument.arg for argument in arguments}
            if "memo" in names:
                taking_memo.add(node.name)
                if names & {"graph", "sizes", "config"}:
                    doubled.add(node.name)
    assert {"connect", "new_alloc", "improve_alloc"} <= taking_memo
    assert doubled == set()


def test_same_tree_shows_no_difference(capsys):
    assert load_tool().main([str(ROOT), str(ROOT), "--only", "i00"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "11 commands, 0 with differences"


def test_changed_report_bytes_are_flagged(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "qaiccc", tmp_path / "src" / "qaiccc")
    cli = tmp_path / "src" / "qaiccc" / "cli.py"
    cli.write_text(cli.read_text().replace('"qaiccc-report/1"', '"qaiccc-report/x"'))
    assert load_tool().main([str(ROOT), str(tmp_path), "--only", "i00"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "11 commands, 4 with differences"
    assert all(line.startswith("i00: differs in report: allocate ") for line in lines[:-1])


def test_changed_synth_layout_is_flagged(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "qaiccc", tmp_path / "src" / "qaiccc")
    cli = tmp_path / "src" / "qaiccc" / "cli.py"
    source = cli.read_text()
    written = "json.dumps([rate_to_record(r) for r in rates], indent=2)"
    assert source.count(written) == 1
    cli.write_text(source.replace(written, written.replace("indent=2", "indent=4")))
    assert load_tool().main([str(ROOT), str(tmp_path), "--only", "i00"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "11 commands, 1 with differences"
    assert lines[0].startswith("i00: differs in report: synth ")


def test_changed_oracle_text_is_flagged(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "qaiccc", tmp_path / "src" / "qaiccc")
    cli = tmp_path / "src" / "qaiccc" / "cli.py"
    source = cli.read_text()
    written = 'yield f"gap: {report.gap}\\n"'
    assert source.count(written) == 1
    cli.write_text(source.replace(written, written.replace("gap: ", "gap = ")))
    assert load_tool().main([str(ROOT), str(tmp_path), "--only", "i00"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "11 commands, 1 with differences"
    assert lines[0].startswith("i00: differs in report: oracle ") and lines[0].endswith("--format text")


def test_device_scale_reports_the_heavy_hex_top_rate_run(capsys):
    tool = load_file("device_scale", ROOT / "tools" / "device_scale.py")
    assert tool.main([str(ROOT), "--k", "1", "--profile", "3"]) == 0
    run, *top = capsys.readouterr().out.splitlines()
    fields = run.split()
    assert fields[0] == "k=1" and float(fields[2]) > 0
    assert fields[3:7] == ["population", "1012", "archive", "1"]
    # The whole command ran: the peak after ``allocate``, the seconds from
    # ``allocate``'s return to ``select``'s, the seconds the report took to
    # write after ``select``, and the peak at the end.
    names = ["peak_rss_mb", "select_s", "report_s", "report_peak_rss_mb", "memo"]
    assert [fields.index(name) for name in names] == sorted(fields.index(name) for name in names)
    assert float(fields[fields.index("select_s") + 1]) > 0
    assert float(fields[fields.index("report_s") + 1]) >= 0
    # Each memo table's entry count, in the tool's order, then the index's
    # structure count.  The index answers every verdict, so the decider's
    # table stays empty and every other table fills.
    tables = fields[fields.index("memo") + 1:fields.index("index")]
    assert tables[::2] == [
        "states", "verdicts", "joins", "shapes", "budgets", "bases", "reaches", "regions"
    ]
    sizes = dict(zip(tables[::2], map(int, tables[1::2])))
    assert sizes.pop("verdicts") == 0
    assert all(size > 0 for size in sizes.values())
    # Every state's component tuple has one shape, and equal tuples are one
    # entry, so there are no more shapes than states.
    assert sizes["shapes"] <= sizes["states"]
    assert fields[fields.index("index") + 1] == "28"
    # The profile's rows, by self time, the largest first.
    assert len(top) == 3
    self_times = [float(row.split()[1]) for row in top]
    assert self_times == sorted(self_times, reverse=True)
    assert all(row.startswith("  self_s ") and " calls " in row for row in top)


def test_device_scale_alternates_the_trees_per_repeat_of_each_k(tmp_path, monkeypatch, capsys):
    tool = load_file("device_scale", ROOT / "tools" / "device_scale.py")
    trees = [tmp_path / "old", tmp_path / "new"]
    for tree in trees:
        (tree / "src" / "qaiccc").mkdir(parents=True)
    order = []

    def measure(tree, k, profile, untrusted):
        order.append((k, tree.name))
        return {
            "seconds": 1.0, "population": 1, "archive": 1, "peak_rss_mb": None,
            "report_peak_rss_mb": None, "select_s": 0.0, "report_s": 0.0, "memo": {},
            "index": None, "profile": [],
        }

    monkeypatch.setattr(tool, "measure", measure)
    assert tool.main([str(trees[0]), str(trees[1]), "--k", "2", "30", "2", "30"]) == 0
    capsys.readouterr()
    assert order == [
        (2, "old"), (2, "new"), (30, "old"), (30, "new"),
        (2, "new"), (2, "old"), (30, "new"), (30, "old"),
    ]


@pytest.mark.parametrize(
    "untrusted, population, structures", [("4,4,4,4", "527", "33"), ("3,3,3", "5024", "74")]
)
def test_device_scale_runs_the_other_heavy_hex_rows(capsys, untrusted, population, structures):
    tool = load_file("device_scale", ROOT / "tools" / "device_scale.py")
    assert tool.main([str(ROOT), "--k", "1", "--untrusted", untrusted]) == 0
    fields = capsys.readouterr().out.split()
    assert fields[3:7] == ["population", population, "archive", "1"]
    assert fields[fields.index("index") + 1] == structures


@pytest.mark.parametrize("text", ["0,3", "20,8", "a", "5,,5"])
def test_device_scale_refuses_sizes_that_do_not_fit(capsys, text):
    tool = load_file("device_scale", ROOT / "tools" / "device_scale.py")
    with pytest.raises(SystemExit):
        tool.main(["--untrusted", text])
    assert "--untrusted" in capsys.readouterr().err


def test_comparing_and_timing_trees_leave_no_bytecode_in_them(tmp_path, capsys, monkeypatch):
    # A ``__pycache__`` left in one tree would make its later children skip
    # compiling the package, and skew a timing pair against the other tree.
    # The tools keep bytecode out even where the caller's environment allows it.
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    trees = [tmp_path / "old", tmp_path / "new"]
    for tree in trees:
        shutil.copytree(
            ROOT / "src" / "qaiccc", tree / "src" / "qaiccc",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    assert load_tool().main([str(trees[0]), str(trees[1]), "--only", "i00"]) == 0
    scale = load_file("device_scale", ROOT / "tools" / "device_scale.py")
    assert scale.main([str(trees[1]), "--k", "1"]) == 0
    capsys.readouterr()
    assert [path for tree in trees for path in (tree / "src").rglob("__pycache__")] == []


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    tool = load_file("code_lines", ROOT / "tools" / "code_lines.py")
    source = '"""A module docstring\nover two lines."""\n\n# a comment\nx = 1\ny = [\n    2]\n'
    assert tool.code_lines(source) == 3


def test_code_lines_total_is_the_sum_of_the_module_lines(capsys):
    tool = load_file("code_lines", ROOT / "tools" / "code_lines.py")
    assert tool.main([str(ROOT)]) == 0
    tree, *modules, total = capsys.readouterr().out.splitlines()
    assert tree == str(ROOT)
    counts = dict(line.split() for line in modules)
    assert set(counts) == {path.name for path in (ROOT / "src" / "qaiccc").glob("*.py")}
    assert total.split() == ["total", str(sum(map(int, counts.values())))]

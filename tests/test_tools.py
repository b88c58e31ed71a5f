"""``tools/compare_reports.py`` on one benchmark instance."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_reports", ROOT / "tools" / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_shows_no_difference(capsys):
    assert load_tool().main([str(ROOT), str(ROOT), "--only", "i00"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "9 commands, 0 with differences"


def test_changed_report_bytes_are_flagged(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "qaiccc", tmp_path / "src" / "qaiccc")
    cli = tmp_path / "src" / "qaiccc" / "cli.py"
    cli.write_text(cli.read_text().replace('"qaiccc-report/1"', '"qaiccc-report/x"'))
    assert load_tool().main([str(ROOT), str(tmp_path), "--only", "i00"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "9 commands, 4 with differences"
    assert all(line.startswith("i00: differs in report: allocate ") for line in lines[:-1])

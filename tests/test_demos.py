"""Smoke tests for the narrative scripts in demos/."""

import importlib.util
import pathlib

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
# 02 and 03 replicate hundreds of runs, so the tests below run them on a few
QUICK = ("01_single_run_walkthrough", "04_pr_activity", "05_deployments")


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_quick_demos_exist():
    assert {path.stem for path in DEMOS} >= set(QUICK)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, capsys):
    load(DEMO_DIR / f"{name}.py").main()
    assert capsys.readouterr().out


def test_the_premature_termination_demo_runs(monkeypatch, capsys):
    demo = load(DEMO_DIR / "02_premature_termination.py")
    monkeypatch.setattr(demo, "RUNS", 5)
    demo.main()
    assert capsys.readouterr().out.startswith("of 5 runs, ")


def test_the_protocol_comparison_demo_reads_its_table_off_the_cells(monkeypatch, capsys):
    demo = load(DEMO_DIR / "03_protocol_comparison.py")
    monkeypatch.setattr(demo, "GRID", demo.GRID._replace(runs=2))
    demo.main()
    out = capsys.readouterr().out
    assert all(f"\n{proto:<10}" in out for proto in demo.GRID.protocols)
    assert out.count("(paper ") == len(demo.PAPER_CUTS)

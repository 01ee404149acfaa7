"""Smoke tests for the narrative scripts in demos/."""

import importlib.util
import pathlib

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
# 02 and 03 replicate hundreds of runs (about half a minute each): import only
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

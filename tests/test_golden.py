"""Golden corpus: the committed sweep output must be reproduced byte for byte.

Each grid config in `tests/golden/` has a per-run and an aggregate CSV next to
it, written by `rendezsim sweep --config <grid> --out <agg> --runs-out <runs>`:

- `grid.txt` (`runs.csv`, `agg.csv`): every protocol and termination policy
  at N=3 and N=10, including capped `incomplete` rows;
- `grid20.txt` (`runs20.csv`, `agg20.csv`): the paper's scale, N=20 and C=20
  with similarity 2 and 5, on one shared deployment;
- `gridpr.txt` (`runspr.csv`, `aggpr.csv`): N=3 and C=7 under light and slow
  PR (`0.5:0.5`, `2:2`, `0.02:0.02`), whose spells are shorter than a
  half-slot or cross a block of the PR schedule; the other two use `high`.

A change that alters any simulated number fails here. A deliberate change to
the random stream regenerates the files in a commit of its own. The corpora
also pin the simulation across interpreters: every other CPython from 3.10
to 3.13 found on PATH runs both golden sweeps from the source tree.
"""

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rendezsim.cli import main
from rendezsim.experiments import aggregate_csv, parse_grid_config, run_grid, runs_csv

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
CORPORA = {"grid": ("grid.txt", "runs.csv", "agg.csv"),
           "grid20": ("grid20.txt", "runs20.csv", "agg20.csv"),
           "gridpr": ("gridpr.txt", "runspr.csv", "aggpr.csv")}


@pytest.mark.parametrize("grid_file, runs_file, agg_file",
                         CORPORA.values(), ids=CORPORA.keys())
def test_sweep_reproduces_the_golden_csvs(grid_file, runs_file, agg_file):
    grid = parse_grid_config((GOLDEN / grid_file).read_text())
    result = run_grid(grid)
    assert _text(runs_csv, result) == (GOLDEN / runs_file).read_text()
    assert _text(aggregate_csv, result) == (GOLDEN / agg_file).read_text()


def _text(write_csv, result):
    """What write_csv (runs_csv or aggregate_csv) writes for result, as one string."""
    out = io.StringIO()
    write_csv(result, out)
    return out.getvalue()


@pytest.mark.parametrize("runs_file", [runs for _, runs, _ in CORPORA.values()],
                         ids=CORPORA.keys())
def test_audit_replays_the_golden_runs(runs_file, capsys):
    assert main(["audit", str(GOLDEN / runs_file)]) == 0
    assert capsys.readouterr().out.endswith(", 0 mismatch(es)\n")


def test_other_interpreters_reproduce_the_goldens(tmp_path):
    running = f"python{sys.version_info.major}.{sys.version_info.minor}"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    checked = []
    for name in ("python3.10", "python3.11", "python3.12", "python3.13"):
        exe = shutil.which(name)
        # a pyenv shim for a version that is installed but not selected
        # exits 127
        if name == running or exe is None or subprocess.run(
                [exe, "-c", "pass"], capture_output=True).returncode != 0:
            continue
        for grid_file, runs_file, agg_file in CORPORA.values():
            runs, agg = tmp_path / f"{name}-{runs_file}", tmp_path / f"{name}-{agg_file}"
            subprocess.run([exe, "-m", "rendezsim.cli", "sweep", "--config", str(GOLDEN / grid_file),
                            "--out", str(agg), "--runs-out", str(runs)],
                           env=env, check=True, capture_output=True)
            assert runs.read_bytes() == (GOLDEN / runs_file).read_bytes(), (name, runs_file)
            assert agg.read_bytes() == (GOLDEN / agg_file).read_bytes(), (name, agg_file)
        checked.append(name)
    if not checked:
        pytest.skip(f"no CPython 3.10-3.13 other than {running} runs here")

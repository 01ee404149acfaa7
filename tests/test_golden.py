"""Golden corpus: the committed sweep output must be reproduced byte for byte.

`tests/golden/grid.txt` is a small sweep over every protocol and termination
policy; `runs.csv` and `agg.csv` next to it were written by
`rendezsim sweep --config grid.txt --out agg.csv --runs-out runs.csv`. A change
that alters any simulated number fails here. A deliberate change to the random
stream regenerates both files in a commit of its own.
"""

from pathlib import Path

from rendezsim.cli import main
from rendezsim.experiments import aggregate_csv, parse_grid_config, run_grid, runs_csv

GOLDEN = Path(__file__).parent / "golden"


def test_sweep_reproduces_the_golden_csvs():
    grid = parse_grid_config((GOLDEN / "grid.txt").read_text())
    result = run_grid(grid)
    assert runs_csv(result) == (GOLDEN / "runs.csv").read_text()
    assert aggregate_csv(result) == (GOLDEN / "agg.csv").read_text()


def test_audit_replays_the_golden_runs(capsys):
    assert main(["audit", str(GOLDEN / "runs.csv")]) == 0
    assert capsys.readouterr().out.endswith(", 0 mismatch(es)\n")

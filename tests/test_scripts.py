"""Smoke tests of the scripts under scripts/: they run against the
package's public names, which no other test imports the way they do."""

import os
import subprocess
import sys
from pathlib import Path

import degenpde

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(degenpde.__file__).parents[1]))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_run_examples_solves_every_bundled_problem(tmp_path):
    run = _run("run_examples.py", "--output-dir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "6 problems, 0 failures"
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        f"example{i}.csv" for i in (1, 2, 3, 4, 5, 7)]


def test_convergence_study_prints_one_ratio_per_study():
    run = _run("convergence_study.py", "--dt-levels", "2", "--node-levels", "2")
    assert run.returncode == 0, run.stderr
    # two dt studies (evolution1, evolution2), the node study and the
    # corner study, whose trapezoid sweep converges at second order
    studies = run.stdout.strip().split("\n\n")
    ratios = [[float(ln.split()[-1]) for ln in study.splitlines() if "ratio" in ln]
              for study in studies]
    assert [len(r) for r in ratios] == [1, 1, 1, 1], run.stdout
    assert all(3.5 <= r <= 4.5 for r in ratios[3]), run.stdout

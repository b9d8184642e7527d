"""Smoke runs of the experiment scripts at tiny sizes: each exits 0 and
prints its header line."""

from pathlib import Path

import pytest

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("zeroshot_transfer.py",
         ["--pairs", "30", "--concepts", "12", "--intents", "4", "--epochs", "1"],
         "30 pairs over 12 concepts, 4-intent probe"),
        ("fewshot_benchmark.py",
         ["--intents", "4", "--shots", "1", "--seeds", "0", "--epochs", "1"],
         "4 intents, 80 test utterances, 1 runs per setting"),
        ("group_size_sweep.py",
         ["--intents", "4", "--k-values", "2", "4", "--epochs", "1"],
         "4 intents; padding-minimizing k over [2, 4] is"),
    ],
)
def test_script_runs(tmp_path, script, args, header):
    out = run_python([str(SCRIPTS / script), *args], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(header), out.stdout

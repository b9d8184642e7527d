"""Smoke runs of the experiment scripts at tiny sizes: each exits 0 and
prints its header line. The benchmark comparison's summary is checked on
fixed runs, without running the benchmark."""

import importlib.util
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


def _bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPTS / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, seed, side, **metrics):
    values = {name: {"value": v, "unit": ""} for name, v in metrics.items()}
    return {"workload": workload, "seed": seed, "side": side, "trace": 0,
            "result": {"metrics": values, "failed": 0, "attempted": 1}}


def test_bench_compare_summary_on_fixed_runs():
    bc = _bench_compare()
    end_to_end = [{"name": "ms", "better": "lower"}, {"name": "rate", "better": "higher"}]
    runs = []
    for seed, (parent_ms, change_ms) in enumerate([(3.0, 1.0), (3.2, 1.5), (3.4, 3.4), (3.6, 0.5)]):
        runs.append(_run("w", seed, "change", ms=change_ms, rate=10.0 + seed))
        runs.append(_run("w", seed, "parent", ms=parent_ms, rate=10.0))
    runs.append(_run("v", 0, "parent", ms=1.0, rate=1.0))
    runs.append(_run("v", 0, "change", ms=1.0, rate=0.5))
    summary = bc.summarize(runs, end_to_end)

    ms = summary["w"]["ms"]
    assert ms["parent"] == pytest.approx({"median": 3.3, "q1": 3.05, "q3": 3.55, "n": 4})
    assert ms["change"] == pytest.approx({"median": 1.25, "q1": 0.625, "q3": 2.925, "n": 4})
    assert (ms["wins"], ms["losses"], ms["ties"]) == (3, 0, 1)
    rate = summary["w"]["rate"]
    assert (rate["wins"], rate["losses"], rate["ties"]) == (3, 0, 1)
    one = summary["v"]["rate"]
    assert one["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}
    assert (one["wins"], one["losses"], one["ties"]) == (0, 1, 0)

    verdict = bc.claim(summary, "w", "ms")
    assert verdict["parent_iqr"] == pytest.approx(0.5) and (verdict["wins"], verdict["pairs"]) == (3, 4)
    assert not verdict["met"]  # 3 of 4 pairs is under nine tenths
    runs[4]["result"]["metrics"]["ms"]["value"] = 3.3  # the tie becomes a win
    verdict = bc.claim(bc.summarize(runs, end_to_end), "w", "ms")
    assert verdict["wins"] == 4 and verdict["met"]
    for change, parent in zip(runs[0:8:2], runs[1:8:2]):  # every pair won by less than the IQR
        change["result"]["metrics"]["ms"]["value"] = parent["result"]["metrics"]["ms"]["value"] - 0.1
    verdict = bc.claim(bc.summarize(runs, end_to_end), "w", "ms")
    assert verdict["wins"] == 4 and not verdict["met"]

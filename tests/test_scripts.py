"""Smoke runs of the experiment scripts at tiny sizes: each exits 0 and
prints its header line. The benchmark comparison's summary is checked on
fixed runs, without running the benchmark."""

import importlib.util
import json
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
            "result": {"metrics": values, "correct": True, "failed": 0, "attempted": 1}}


def test_bench_compare_summary_on_fixed_runs():
    bc = _bench_compare()
    end_to_end = [{"name": "ms", "better": "lower", "bound": 0.25},
                  {"name": "rate", "better": "higher", "bound": 0.25}]
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

    verdict = bc.claim(summary, runs, "w", "ms")
    assert verdict["parent_iqr"] == pytest.approx(0.5) and (verdict["wins"], verdict["pairs"]) == (3, 4)
    assert not verdict["met"]  # 3 of 4 pairs is under nine tenths
    runs[4]["result"]["metrics"]["ms"]["value"] = 3.3  # the tie becomes a win
    verdict = bc.claim(bc.summarize(runs, end_to_end), runs, "w", "ms")
    assert verdict["wins"] == 4 and verdict["met"]
    for change, parent in zip(runs[0:8:2], runs[1:8:2]):  # every pair won by less than the IQR
        change["result"]["metrics"]["ms"]["value"] = parent["result"]["metrics"]["ms"]["value"] - 0.1
    verdict = bc.claim(bc.summarize(runs, end_to_end), runs, "w", "ms")
    assert verdict["wins"] == 4 and not verdict["met"]


def test_bench_compare_regressions_and_failures():
    bc = _bench_compare()
    end_to_end = [{"name": "ms", "better": "lower", "bound": 0.25},
                  {"name": "rate", "better": "higher", "bound": 0.1}]
    runs = []
    for seed in range(10):
        runs.append(_run("w", seed, "parent", ms=2.0 + 0.01 * seed, rate=10.0))
        runs.append(_run("w", seed, "change", ms=1.0 + 0.01 * seed, rate=8.9))
        runs.append(_run("v", seed, "parent", ms=1.0, rate=10.0))
        runs.append(_run("v", seed, "change", ms=1.26, rate=9.1))
    summary = bc.summarize(runs, end_to_end)
    # Lower is better for ms: a fall is no regression, a rise past the bound is.
    assert not summary["w"]["ms"]["regressed"] and summary["v"]["ms"]["regressed"]
    # Higher is better for rate: 8.9 is 11% under 10, 9.1 is 9% under.
    assert summary["w"]["rate"]["regressed"] and not summary["v"]["rate"]["regressed"]
    verdict = bc.claim(summary, runs, "w", "ms")
    assert verdict["met"] and verdict["change_correct"]
    assert verdict["failed"] == {"parent": 0, "change": 0}

    failing = [dict(run, result=dict(run["result"])) for run in runs]
    change = [r for r in failing if r["workload"] == "w" and r["side"] == "change"]
    change[3]["result"].update(correct=False, failed=1)
    verdict = bc.claim(bc.summarize(failing, end_to_end), failing, "w", "ms")
    assert not verdict["met"] and not verdict["change_correct"]

    change[3]["result"]["correct"] = True  # more failures than the parent, every check passed
    verdict = bc.claim(bc.summarize(failing, end_to_end), failing, "w", "ms")
    assert verdict["change_correct"] and verdict["failed"] == {"parent": 0, "change": 1}
    assert not verdict["met"]
    parent = [r for r in failing if r["workload"] == "w" and r["side"] == "parent"]
    parent[5]["result"]["failed"] = 1  # as many as the parent
    assert bc.claim(bc.summarize(failing, end_to_end), failing, "w", "ms")["met"]
    # A failure on another workload does not count against this one.
    other = [r for r in failing if r["workload"] == "v" and r["side"] == "change"]
    other[0]["result"].update(correct=False, failed=3)
    assert bc.claim(bc.summarize(failing, end_to_end), failing, "w", "ms")["met"]


def test_bench_compare_unresolved_when_the_parent_spreads_past_the_bound():
    bc = _bench_compare()
    end_to_end = [{"name": "ms", "better": "lower", "bound": 0.1}]
    parent = [1.0, 1.3, 0.8, 1.1, 0.9, 1.2, 1.0, 0.7, 1.4, 1.0]  # IQR 0.35 against 0.1 of a median of 1.0
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]

    def summary(parent_ms, change_ms):
        runs = [_run("w", seed, side, ms=ms)
                for seed, pair in enumerate(zip(parent_ms, change_ms))
                for side, ms in zip(("parent", "change"), pair)]
        return bc.summarize(runs, end_to_end)["w"]["ms"]

    mixed = summary(parent, [0.9 * v for v in reversed(parent)])
    assert mixed["unresolved"] and not mixed["regressed"]
    # Every change run reads better than every parent run: resolved at any spread.
    faster = summary(parent, [0.6 - 0.01 * i for i in range(10)])
    assert not faster["unresolved"]
    assert summary(parent, [0.7] * 10)["unresolved"]  # a tie with the parent's best run is no win
    assert not summary(steady, list(reversed(steady)))["unresolved"]
    # Higher is better: the comparison turns with the direction.
    end_to_end[0]["better"] = "higher"
    assert not summary(parent, [1.5] * 10)["unresolved"]
    assert summary(parent, [0.6] * 10)["unresolved"]


def _refuse_runs(monkeypatch, bc):
    def run_once(*args):
        raise AssertionError("the benchmark ran before its arguments were checked")

    monkeypatch.setattr(bc, "run_once", run_once)


@pytest.mark.parametrize(
    "pairs, claim, message",
    [
        (["predict_c150"], None, "is not WORKLOAD=COUNT"),
        (["predict_c151=2"], None, "is not WORKLOAD=COUNT"),
        (["predict_c150=two"], None, "is not WORKLOAD=COUNT"),
        (["predict_c150=0"], None, "is not WORKLOAD=COUNT"),
        (["train_b77=1", "train_b77=2"], None, "names train_b77 twice"),
        (["predict_c150=2"], "predict_c150:predict_utt_per_sec", "is not WORKLOAD:METRIC"),
        (["predict_c150=2"], "train_b77:wall_s", "is not WORKLOAD:METRIC"),
        (["predict_c150=2"], "predict_c150", "is not WORKLOAD:METRIC"),
        (["predict_c150=3"], None, "more pairs than seeds"),
    ],
)
def test_bench_compare_checks_pairs_and_claim_before_any_run(
    monkeypatch, tmp_path, capsys, pairs, claim, message
):
    bc = _bench_compare()
    _refuse_runs(monkeypatch, bc)
    argv = ["--parent", str(tmp_path), "--change", str(SCRIPTS.parent), "--label", "x",
            "--parent-sha", "abc123", "--seeds", "1", "2", "--out-dir", str(tmp_path), "--pairs", *pairs]
    with pytest.raises(SystemExit) as exit_info:
        bc.main(argv + ([] if claim is None else ["--claim", claim]))
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bench_compare_names_the_parent_of_a_tree_without_git(monkeypatch, tmp_path, capsys):
    bc = _bench_compare()
    argv = ["--parent", str(tmp_path), "--change", str(SCRIPTS.parent), "--label", "x",
            "--pairs", "predict_c150=2", "--seeds", "1", "2", "--out-dir", str(tmp_path)]
    _refuse_runs(monkeypatch, bc)
    with pytest.raises(SystemExit) as exit_info:
        bc.main(argv)
    assert exit_info.value.code == 2 and "pass --parent-sha" in capsys.readouterr().err

    metrics = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics},
              "correct": True, "failed": 0, "attempted": 1}
    monkeypatch.setattr(bc, "run_once", lambda *args: {"env": {"seed": 1}, "result": result})
    assert bc.main(argv + ["--parent-sha", "abc123", "--claim", "predict_c150:wall_s"]) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert record["parent"] == "abc123" and len(record["runs"]) == 4
    assert record["claim"]["pairs"] == 2 and not record["claim"]["met"]


def test_bench_compare_shared_env_leaves_out_what_differs_by_run(monkeypatch, tmp_path):
    bc = _bench_compare()
    metrics = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics},
              "correct": True, "failed": 0, "attempted": 1}
    shas = {tmp_path: None, SCRIPTS.parent: "c0ffee"}

    def run_once(tree, workload, seed, seconds):
        return {"env": {"seed": seed, "git_sha": shas[tree], "python": "3"}, "result": result}

    monkeypatch.setattr(bc, "run_once", run_once)
    argv = ["--parent", str(tmp_path), "--change", str(SCRIPTS.parent), "--label", "x",
            "--parent-sha", "abc123", "--pairs", "predict_c150=2", "--seeds", "1", "2",
            "--out-dir", str(tmp_path)]
    assert bc.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert record["env"] == {"python": "3"}
    assert [r["env"]["git_sha"] for r in record["runs"]] == [None, "c0ffee", "c0ffee", None]

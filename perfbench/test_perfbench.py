"""Tests of the benchmark itself: traced and untraced runs agree, the tracer
puts back everything it wrapped, self time is computed from child spans, and
the metric and workload names match BENCHMARK.json.

    python -m pytest perfbench
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, mismatches  # noqa: E402


def _site_objects():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in layers.SITES
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_unit_matches_untraced_and_restores_every_site(name, tmp_path):
    wl = WORKLOADS[name]
    before = _site_objects()
    state = wl.setup(run.REF_SEED, tmp_path, "check")
    plain, _ = wl.unit(state)

    tracer = Tracer()
    tracer.begin_run("unit")
    with tracer.installed(layers.SITES):
        assert all(
            getattr(importlib.import_module(m), a) is not before[(m, a)] for m, a in before
        )
        traced, _ = wl.unit(state, tracer)

    assert mismatches(plain.outputs, traced.outputs, 0.0) == []
    assert _site_objects() == before
    units = tracer.totals("unit")
    assert units.calls("encoder.tokenize") > 0
    assert units.calls("objective.cosine_sim") > 0
    metrics = layers.per_layer_metrics(units, tracer.totals("setup"), 0.0)
    assert list(metrics) == [m["name"] for m in run.spec()["per_layer"]]


def test_sites_restored_when_traced_code_raises():
    before = _site_objects()
    with pytest.raises(RuntimeError):
        with Tracer().installed(layers.SITES):
            raise RuntimeError("boom")
    assert _site_objects() == before


def test_self_time_subtracts_children_only():
    tracer = Tracer()
    tracer.begin_run("unit")
    outer = tracer.open(tracer.name_id("trainer.fit_items"))
    for _ in range(2):
        child = tracer.open(tracer.name_id("encoder.tokenize"))
        grandchild = tracer.open(tracer.name_id("objective.batch_loss"))
        tracer.close(grandchild)
        tracer.close(child)
    tracer.close(outer)

    spans = tracer.arrays()
    dur = spans["end_ns"] - spans["start_ns"]
    own = tracer.self_ns()
    assert list(spans["parent"]) == [-1, 0, 1, 0, 3]
    assert own[0] == dur[0] - dur[1] - dur[3]
    assert own[1] == dur[1] - dur[2]
    assert own[2] == dur[2]
    assert (own >= 0).all()


def test_wrapper_counts_calls_and_distinct_results():
    tracer = Tracer()
    tracer.begin_run("unit")
    seen = []

    def observe(tr, args, kwargs, result):
        tr.count("calls")
        tr.count_distinct("values", result)
        seen.append(args)

    double = tracer.wrap(lambda x: 2 * x, "encoder.double", observe)
    assert [double(1), double(1), double(2)] == [2, 2, 4]
    totals = tracer.totals("unit")
    assert totals.calls("encoder.double") == 3
    assert totals.count("calls") == 3
    assert totals.count("values") == 2
    assert seen == [(1,), (1,), (2,)]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in run.spec()["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train_b77",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Every library function the traced benchmark wraps still exists where it
wraps it, so a refactor that drops or moves one of those names fails here
and not only under `python -m pytest perfbench`; a traced training run
still reaches the sites that count its sequences and spans; traced mining
still counts one `rank` query per anchor; and each
workload's small check instance still gives the outputs the benchmark's
reference holds, so a change to the library's outputs fails here too."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from fewintent import pretrain, trainer
from fewintent.evaluator import generate_paraphrase_corpus

from conftest import make_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites():
    return [(module, attr) for module, attr, _, _ in _load("layers").SITES]


@pytest.mark.parametrize("module, attr", _sites(), ids=lambda name: name)
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("attention", [False, True])
def test_traced_training_counts_sequences_and_slot_spans(attention):
    layers, tracing = _load("layers"), _load("tracing")
    data = make_dataset(n_intents=5, per_intent=2)  # 10 utterances, 2 groups of 3
    cfg = trainer.TrainConfig(k=3, epochs=1, d_emb=8, d_hidden=8, d_out=8,
                              shuffles_per_sequence=1, attention=attention)
    tracer = tracing.Tracer()
    tracer.begin_run("unit")
    with tracer.installed(layers.SITES):
        trainer.train(data, None, cfg)
    units = tracer.totals("unit")
    assert units.count("encoder.sequences") == 10 * 2
    assert units.count("encoder.slot_spans") == 10 * 2 * 3


def test_traced_mining_counts_one_rank_call_per_anchor():
    layers, tracing = _load("layers"), _load("tracing")
    pairs = generate_paraphrase_corpus(20, 12, seed=0)
    tracer = tracing.Tracer()
    tracer.begin_run("unit")
    tasks = pretrain.build_paraphrase_instances(
        pairs, 6, 3, index_factory=layers.index_factory(tracer)
    )
    assert len(tasks) == 2 * len(pairs)
    assert tracer.totals("unit").count("pretrain.rank_calls") == len(tasks)


REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_check_instance_matches_reference(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its sibling `layers`
    workloads = importlib.import_module("workloads")
    wl, ref = workloads.WORKLOADS[name], REFERENCE[name]
    unit, _ = wl.unit(wl.setup(ref["check_seed"], tmp_path, "check"))
    assert workloads.mismatches(ref["check"], unit.outputs) == []

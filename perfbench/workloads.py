"""The three benchmark workloads.

Each workload builds its inputs from the library's own generators, writes
them to disk and loads them back (set-up), then runs one unit of work per
call to ``unit``. A unit returns its timings, the deterministic outputs the
output check compares, and the model an online client then queries one
utterance at a time. Library functions are looked up through their modules
at call time, so the traced run's wrappers see the benchmark's calls too.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from fewintent import corpus, encoder, evaluator, pretrain, sequencer, trainer

import layers

NOISE_TOKENS = 3


@dataclass
class Unit:
    outputs: dict  # deterministic: compared across units and with references
    wall_s: float
    predict_utts: int
    predict_s: float
    train_seqs: int = 0
    train_s: float = 0.0


@dataclass
class Model:
    """What the online client queries: a model, its inventory, and the top-1
    intent the batch pass gave each utterance."""

    params: object
    vocab: object
    data: object  # Dataset whose utterances the client sends
    k: int
    top1: list


def _write_dataset(data, path: Path) -> Path:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for ex in data.examples:
            rec = {"text": ex.text, "label": data.labels[ex.intent_id].raw_name}
            if ex.domain is not None:
                rec["domain"] = ex.domain
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def _write_inventory(labels, path: Path) -> Path:
    path.write_text("".join(lab.raw_name + "\n" for lab in labels), encoding="utf-8")
    return path


def _load_task(train, test, workdir: Path):
    """Round-trip a generated (train, test) pair through JSONL files."""
    inventory = _write_inventory(train.labels, workdir / "labels.txt")
    loaded = []
    for name, data in (("train", train), ("test", test)):
        if data is None:
            continue
        path = _write_dataset(data, workdir / f"{name}.jsonl")
        loaded.append(corpus.load_dataset(path, "jsonl", inventory=inventory))
    return loaded


def _top1(preds) -> list[int]:
    return [p.predicted for p in preds]


def _accuracy_pct(top1, data) -> float:
    hits = sum(1 for t, ex in zip(top1, data.examples) if t == ex.intent_id)
    return 100.0 * hits / len(data.examples)


def _digest(top1) -> str:
    return hashlib.sha256(",".join(map(str, top1)).encode()).hexdigest()


def _predict(params, vocab, data, k):
    """Batch prediction; returns (top-1 ids, seconds)."""
    t0 = time.perf_counter()
    preds = evaluator.predict_dataset(params, vocab, data, k)
    return _top1(preds), time.perf_counter() - t0


class TrainB77:
    """``train()`` on a BANKING77-shaped task, then batch scoring of its test set."""

    name = "train_b77"
    n_intents = 77
    setup_repeats = 25
    min_units = 2
    sizes = {
        "full": {"shots": 2, "test_per_intent": 5, "shuffles": None},
        "check": {"shots": 2, "test_per_intent": 1, "shuffles": 2},
    }

    def setup(self, seed: int, workdir: Path, size: str = "full"):
        p = self.sizes[size]
        pool, test = evaluator.generate_synthetic(
            self.n_intents, p["shots"], NOISE_TOKENS, seed, test_per_intent=p["test_per_intent"]
        )
        data, test = _load_task(pool, test, workdir)
        train, dev = corpus.split_dev(data, 0.1, seed)
        cfg = trainer.TrainConfig(epochs=1, seed=seed, shuffles_per_sequence=p["shuffles"])
        k = sequencer.choose_k(data.n_intents, cfg.k_min, cfg.k_max)
        per_plan = cfg.shuffles_per_sequence or k
        seqs = len(train.examples) * math.ceil(data.n_intents / k) * per_plan * cfg.epochs
        return SimpleNamespace(train=train, dev=dev, test=test, cfg=cfg, k=k, seqs=seqs)

    def unit(self, st, tracer=None):
        t0 = time.perf_counter()
        params, report, vocab = trainer.train(st.train, st.dev, st.cfg)
        t1 = time.perf_counter()
        top1, predict_s = _predict(params, vocab, st.test, st.k)
        outputs = {
            "accuracy_pct": report.epoch_metrics[report.best_epoch],
            "selection": report.selection,
            "epoch_losses": report.epoch_losses,
            "test_accuracy_pct": _accuracy_pct(top1, st.test),
            "top1_digest": _digest(top1),
        }
        unit = Unit(outputs, t1 - t0 + predict_s, len(st.test.examples), predict_s, st.seqs, t1 - t0)
        return unit, Model(params, vocab, st.test, st.k, top1)


class PredictC150:
    """Batch scoring of a CLINC-shaped test set with a checkpoint trained
    briefly and saved during set-up, then loaded."""

    name = "predict_c150"
    n_intents = 150
    setup_repeats = 5
    min_units = 1
    sizes = {"full": {"test_per_intent": 2}, "check": {"test_per_intent": 1}}

    def setup(self, seed: int, workdir: Path, size: str = "full"):
        p = self.sizes[size]
        pool, test = evaluator.generate_synthetic(
            self.n_intents, 1, NOISE_TOKENS, seed, test_per_intent=p["test_per_intent"]
        )
        data, test = _load_task(pool, test, workdir)
        cfg = trainer.TrainConfig(epochs=1, seed=seed, shuffles_per_sequence=3)
        k = sequencer.choose_k(data.n_intents, cfg.k_min, cfg.k_max)
        t0 = time.perf_counter()
        params, report, vocab = trainer.train(data, None, cfg)
        train_s = time.perf_counter() - t0
        ckpt = workdir / "model.ckpt"
        trainer.save_checkpoint(params, vocab, ckpt)
        params, vocab = trainer.load_checkpoint(ckpt)
        seqs = (
            len(data.examples) * math.ceil(data.n_intents / k)
            * cfg.shuffles_per_sequence * cfg.epochs
        )
        return SimpleNamespace(
            test=test, params=params, vocab=vocab, k=k,
            epoch_losses=report.epoch_losses, train_seqs=seqs, train_s=train_s,
        )

    def unit(self, st, tracer=None):
        top1, predict_s = _predict(st.params, st.vocab, st.test, st.k)
        outputs = {
            "accuracy_pct": _accuracy_pct(top1, st.test),
            "epoch_losses": st.epoch_losses,
            "top1_digest": _digest(top1),
        }
        unit = Unit(outputs, predict_s, len(st.test.examples), predict_s)
        return unit, Model(st.params, st.vocab, st.test, st.k, top1)


class PretrainParaAttn:
    """Paraphrase pretraining with attention and one shuffle per plan, as
    ``pretrain-para --shuffles 1 --attention`` runs it, then zero-shot
    scoring of a transfer task with the pretrained model."""

    name = "pretrain_para_attn"
    n_target = 40
    k = 20
    n_concepts = 80
    setup_repeats = 25
    min_units = 2
    sizes = {
        "full": {"pairs": 1500, "test_per_intent": 10},
        "check": {"pairs": 200, "test_per_intent": 1},
    }

    def setup(self, seed: int, workdir: Path, size: str = "full"):
        p = self.sizes[size]
        pairs = evaluator.generate_paraphrase_corpus(p["pairs"], self.n_concepts, seed)
        tsv = workdir / "pairs.tsv"
        tsv.write_text("".join(f"{q.anchor}\t{q.paraphrase}\n" for q in pairs), encoding="utf-8")
        kept = pretrain.filter_pairs(pretrain.pairs_from_tsv(tsv))
        task = evaluator.generate_transfer_task(
            self.n_target, seed, test_per_intent=p["test_per_intent"]
        )
        (task,) = _load_task(task, None, workdir)
        cfg = trainer.TrainConfig(
            k=self.k, epochs=1, seed=seed, shuffles_per_sequence=1, attention=True
        )
        return SimpleNamespace(pairs=kept, task=task, cfg=cfg)

    def unit(self, st, tracer=None):
        cfg = st.cfg
        factory = pretrain.build_similarity_index if tracer is None else layers.index_factory(tracer)
        t0 = time.perf_counter()
        tasks = pretrain.build_paraphrase_instances(
            st.pairs, self.n_target, cfg.k, seed=cfg.seed, index_factory=factory
        )
        sentences = dict.fromkeys(s for q in st.pairs for s in (q.anchor, q.paraphrase))
        vocab = encoder.build_vocab([list(sentences)], cfg.min_count)
        params = encoder.init_params(
            len(vocab), cfg.d_emb, cfg.d_hidden, cfg.d_out, cfg.projector_depth,
            seed=cfg.seed, attention=cfg.attention,
        )
        items = [trainer.TrainItem(t.labels, t.plans) for t in tasks]
        t1 = time.perf_counter()
        params, report = trainer.fit_items(items, vocab, params, cfg)
        t2 = time.perf_counter()
        top1, predict_s = _predict(params, vocab, st.task, cfg.k)
        seqs = sum(len(item.plans) for item in items) * cfg.shuffles_per_sequence * cfg.epochs
        outputs = {
            "accuracy_pct": _accuracy_pct(top1, st.task),
            "anchors": len(tasks),
            "epoch_losses": report.epoch_losses,
            "top1_digest": _digest(top1),
        }
        unit = Unit(outputs, t2 - t0 + predict_s, len(st.task.examples), predict_s, seqs, t2 - t1)
        return unit, Model(params, vocab, st.task, cfg.k, top1)


WORKLOADS = {w.name: w for w in (TrainB77(), PredictC150(), PretrainParaAttn())}


def mismatches(expected: dict, got: dict, rel_tol: float = 1e-9) -> list[str]:
    """Differences between reference and actual outputs: losses within
    `rel_tol` relative, everything else exactly."""
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if key == "epoch_losses":
            ok = have is not None and len(have) == len(want) and all(
                abs(a - b) <= rel_tol * max(abs(a), abs(b)) for a, b in zip(want, have)
            )
        else:
            ok = have == want
        if not ok:
            problems.append(f"{key}: expected {want!r}, got {have!r}")
    return problems

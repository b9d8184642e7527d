import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env, restamp_vocab_blob, run_cli, write_checkpoint

TINY = ["--d-emb", "8", "--d-hidden", "8", "--d-out", "8", "--epochs", "2"]


def records(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def by_record(path: Path, kind: str):
    return [r for r in records(path) if r["record"] == kind]


def save_model(path: Path, data_path: Path, dims, attention=False):
    """Save a checkpoint of layer widths `dims` (embedding first) over the
    vocabulary of the JSONL dataset at `data_path`, with small seeded weights."""
    from fewintent.corpus import load_dataset
    from fewintent.encoder import ModelParams, build_vocab, param_shapes
    from fewintent.trainer import save_checkpoint

    vocab = build_vocab([load_dataset(data_path, "jsonl")])
    count = sum(map(math.prod, param_shapes(len(vocab), dims, attention)))
    flat = np.random.default_rng(0).normal(scale=0.1, size=count)
    save_checkpoint(ModelParams.of_flat(flat, len(vocab), dims, attention), vocab, path)


INIT_COMMANDS = [
    ["train", "--train", "data/train.jsonl", "--dev-fraction", "0"],
    ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl", "--shots", "2", "--seeds", "0"],
]


@pytest.fixture
def synth_dir(tmp_path):
    out = run_cli(
        ["synth", "--intents", "4", "--shots", "3", "--noise-tokens", "1",
         "--test-per-intent", "4", "--seed", "3", "--out-dir", "data", "--out", "synth.jsonl"],
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    return tmp_path


class TestPipeline:
    def test_synth_train_eval(self, synth_dir):
        out = run_cli(
            ["train", "--train", "data/train.jsonl", "--k", "4", "--k-min", "2",
             *TINY, "--seed", "3", "--ckpt", "m.ckpt", "--out", "train.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        assert (synth_dir / "m.ckpt").is_file()
        summary = by_record(synth_dir / "train.jsonl", "train_summary")[0]
        assert summary["k"] == 4

        out = run_cli(
            ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl",
             "--shots", "2", "--seeds", "0,1", "--k", "4", "--k-min", "2", *TINY,
             "--out", "eval.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        report = by_record(synth_dir / "eval.jsonl", "eval_report")[0]
        assert "mean" in report and len(report["accuracies"]) == 2

    def test_eval_predictions_out(self, synth_dir):
        out = run_cli(
            ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl",
             "--shots", "2", "--seeds", "5,0", "--k", "4", "--k-min", "2", *TINY,
             "--predictions-out", "preds.jsonl", "--out", "eval.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        test = records(synth_dir / "data/test.jsonl")
        preds = records(synth_dir / "preds.jsonl")
        # one record per seed x test utterance, seeds in the order given
        assert [p["seed"] for p in preds] == [5] * len(test) + [0] * len(test)
        for pred, ex in zip(preds, test + test):
            assert set(pred) == {"seed", "utterance", "gold", "top"}
            assert (pred["utterance"], pred["gold"]) == (ex["text"], ex["label"])
            assert 1 <= len(pred["top"]) <= 5

    def test_config_echoed_first(self, synth_dir):
        recs = records(synth_dir / "synth.jsonl")
        assert recs[0]["record"] == "config"
        assert recs[0]["config"]["seed"] == 3

    def test_ingest(self, synth_dir):
        out = run_cli(
            ["ingest", "--input", "data/train.jsonl", "--out", "ingest.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        rec = by_record(synth_dir / "ingest.jsonl", "dataset")[0]
        assert rec["n_intents"] == 4 and rec["n_examples"] == 12

    def test_zeroshot_and_diagnose(self, synth_dir):
        run_cli(
            ["train", "--train", "data/train.jsonl", "--k", "4", "--k-min", "2",
             *TINY, "--seed", "0", "--ckpt", "m.ckpt", "--out", "train.jsonl"],
            cwd=synth_dir,
        )
        out = run_cli(
            ["zeroshot", "--ckpt", "m.ckpt", "--test", "data/test.jsonl",
             "--k", "4", "--out", "zs.jsonl", "--predictions-out", "preds.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        rec = by_record(synth_dir / "zs.jsonl", "zeroshot")[0]
        assert 0.0 <= rec["accuracy"] <= 100.0
        preds = records(synth_dir / "preds.jsonl")
        assert len(preds) == 16 and len(preds[0]["top"]) == 4

        out = run_cli(
            ["diagnose-topk", "--ckpt", "m.ckpt", "--test", "data/test.jsonl",
             "--k", "4", "--k-top", "2", "--out", "diag.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        rec = by_record(synth_dir / "diag.jsonl", "topk_miss")[0]
        assert rec["miss_count"] >= rec["recovered_count"]

    @pytest.mark.parametrize("attention", [[], ["--attention"]], ids=["plain", "attention"])
    def test_predict_stream_matches_zeroshot(self, synth_dir, attention):
        write_predict_inputs(synth_dir, attention)
        out = run_cli(
            ["zeroshot", "--ckpt", "m.ckpt", "--test", "data/test.jsonl", "--inventory", "inv.txt",
             "--k", "3", "--k-min", "2", "--out", "zs.jsonl", "--predictions-out", "preds.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        texts = [{"text": r["text"]} for r in records(synth_dir / "data/test.jsonl")]
        stdin = "\n".join(json.dumps(t) for t in texts[:8]) + "\n\n" + \
            "\n".join(json.dumps(t) for t in texts[8:]) + "\n"  # a blank line is skipped
        out = run_cli(
            ["predict", "--ckpt", "m.ckpt", "--inventory", "inv.txt", "--k", "3", "--k-min", "2"],
            cwd=synth_dir, stdin=stdin,
        )
        assert out.returncode == 0, out.stderr
        lines = [json.loads(line) for line in out.stdout.splitlines()]
        assert lines[0]["record"] == "config" and lines[0]["command"] == "predict"
        preds = records(synth_dir / "preds.jsonl")
        assert [p["line"] for p in lines[1:]] == [*range(1, 9), *range(10, len(texts) + 2)]
        assert [p["top"] for p in lines[1:]] == [p["top"] for p in preds]

    def test_sweep_k(self, synth_dir):
        out = run_cli(
            ["sweep-k", "--train", "data/train.jsonl", "--dev-fraction", "0.25",
             "--k-values", "2,4", "--k-min", "2", *TINY, "--seed", "1",
             "--out", "sweep.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        rows = by_record(synth_dir / "sweep.jsonl", "sweep_row")
        assert [(r["k"], r["m"], r["padding"]) for r in rows] == [(2, 2, 0), (4, 1, 0)]
        assert "dev_acc" in out.stderr  # aligned table on the diagnostic stream

    def test_pretrain_para_then_zeroshot(self, tmp_path):
        lines = []
        for c in range(0, 12, 2):
            lines.append(f"alpha{c} alpha{c + 1}\tbeta{c} beta{c + 1}")
        (tmp_path / "pairs.tsv").write_text("\n".join(lines) + "\n")
        out = run_cli(
            ["pretrain-para", "--pairs", "pairs.tsv", "--n-target", "4", "--k", "4",
             "--k-min", "2", *TINY, "--seed", "5", "--ckpt", "para.ckpt",
             "--plans-out", "plans.jsonl", "--out", "para.jsonl"],
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        rec = by_record(tmp_path / "para.jsonl", "pretrain_para_summary")[0]
        assert rec["t_negatives"] == 3 and rec["n_anchors"] == 12
        assert (tmp_path / "plans.jsonl").is_file()

        task = tmp_path / "task.jsonl"
        rows = [
            {"text": f"alpha{2 * i} alpha{2 * i + 1}", "label": f"beta{2 * i} beta{2 * i + 1}"}
            for i in range(3)
        ]
        task.write_text("\n".join(json.dumps(r) for r in rows))
        out = run_cli(
            ["zeroshot", "--ckpt", "para.ckpt", "--test", "task.jsonl",
             "--k", "3", "--out", "zs.jsonl"],
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr

    def test_pretrain_ood(self, tmp_path):
        def write(path, rows):
            path.write_text("\n".join(json.dumps(r) for r in rows))

        write(tmp_path / "target.jsonl", [
            {"text": "pay my bill", "label": "pay bill", "domain": "banking"},
            {"text": "check balance", "label": "balance", "domain": "banking"},
        ])
        write(tmp_path / "o1.jsonl", [
            {"text": f"set alarm {i}", "label": "alarm set", "domain": "alarm"} for i in range(4)
        ])
        write(tmp_path / "o2.jsonl", [
            {"text": f"weather {i}", "label": "weather", "domain": "weather"} for i in range(4)
        ] + [
            {"text": "transfer cash", "label": "transfer", "domain": "banking"},
        ])
        out = run_cli(
            ["pretrain-ood", "--target", "target.jsonl", "--others", "o1.jsonl,o2.jsonl",
             "--exclude-domains", "banking", "--k", "2", "--k-min", "2",
             "--dev-fraction", "0", *TINY, "--seed", "2",
             "--ckpt", "ood.ckpt", "--out", "ood.jsonl"],
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        rec = by_record(tmp_path / "ood.jsonl", "pretrain_ood_summary")[0]
        assert rec["n_intents_union"] == 2  # banking examples dropped
        assert rec["n_examples"] == 8

        # warm start from the pretrained checkpoint keeps the vocabulary unchanged
        out = run_cli(
            ["train", "--train", "target.jsonl", "--dev-fraction", "0", "--k", "2",
             "--k-min", "2", *TINY, "--seed", "2", "--init", "ood.ckpt",
             "--ckpt", "ft.ckpt", "--out", "ft.jsonl"],
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        from fewintent.trainer import load_checkpoint

        _, pre_vocab = load_checkpoint(tmp_path / "ood.ckpt")
        _, ft_vocab = load_checkpoint(tmp_path / "ft.ckpt")
        assert ft_vocab.tokens == pre_vocab.tokens

    def test_pretrain_ood_dev_selection_and_plans(self, tmp_path):
        (tmp_path / "target.jsonl").write_text(
            json.dumps({"text": "pay my bill", "label": "pay bill"}) + "\n"
        )
        rows = [
            {"text": f"{word} please {i}", "label": word, "domain": word}
            for word in ("alarm", "weather", "music")
            for i in range(8)
        ]
        (tmp_path / "ood.jsonl").write_text("\n".join(json.dumps(r) for r in rows))
        out = run_cli(
            ["pretrain-ood", "--target", "target.jsonl", "--others", "ood.jsonl",
             "--k", "2", "--k-min", "2", "--dev-fraction", "0.5", *TINY, "--seed", "4",
             "--plans-out", "plans.jsonl", "--out", "ood.jsonl.out"],
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        rec = by_record(tmp_path / "ood.jsonl.out", "pretrain_ood_summary")[0]
        assert rec["selection"] == "dev_accuracy"  # 12 dev examples: enough for selection
        epochs = by_record(tmp_path / "ood.jsonl.out", "epoch")
        assert all("dev_accuracy" in e for e in epochs)
        # 12 training utterances x ceil(3 intents / k=2) groups, one line per plan
        plans = records(tmp_path / "plans.jsonl")
        assert len(plans) == 12 * 2
        assert all(len(p["slots"]) == 2 for p in plans)

    def test_pretrain_ood_small_dev_cut_trains_on_every_example(self, tmp_path):
        (tmp_path / "target.jsonl").write_text(
            json.dumps({"text": "pay my bill", "label": "pay bill"}) + "\n"
        )
        rows = [
            {"text": f"{word} please {i}", "label": word, "domain": word}
            for word in ("alarm", "weather", "music")
            for i in range(8)
        ]
        (tmp_path / "ood.jsonl").write_text("\n".join(json.dumps(r) for r in rows))
        out = run_cli(
            ["pretrain-ood", "--target", "target.jsonl", "--others", "ood.jsonl",
             "--k", "2", "--k-min", "2", *TINY, "--seed", "4",
             "--plans-out", "plans.jsonl", "--out", "ood.jsonl.out"],
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        rec = by_record(tmp_path / "ood.jsonl.out", "pretrain_ood_summary")[0]
        assert rec["selection"] == "train_loss"  # a 10% cut of 24 is 2 examples: none held out
        # all 24 utterances x ceil(3 intents / k=2) groups, one line per plan
        plans = records(tmp_path / "plans.jsonl")
        assert sorted({p["text"] for p in plans}) == sorted(r["text"] for r in rows)
        assert len(plans) == 24 * 2

    def test_pretrain_ood_plans_out_builds_each_plan_once(self, tmp_path, monkeypatch):
        from fewintent import cli, trainer

        (tmp_path / "target.jsonl").write_text(json.dumps({"text": "pay my bill", "label": "pay bill"}) + "\n")
        rows = [{"text": f"{word} please {i}", "label": word} for word in ("alarm", "weather", "music")
                for i in range(8)]
        (tmp_path / "ood.jsonl").write_text("\n".join(json.dumps(r) for r in rows))
        calls = []
        build_plans = trainer.build_plans
        monkeypatch.setattr(trainer, "build_plans", lambda *a: calls.append(a) or build_plans(*a))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["pretrain-ood", "--target", "target.jsonl", "--others", "ood.jsonl", "--k", "2",
                         "--dev-fraction", "0", *TINY, "--plans-out", "plans.jsonl", "--out", "o.jsonl"]) == 0
        assert len(calls) == len(rows)  # the file is written from the items training runs
        assert len(records(tmp_path / "plans.jsonl")) == len(rows) * 2


    @pytest.mark.parametrize("n_dev, selection", [(16, "dev_accuracy"), (9, "train_loss")])
    def test_train_dev_file_selects_by_its_size(self, synth_dir, n_dev, selection):
        dev_lines = (synth_dir / "data/test.jsonl").read_text().splitlines()[:n_dev]
        (synth_dir / "dev.jsonl").write_text("\n".join(dev_lines) + "\n")
        out = run_cli(
            ["train", "--train", "data/train.jsonl", "--dev", "dev.jsonl", "--k", "4",
             *TINY, "--out", "t.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        assert by_record(synth_dir / "t.jsonl", "train_summary")[0]["selection"] == selection
        epochs = by_record(synth_dir / "t.jsonl", "epoch")
        assert all(("dev_accuracy" in e) == (selection == "dev_accuracy") for e in epochs)

    def test_sweep_k_dev_file_is_scored(self, synth_dir):
        from fewintent.corpus import load_dataset
        from fewintent.evaluator import sweep_k
        from fewintent.trainer import TrainConfig

        out = run_cli(
            ["sweep-k", "--train", "data/train.jsonl", "--dev", "data/test.jsonl",
             "--k-values", "2,4", "--k-min", "2", *TINY, "--out", "s.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        # The whole training file trains and the whole --dev file is scored.
        rows = sweep_k(
            load_dataset(synth_dir / "data/train.jsonl", "jsonl"),
            load_dataset(synth_dir / "data/test.jsonl", "jsonl"),
            TrainConfig(k_min=2, d_emb=8, d_hidden=8, d_out=8, epochs=2), [2, 4],
        )
        got = by_record(synth_dir / "s.jsonl", "sweep_row")
        assert [(r["k"], r["dev_accuracy"]) for r in got] == [(r.k, r.dev_accuracy) for r in rows]

    @pytest.mark.parametrize("command", INIT_COMMANDS, ids=lambda command: command[0])
    def test_warm_start_config_is_the_checkpoints_shape(self, synth_dir, command):
        save_model(synth_dir / "m.ckpt", synth_dir / "data/train.jsonl", (16, 16, 16), attention=True)
        out = run_cli([*command, "--k", "4", "--epochs", "1", "--init", "m.ckpt", "--out", "o.jsonl"],
                      cwd=synth_dir)
        assert out.returncode == 0, out.stderr
        cfg = records(synth_dir / "o.jsonl")[0]["config"]
        shape = {key: cfg[key] for key in ("d_emb", "d_hidden", "d_out", "projector_depth", "attention")}
        assert shape == {"d_emb": 16, "d_hidden": 16, "d_out": 16, "projector_depth": 2, "attention": True}

    @pytest.mark.parametrize(
        "dims, d_hidden, code",
        [((16, 12), "24", 0), ((16, 8, 12, 10), "8", 2)],
        ids=["depth-1", "mixed-hidden"],
    )
    def test_warm_start_without_one_hidden_width_keeps_d_hidden(
        self, synth_dir, monkeypatch, capsys, dims, d_hidden, code
    ):
        from fewintent import cli

        save_model(synth_dir / "m.ckpt", synth_dir / "data/train.jsonl", dims)
        monkeypatch.chdir(synth_dir)
        args = [*INIT_COMMANDS[0], "--k", "4", "--epochs", "1", "--init", "m.ckpt", "--out", "t.jsonl"]
        assert cli.main(args) == 0
        cfg = records(synth_dir / "t.jsonl")[0]["config"]
        assert (cfg["d_emb"], cfg["d_hidden"], cfg["d_out"]) == (16, 64, dims[-1])  # the default d_hidden
        assert cfg["projector_depth"] == len(dims) - 1
        # An explicit width must equal every hidden width; a depth-1 model has none.
        assert cli.main([*args, "--d-hidden", d_hidden]) == code
        if code:
            assert "data error: checkpoint d_hidden is 12, configured 8" in capsys.readouterr().err
        else:
            assert records(synth_dir / "t.jsonl")[0]["config"]["d_hidden"] == 24


def write_predict_inputs(synth_dir, extra=()):
    """Train `m.ckpt` on the synth task and write `inv.txt`, its label
    inventory in reverse order of first appearance."""
    out = run_cli(
        ["train", "--train", "data/train.jsonl", "--k", "3", "--k-min", "2", *TINY, *extra,
         "--seed", "0", "--ckpt", "m.ckpt", "--out", "train.jsonl"],
        cwd=synth_dir,
    )
    assert out.returncode == 0, out.stderr
    names = list(dict.fromkeys(r["label"] for r in records(synth_dir / "data/train.jsonl")))
    (synth_dir / "inv.txt").write_text("\n".join(reversed(names)) + "\n")


# Each command's input options: (option, reading kind, stem of the good file in `fault_inputs`).
# A dataset command's --inventory is read with its datasets; its faults are an inventory's.
INPUT_OPTIONS = {
    "ingest": [("input", "dataset", "train"), ("inventory", "inventory", "inv")],
    "train": [("train", "dataset", "train"), ("dev", "dataset", "test"), ("inventory", "inventory", "inv"),
              ("init", "model", "m")],
    "pretrain-ood": [("target", "dataset", "train"), ("others", "datasets", "test")],
    "pretrain-para": [("pairs", "pairs", "pairs")],
    "eval": [("train", "dataset", "train"), ("test", "dataset", "test"), ("inventory", "inventory", "inv"),
             ("init", "model", "m")],
    "zeroshot": [("ckpt", "model", "m"), ("test", "dataset", "test"), ("inventory", "inventory", "inv")],
    "predict": [("ckpt", "model", "m"), ("inventory", "inventory", "inv")],
    "sweep-k": [("train", "dataset", "train"), ("dev", "dataset", "test"), ("inventory", "inventory", "inv")],
    "diagnose-topk": [("ckpt", "model", "m"), ("test", "dataset", "test"), ("inventory", "inventory", "inv")],
}
OTHER_OPTIONS = {"pretrain-para": ["--n-target", "2"], "eval": ["--shots", "1"], "sweep-k": ["--k-values", "2"]}
EXTENSIONS = {"inventory": ".txt", "pairs": ".tsv", "model": ".ckpt", "dataset": ".jsonl", "datasets": ".jsonl"}
NOUNS = {"inventory": "inventory file", "pairs": "paraphrase file", "model": "checkpoint",
         "dataset": "dataset file", "datasets": "dataset file"}
FAULTS = {  # by reading kind
    "dataset": ["missing", "not-utf8", "wrong-format", "no-suffix", "no-tokens"],
    "inventory": ["missing", "not-utf8"],
    "pairs": ["missing", "not-utf8", "all-filtered"],
    "model": ["missing", "not-utf8"],
}
FAULTS["datasets"] = FAULTS["dataset"]
# The faulty file: it does not exist, holds non-UTF-8 bytes, holds JSONL read under
# --format csv, holds JSONL under a suffix that names no format, or holds only pairs
# over the length caps, or holds an utterance without word tokens. The bad entry of a
# list option comes second.
BAD_FILES = {"missing": "nope", "not-utf8": "bad", "wrong-format": "bad.jsonl", "no-suffix": "bad.txt",
             "all-filtered": "bad.tsv", "no-tokens": "bad.jsonl"}
FAULT_CONTENT = {
    "not-utf8": b"text,category\n\xff\xfe hello\tthere,x\n",
    "wrong-format": json.dumps({"text": "hi there", "label": "greet"}).encode() + b"\n",
    "no-suffix": json.dumps({"text": "hi there", "label": "greet"}).encode() + b"\n",
    "all-filtered": b"one two three four five six seven eight nine ten eleven\tshort\n",
    "no-tokens": "".join(json.dumps({"text": t, "label": lab}) + "\n"
                         for t, lab in [("hi there", "greet"), ("!!!", "bye"), ("bye now", "bye")]).encode(),
}
FAULT_ERRORS = {  # exit code and the start of the one stderr line
    "missing": (2, "data error: {noun} not found: {bad}"),
    "not-utf8": (2, "data error: {bad}: {undecodable}"),
    "wrong-format": (2, "data error: {bad}: expected header 'text,category'"),
    "no-suffix": (1, "usage error: cannot infer format of {bad}; pass --format csv|jsonl"),
    "all-filtered": (2, "data error: no paraphrase pairs survive the length filter"),
    "no-tokens": (2, "data error: {bad}: utterance '!!!' has no tokens"),
}
# Before the input phase every row but the missing-file and checkpoint rows ended
# the run after its config record, among them train-train, train-dev, eval-test and
# pretrain-ood-others with no-suffix, zeroshot-test with wrong-format, ingest-,
# predict- and diagnose-topk-inventory with not-utf8 and pretrain-para-pairs with
# all-filtered. At the parent the input phase let the no-tokens rows through: ingest
# ran to exit 0 and the others failed on the next check, the group size of 2 intents
# (`test_no_token_utterance_ends_run_before_output` gives them a group size that fits).
FAULT_ROWS = [
    pytest.param(command, option, kind, fault, id=f"{command}-{option}-{fault}")
    for command, options in INPUT_OPTIONS.items()
    for option, kind, _ in options
    for fault in FAULTS[kind]
]


# A run of each command that has a group size, on the 4-intent `synth_dir` task: the input
# that `cli._INTENT_COUNT_OPTION` names holds those 4 intents, which the default --k-min of 20
# fits no group size of.
GROUP_SIZE_RUNS = [
    ["train", "--train", "data/train.jsonl"],
    ["pretrain-ood", "--target", "data/train.jsonl", "--others", "data/test.jsonl"],
    ["pretrain-para", "--pairs", "pairs.tsv", "--n-target", "4"],
    ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl", "--shots", "3"],
    ["zeroshot", "--ckpt", "m.ckpt", "--test", "data/test.jsonl"],
    ["predict", "--ckpt", "m.ckpt", "--inventory", "inv.txt"],
    ["sweep-k", "--train", "data/train.jsonl", "--k-values", "2"],
    ["diagnose-topk", "--ckpt", "m.ckpt", "--test", "data/test.jsonl"],
]


@pytest.fixture
def fault_inputs(tmp_path):
    """Good input files for every row of the fault table: two datasets as JSONL
    and as CSV, their inventory, a checkpoint over their vocabulary and pairs."""
    rows = {"train": [("hi there", "greet"), ("bye now", "bye"), ("hello", "greet"), ("see you", "bye")],
            "test": [("hi friend", "greet"), ("bye bye", "bye")]}
    for stem, examples in rows.items():
        (tmp_path / f"{stem}.jsonl").write_text(
            "".join(json.dumps({"text": t, "label": lab}) + "\n" for t, lab in examples))
        (tmp_path / f"{stem}.csv").write_text("text,category\n" + "".join(f"{t},{lab}\n" for t, lab in examples))
    (tmp_path / "inv.txt").write_text("greet\nbye\n")
    (tmp_path / "pairs.tsv").write_text("alpha gamma\tbeta delta\nomega\tpsi chi\n")
    save_model(tmp_path / "m.ckpt", tmp_path / "train.jsonl", [8, 8])
    return tmp_path


class TestExitCodes:
    def test_missing_dataset_is_2(self, tmp_path):
        out = run_cli(["train", "--train", "nope.jsonl", "--out", "x.jsonl"], cwd=tmp_path)
        assert out.returncode == 2
        assert "data error" in out.stderr

    def test_unknown_flag_is_1(self, tmp_path):
        out = run_cli(["train", "--nonsense", "1"], cwd=tmp_path)
        assert out.returncode == 1
        assert "usage error" in out.stderr

    def test_unknown_config_key_is_1(self, tmp_path):
        (tmp_path / "cfg.txt").write_text("bogus_key = 3\n")
        out = run_cli(
            ["train", "--train", "x.jsonl", "--config", "cfg.txt"], cwd=tmp_path
        )
        assert out.returncode == 1
        assert "bogus_key" in out.stderr

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, flag, line",
        [
            ("selection", ["--selection", "train_loss"], "selection = train_loss"),
            ("optimizer", ["--optimizer", "sgd"], "optimizer = sgd"),
            ("include_placeholders", ["--include-placeholders"], "include_placeholders = true"),
        ],
        ids=["selection", "optimizer", "include-placeholders"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["train", "--train", "data/train.jsonl"],
            ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl", "--shots", "2"],
            ["pretrain-ood", "--target", "data/train.jsonl", "--others", "data/test.jsonl"],
            ["pretrain-para", "--pairs", "pairs.tsv", "--n-target", "3"],
            ["sweep-k", "--train", "data/train.jsonl", "--k-values", "2"],
        ],
        ids=lambda command: command[0],
    )
    def test_removed_training_options_are_usage_errors(
        self, synth_dir, monkeypatch, capsys, command, key, flag, line, how
    ):
        from fewintent import cli

        (synth_dir / "pairs.tsv").write_text("alpha gamma\tbeta delta\n")
        (synth_dir / "cfg.txt").write_text(line + "\n")
        monkeypatch.chdir(synth_dir)
        extra = flag if how == "flag" else ["--config", "cfg.txt"]
        assert cli.main([*command, "--epochs", "1", *extra, "--out", "t.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and key.split("_")[0] in err
        assert not (synth_dir / "t.jsonl").exists()

    def test_missing_required_is_1(self, tmp_path):
        out = run_cli(["synth", "--shots", "2"], cwd=tmp_path)
        assert out.returncode == 1
        assert "usage error" in out.stderr

    def test_nan_checkpoint_is_3(self, synth_dir):
        from fewintent.corpus import load_dataset
        from fewintent.encoder import build_vocab, init_params
        from fewintent.trainer import save_checkpoint

        data = load_dataset(synth_dir / "data/train.jsonl", "jsonl")
        vocab = build_vocab([data])
        params = init_params(len(vocab), 8, 8, 8)
        params.embedding[:] = np.nan
        save_checkpoint(params, vocab, synth_dir / "bad.ckpt")
        out = run_cli(
            ["train", "--train", "data/train.jsonl", "--k", "4", "--k-min", "2",
             *TINY, "--init", "bad.ckpt", "--out", "t.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 3
        assert "numeric" in out.stderr

    @pytest.mark.parametrize(
        "dims, attention, message",
        [
            (None, False, "vocabulary is not UTF-8 JSON"),
            ((0, 8), False, "widths >= 1"),
            ((8, 0, 8), False, "widths >= 1"),
            ((0, 8), True, "widths >= 1"),
        ],
        ids=["vocab-not-utf8", "zero-width-embedding", "zero-width-hidden", "zero-width-attention"],
    )
    def test_bad_checkpoint_is_2(self, synth_dir, dims, attention, message):
        from fewintent.corpus import load_dataset
        from fewintent.encoder import build_vocab, init_params
        from fewintent.trainer import save_checkpoint

        data = load_dataset(synth_dir / "data/train.jsonl", "jsonl")
        vocab = build_vocab([data])
        if dims is None:
            save_checkpoint(init_params(len(vocab), 8, 8, 8), vocab, synth_dir / "bad.ckpt")
            restamp_vocab_blob(synth_dir / "bad.ckpt", b"\xff\xfe not utf-8")
        else:  # a file that loaded before widths below 1 were rejected
            write_checkpoint(synth_dir / "bad.ckpt", vocab.tokens, dims, attention)
        out = run_cli(
            ["train", "--train", "data/train.jsonl", "--k", "4", "--k-min", "2",
             *TINY, "--init", "bad.ckpt", "--out", "t.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 2
        assert "data error" in out.stderr and message in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "args, bad_file, code, message",
        [
            (["ingest", "--input", "bad.jsonl"], "bad.jsonl", 2, "data error"),
            (["ingest", "--input", "bad.csv"], "bad.csv", 2, "data error"),
            (["ingest", "--input", "good.jsonl", "--inventory", "bad.txt"], "bad.txt", 2, "data error"),
            (["pretrain-para", "--pairs", "bad.tsv", "--n-target", "2"], "bad.tsv", 2, "data error"),
            (["train", "--train", "good.jsonl", "--config", "bad.txt"], "bad.txt", 1, "usage error"),
        ],
    )
    def test_non_utf8_input(self, tmp_path, args, bad_file, code, message):
        (tmp_path / "good.jsonl").write_text(json.dumps({"text": "hi", "label": "greet"}) + "\n")
        (tmp_path / bad_file).write_bytes(b"text,category\n\xff\xfe hello\tthere,x\n")
        out = run_cli(args, cwd=tmp_path)
        assert out.returncode == code
        assert message in out.stderr and bad_file in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "name, first, record, line",
        [  # a field over the csv module's size limit; JSON nested past the recursion limit
            ("big.csv", "text,category\nhi,greet\n", '"{}",greet\n'.format("x" * 200_000), 3),
            ("deep.jsonl", '{"text": "hi", "label": "greet"}\n',
             '{"text": "hi", "label": ' + "[" * 100_000 + "]" * 100_000 + "}\n", 2),
        ],
        ids=["csv-field-limit", "jsonl-nesting"],
    )
    def test_oversized_record_is_2(self, tmp_path, name, first, record, line):
        (tmp_path / name).write_text(first + record)
        out = run_cli(["ingest", "--input", name], cwd=tmp_path)
        assert out.returncode == 2
        assert "data error" in out.stderr and f"{name}:{line}:" in out.stderr
        assert "Traceback" not in out.stderr

    def test_eval_init_dimension_mismatch_is_2(self, synth_dir):
        from fewintent.corpus import load_dataset
        from fewintent.encoder import build_vocab, init_params
        from fewintent.trainer import save_checkpoint

        vocab = build_vocab([load_dataset(synth_dir / "data/train.jsonl", "jsonl")])
        save_checkpoint(init_params(len(vocab), 8, 8, 8), vocab, synth_dir / "m.ckpt")
        out = run_cli(
            ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl",
             "--shots", "2", "--seeds", "0", "--k", "4", "--epochs", "1",
             "--init", "m.ckpt", "--d-emb", "16", "--attention", "--out", "e.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 2
        assert "data error" in out.stderr and "d_emb" in out.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ["train", "--train", "data/train.jsonl"],
            ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl", "--shots", "2", "--seeds", "0"],
        ],
        ids=lambda command: command[0],
    )
    def test_init_hidden_width_mismatch_is_2(self, synth_dir, command):
        from fewintent.corpus import load_dataset
        from fewintent.encoder import build_vocab, init_params
        from fewintent.trainer import save_checkpoint

        vocab = build_vocab([load_dataset(synth_dir / "data/train.jsonl", "jsonl")])
        save_checkpoint(init_params(len(vocab), 8, 16, 8), vocab, synth_dir / "m.ckpt")
        args = [*command, "--k", "4", "--epochs", "1", "--init", "m.ckpt", "--out", "o.jsonl"]
        out = run_cli([*args, "--d-hidden", "32"], cwd=synth_dir)
        assert out.returncode == 2
        assert "data error: checkpoint d_hidden is 16, configured 32" in out.stderr
        assert "Traceback" not in out.stderr
        out = run_cli([*args, "--d-hidden", "16"], cwd=synth_dir)  # the checkpoint's own width
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize(
        "ckpt, flags, message",
        [
            (None, [], "checkpoint not found"),
            (b"not a checkpoint", [], "truncated checkpoint"),
            ((8, 8, 8), ["--d-emb", "16"], "checkpoint d_emb is 8, configured 16"),
            ((8, 8, 8), ["--attention"], "checkpoint attention is False, configured True"),
        ],
        ids=["missing", "corrupt", "d-emb", "attention"],
    )
    @pytest.mark.parametrize("command", INIT_COMMANDS, ids=lambda command: command[0])
    def test_bad_init_is_2_before_output(self, synth_dir, monkeypatch, capsys, command, ckpt, flags, message):
        from fewintent import cli

        if isinstance(ckpt, bytes):
            (synth_dir / "m.ckpt").write_bytes(ckpt)
        elif ckpt is not None:
            save_model(synth_dir / "m.ckpt", synth_dir / "data/train.jsonl", ckpt)
        monkeypatch.chdir(synth_dir)
        assert cli.main([*command, "--k", "4", "--epochs", "1", "--init", "m.ckpt", *flags,
                         "--out", "o.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert not (synth_dir / "o.jsonl").exists()

    @pytest.mark.parametrize("corrupt", [False, True], ids=["missing", "corrupt"])
    @pytest.mark.parametrize(
        "command",
        [
            ["zeroshot", "--test", "data/test.jsonl"],
            ["predict", "--inventory", "inv.txt"],
            ["diagnose-topk", "--test", "data/test.jsonl"],
        ],
        ids=lambda command: command[0],
    )
    def test_bad_ckpt_is_2_before_output(self, synth_dir, monkeypatch, capsys, command, corrupt):
        from fewintent import cli

        (synth_dir / "inv.txt").write_text("greet\nbye\n")
        if corrupt:
            save_model(synth_dir / "m.ckpt", synth_dir / "data/train.jsonl", (8, 8, 8))
            raw = (synth_dir / "m.ckpt").read_bytes()
            (synth_dir / "m.ckpt").write_bytes(raw[:-5] + bytes([raw[-5] ^ 1]) + raw[-4:])
        monkeypatch.chdir(synth_dir)
        assert cli.main([*command, "--ckpt", "m.ckpt", "--k", "2", "--out", "o.jsonl"]) == 2
        err = capsys.readouterr().err
        assert ("checksum mismatch" if corrupt else "checkpoint not found") in err
        assert not (synth_dir / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "lr_or_tau, message",
        [
            (["--learning-rate", "1e308"], "non-finite values in encoder output (check parameters)"),
            (["--tau", "1e-320"], "training diverged: non-finite loss at epoch 0, batch 0"),
        ],
        ids=["learning-rate", "tau"],
    )
    def test_numeric_failure_prints_one_line(self, synth_dir, lr_or_tau, message):
        out = run_cli(
            ["train", "--train", "data/train.jsonl", "--k", "4", *TINY, "--dev-fraction", "0",
             *lr_or_tau, "--out", "t.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 3
        assert out.stderr == f"numeric failure: {message}\n"

    def test_sweep_k_without_k_values_is_2(self, synth_dir, monkeypatch, capsys):
        from fewintent import cli

        monkeypatch.chdir(synth_dir)
        assert cli.main(["sweep-k", "--train", "data/train.jsonl", "--dev", "data/test.jsonl",
                         "--k-values", ",", "--k-min", "2", "--out", "s.jsonl"]) == 2
        assert "data error: need at least one k value" in capsys.readouterr().err
        assert not (synth_dir / "s.jsonl").exists()  # no config or choose_k record either

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize(
        "flag, line",
        [(["--target", "data/train.jsonl"], "target = data/train.jsonl"),
         (["--format", "jsonl"], "format = jsonl")],
        ids=["target", "format"],
    )
    def test_pretrain_para_takes_only_n_target(self, synth_dir, monkeypatch, capsys, flag, line, how):
        from fewintent import cli

        (synth_dir / "pairs.tsv").write_text("alpha gamma\tbeta delta\n")
        (synth_dir / "cfg.txt").write_text(line + "\n")
        monkeypatch.chdir(synth_dir)
        extra = flag if how == "flag" else ["--config", "cfg.txt"]
        for n_target in (["--n-target", "3"], []):  # --n-target is the one way to set the count
            assert cli.main(["pretrain-para", "--pairs", "pairs.tsv", *n_target, "--epochs", "1",
                             *extra, "--out", "p.jsonl"]) == 1
            assert "usage error" in capsys.readouterr().err
        assert cli.main(["pretrain-para", "--pairs", "pairs.tsv", "--epochs", "1", "--out", "p.jsonl"]) == 1
        assert "usage error: missing required option --n-target" in capsys.readouterr().err
        assert not (synth_dir / "p.jsonl").exists()

    @pytest.mark.parametrize("command, option, kind, fault", FAULT_ROWS)
    def test_bad_input_file_ends_run_before_output(self, fault_inputs, monkeypatch, capsys,
                                                   command, option, kind, fault):
        from fewintent import cli

        bad = BAD_FILES[fault] + ("" if "." in BAD_FILES[fault] else EXTENSIONS[kind])
        if fault in FAULT_CONTENT:
            (fault_inputs / bad).write_bytes(FAULT_CONTENT[fault])
        dataset_ext = ".csv" if fault == "wrong-format" else ".jsonl"
        args = [command, *OTHER_OPTIONS.get(command, [])] + (["--format", "csv"] if fault == "wrong-format" else [])
        for name, each_kind, stem in INPUT_OPTIONS[command]:
            good = stem + (dataset_ext if each_kind.startswith("dataset") else EXTENSIONS[each_kind])
            value = good if name != option else f"{good},{bad}" if kind == "datasets" else bad
            args += ["--" + name, value]
        monkeypatch.chdir(fault_inputs)
        code, line = FAULT_ERRORS[fault]
        # A checkpoint holds no text to decode: bytes that are not one fail on its magic.
        line = line.format(noun=NOUNS[kind], bad=bad,
                           undecodable="not a checkpoint file" if kind == "model" else "not UTF-8 text")
        assert cli.main([*args, "--out", "o.jsonl"]) == code
        err = capsys.readouterr().err
        assert err.startswith(line) and err.endswith("\n") and err.count("\n") == 1, err
        assert not (fault_inputs / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "args",
        [["train", "--train", "bad.jsonl", "--epochs", "1"],
         ["zeroshot", "--ckpt", "m.ckpt", "--test", "bad.jsonl"],
         ["diagnose-topk", "--ckpt", "m.ckpt", "--test", "bad.jsonl"]],
        ids=lambda args: args[0],
    )
    def test_no_token_utterance_ends_run_before_output(self, fault_inputs, monkeypatch, capsys, args):
        """Before the input phase checked utterances, these runs wrote their
        config record and then failed on the utterance."""
        from fewintent import cli

        (fault_inputs / "bad.jsonl").write_bytes(FAULT_CONTENT["no-tokens"])
        monkeypatch.chdir(fault_inputs)
        assert cli.main([*args, "--inventory", "inv.txt", "--k", "2", "--out", "o.jsonl"]) == 2
        assert capsys.readouterr().err == "data error: bad.jsonl: utterance '!!!' has no tokens\n"
        assert not (fault_inputs / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl", "--shots", "2",
              "--seeds", ","], "need at least one seed"),
            (["pretrain-ood", "--target", "data/train.jsonl", "--others", ","],
             "need at least one dataset file"),
        ],
        ids=["eval-seeds", "ood-others"],  # sweep-k: test_sweep_k_without_k_values_is_2
    )
    def test_empty_list_is_2_before_output(self, synth_dir, monkeypatch, capsys, args, message):
        from fewintent import cli

        monkeypatch.chdir(synth_dir)
        assert cli.main([*args, "--out", "o.jsonl"]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (synth_dir / "o.jsonl").exists()

    def test_eval_empty_seeds_is_2(self, synth_dir):
        out = run_cli(
            ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl",
             "--shots", "2", "--seeds", ",", "--k", "4", "--out", "e.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 2
        assert "at least one seed" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("fraction", ["0", "0.05"])  # no dev set; an empty one
    def test_sweep_k_without_dev_is_2(self, synth_dir, fraction):
        out = run_cli(
            ["sweep-k", "--train", "data/train.jsonl", "--dev-fraction", fraction,
             "--k-values", "2", "--k-min", "2", "--out", "s.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 2
        assert "data error: sweep-k needs a" in out.stderr
        assert "Traceback" not in out.stderr
        if fraction == "0":  # an option fault, found before any output; an empty cut needs the data
            assert not (synth_dir / "s.jsonl").exists()

    @pytest.mark.parametrize("command", ["zeroshot", "diagnose-topk"])
    def test_zero_group_size_is_2(self, synth_dir, command):
        from fewintent.corpus import load_dataset
        from fewintent.encoder import build_vocab, init_params
        from fewintent.trainer import save_checkpoint

        vocab = build_vocab([load_dataset(synth_dir / "data/train.jsonl", "jsonl")])
        save_checkpoint(init_params(len(vocab), 8, 8, 8), vocab, synth_dir / "m.ckpt")
        out = run_cli(
            [command, "--ckpt", "m.ckpt", "--test", "data/test.jsonl",
             "--k", "0", "--k-min", "2", "--out", "z.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 2
        assert "group size must be >= 1" in out.stderr

    @pytest.mark.parametrize("n_target", ["0", "1"])
    def test_pretrain_para_too_few_candidates_is_2(self, tmp_path, n_target):
        lines = [f"alpha{c} gamma\tbeta{c} delta" for c in range(6)]
        (tmp_path / "pairs.tsv").write_text("\n".join(lines) + "\n")
        out = run_cli(
            ["pretrain-para", "--pairs", "pairs.tsv", "--n-target", n_target,
             "--k-min", "2", *TINY, "--out", "p.jsonl"],
            cwd=tmp_path,
        )
        assert out.returncode == 2
        assert "need at least 2 candidates" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "flag, value",
        [
            *[(flag, "0") for flag in
              ("--d-emb", "--d-hidden", "--d-out", "--projector-depth", "--min-count")],
            ("--tau", "nan"), ("--tau", "inf"),
            ("--learning-rate", "nan"), ("--learning-rate", "inf"),
            ("--k-min", "0"), ("--k-max", "19"),  # below 1; below the default k_min of 20
        ],
    )
    def test_untrainable_config_is_2_before_output(self, synth_dir, flag, value):
        out = run_cli(
            ["train", "--train", "data/train.jsonl", "--k", "4", "--epochs", "1",
             "--dev-fraction", "0", flag, value, "--out", "t.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 2
        assert "data error" in out.stderr and "Traceback" not in out.stderr
        metrics = synth_dir / "t.jsonl"
        assert not metrics.exists() or metrics.read_text() == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["synth", "--intents", "4", "--out-dir", "more", "--seed", "-1"],
            ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl",
             "--shots", "2", "--seeds=-1", "--k", "4", "--epochs", "1"],
            ["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl",
             "--shots", "2", "--seeds", "0,-2", "--k", "4", "--epochs", "1"],
        ],
        ids=["synth-seed", "eval-seeds", "eval-second-seed"],
    )
    def test_negative_seed_is_2_before_output(self, synth_dir, args):
        out = run_cli([*args, "--out", "m.jsonl"], cwd=synth_dir)
        assert out.returncode == 2
        assert "data error" in out.stderr and "non-negative" in out.stderr
        assert "Traceback" not in out.stderr
        metrics = synth_dir / "m.jsonl"
        assert not metrics.exists() or metrics.read_text() == ""

    def test_synth_without_test_examples_is_2(self, tmp_path):
        out = run_cli(["synth", "--intents", "4", "--test-per-intent", "0", "--out-dir", "d"],
                      cwd=tmp_path)
        assert out.returncode == 2
        assert "data error" in out.stderr and "Traceback" not in out.stderr
        assert not (tmp_path / "d" / "test.jsonl").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--intents", "0", "intents"),
            ("--intents", "1", "intents"),
            ("--shots", "0", "shots"),
            ("--noise-tokens", "-1", "noise_tokens"),
            ("--test-per-intent", "0", "test_per_intent"),
        ],
    )
    def test_bad_synth_count_is_2_before_output(self, tmp_path, flag, value, field):
        args = {"--intents": "4", "--out-dir": "d", "--out": "s.jsonl", flag: value}
        out = run_cli(["synth", *[a for pair in args.items() for a in pair]], cwd=tmp_path)
        assert out.returncode == 2
        assert "data error" in out.stderr and field in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "s.jsonl").exists()
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "args, field",
        [
            (["sweep-k", "--train", "data/train.jsonl", "--k-values", "2,0", "--k-min", "2",
              *TINY], "k_values"),
            (["diagnose-topk", "--ckpt", "m.ckpt", "--test", "data/test.jsonl", "--k", "4",
              "--k-top", "0"], "k_top"),
            (["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl", "--shots", "0",
              "--k", "4", *TINY], "shots"),
            (["pretrain-para", "--pairs", "pairs.tsv", "--n-target", "3", "--k-min", "2",
              "--max-words", "0", *TINY], "max_words"),
            (["pretrain-para", "--pairs", "pairs.tsv", "--n-target", "3", "--k-min", "2",
              "--max-chars", "0", *TINY], "max_chars"),
        ],
        ids=["sweep-k-values", "diagnose-k-top", "eval-shots", "para-max-words", "para-max-chars"],
    )
    def test_count_below_bound_is_2_before_output(self, synth_dir, args, field):
        from fewintent.corpus import load_dataset
        from fewintent.encoder import build_vocab, init_params
        from fewintent.trainer import save_checkpoint

        vocab = build_vocab([load_dataset(synth_dir / "data/train.jsonl", "jsonl")])
        save_checkpoint(init_params(len(vocab), 8, 8, 8), vocab, synth_dir / "m.ckpt")
        lines = [f"alpha{c} gamma\tbeta{c} delta" for c in range(6)]
        (synth_dir / "pairs.tsv").write_text("\n".join(lines) + "\n")
        out = run_cli([*args, "--out", "m.jsonl"], cwd=synth_dir)
        assert out.returncode == 2
        assert "data error" in out.stderr and field in out.stderr
        assert "Traceback" not in out.stderr
        assert not (synth_dir / "m.jsonl").exists()

    @pytest.mark.parametrize(
        "args, code, message",
        [
            (["train", "--train", "data/train.jsonl", "--k", "4", "--dev-fraction", "1"], 2,
             "data error: dev fraction must be in (0, 1), got 1.0"),
            (["train", "--train", "data/train.jsonl", "--k", "4", "--dev-fraction", "nan"], 2,
             "data error: dev fraction must be in (0, 1), got nan"),
            (["sweep-k", "--train", "data/train.jsonl", "--k-values", "2", "--dev-fraction", "2"], 2,
             "data error: dev fraction must be in (0, 1), got 2.0"),
            (["eval", "--train", "data/train.jsonl", "--test", "data/test.jsonl", "--shots", "3",
              "--k", "4", "--dev-fraction", "1"], 2, "data error: dev fraction must be in (0, 1), got 1.0"),
            (["ingest", "--input", "data/train.jsonl", "--format", "xyz"], 1,
             "usage error: unknown format 'xyz'"),
            *[(args, 2, "data error: group-size range [20, 35] infeasible for 4 intents")
              for args in GROUP_SIZE_RUNS],
        ],
        ids=["train-dev-fraction-1", "train-dev-fraction-nan", "sweep-k-dev-fraction",
             "eval-dev-fraction", "ingest-format", *[f"{args[0]}-group-size" for args in GROUP_SIZE_RUNS]],
    )
    def test_bad_option_rejected_before_output(self, synth_dir, args, code, message):
        from fewintent.corpus import load_dataset

        lines = [f"alpha{c} gamma\tbeta{c} delta" for c in range(6)]
        (synth_dir / "pairs.tsv").write_text("\n".join(lines) + "\n")
        save_model(synth_dir / "m.ckpt", synth_dir / "data/train.jsonl", [8, 8])
        labels = load_dataset(synth_dir / "data/train.jsonl", "jsonl").labels
        (synth_dir / "inv.txt").write_text("".join(lab.raw_name + "\n" for lab in labels))
        out = run_cli([*args, "--out", "m.jsonl"], cwd=synth_dir, stdin="")
        assert out.returncode == code
        assert out.stderr == message + "\n"
        assert not (synth_dir / "m.jsonl").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "line 2: invalid JSON"),
            ('{"utterance": "topic 0-a"}', "line 2: record needs a string 'text' field"),
            ('{"text": 7}', "line 2: record needs a string 'text' field"),
            ('["topic"]', "line 2: record needs a string 'text' field"),
            ('{"text": "?! ..."}', "line 2: utterance '?! ...' has no tokens"),
            ("[" * 100000 + "]" * 100000, "line 2: invalid JSON"),
        ],
        ids=["not-json", "no-text", "text-not-string", "not-object", "no-tokens", "nested"],
    )
    def test_predict_bad_line_is_2(self, synth_dir, line, message):
        write_predict_inputs(synth_dir)
        stdin = '{"text": "topic 0-a"}\n' + line + '\n{"text": "topic 1-a"}\n'
        out = run_cli(
            ["predict", "--ckpt", "m.ckpt", "--inventory", "inv.txt", "--k", "3", "--k-min", "2",
             "--out", "p.jsonl"],
            cwd=synth_dir, stdin=stdin,
        )
        assert out.returncode == 2
        assert f"data error: {message}" in out.stderr and "Traceback" not in out.stderr
        assert [r["record"] for r in records(synth_dir / "p.jsonl")] == ["config", "prediction"]

    def test_predict_non_utf8_line_is_2(self, synth_dir):
        write_predict_inputs(synth_dir)
        out = run_cli(
            ["predict", "--ckpt", "m.ckpt", "--inventory", "inv.txt", "--k", "3", "--k-min", "2"],
            cwd=synth_dir, stdin=b'{"text": "topic"}\n\xff\xfe\n',
        )
        assert out.returncode == 2
        assert b"data error: line 2: not UTF-8 text" in out.stderr and b"Traceback" not in out.stderr

    def test_predict_reader_gone_is_141(self, synth_dir):
        # The config record is written before stdin is read, so closing the
        # read end after one line and only then sending utterances makes the
        # first prediction's write fail.
        write_predict_inputs(synth_dir)
        child = subprocess.Popen(
            [sys.executable, "-m", "fewintent", "predict", "--ckpt", "m.ckpt",
             "--inventory", "inv.txt", "--k", "3", "--k-min", "2"],
            cwd=synth_dir, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert json.loads(child.stdout.readline())["record"] == "config"
        child.stdout.close()
        _, err = child.communicate(b'{"text": "topic 0-a"}\n' * 50, timeout=60)
        assert child.returncode == 141
        assert err == b""

    def test_help_is_0(self, tmp_path):
        out = run_cli(["--help"], cwd=tmp_path)
        assert out.returncode == 0
        assert "zeroshot" in out.stdout


class TestConfigMerge:
    def test_file_applies_and_flag_overrides(self, synth_dir):
        (synth_dir / "cfg.txt").write_text("epochs = 1\nk = 4\nk_min = 2\nd_emb = 8\nd_hidden = 8\nd_out = 8\n")
        out = run_cli(
            ["train", "--train", "data/train.jsonl", "--config", "cfg.txt",
             "--epochs", "2", "--out", "t.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 0, out.stderr
        cfg = records(synth_dir / "t.jsonl")[0]["config"]
        assert cfg["epochs"] == 2  # flag wins
        assert cfg["k"] == 4  # file applies


    def test_hyperparam_defaults_match_train_config(self):
        from fewintent import cli
        from fewintent.trainer import TrainConfig

        defaults = TrainConfig()
        fields = ["shuffles_per_sequence" if o.name == "shuffles" else o.name for o in cli._HYPERPARAMS]
        # One option per field, `seed` aside: it is every command's own option.
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed")
        for opt, field in zip(cli._HYPERPARAMS, fields):
            assert opt.default == getattr(defaults, field), opt.name

    def test_one_input_reader(self):
        import ast
        import inspect

        from fewintent import cli

        # `main` reads every input file once, through the reading kind of the option naming it.
        source = Path(cli.__file__).read_text(encoding="utf-8")
        for reader in ("load_dataset(", "inventory_labels(", "pairs_from_tsv(", "load_checkpoint("):
            assert source.count(reader) == 1, reader
        kinds = {name: {o.name: o.kind for o in opts if o.kind in cli._READ_KINDS}
                 for name, (_, opts) in cli._COMMANDS.items()}
        assert kinds == {name: {option: kind for option, kind, _ in INPUT_OPTIONS.get(name, [])
                                if option != "inventory" or name == "predict"}
                         for name in cli._COMMANDS}
        # Every other option that names a file is one the run writes, or the --inventory
        # that the reader of a dataset option reads with it.
        written = {"out", "out_dir", "ckpt", "plans_out", "predictions_out"}
        for name, (func, opts) in cli._COMMANDS.items():
            paths = {o.name for o in opts if o.kind == "str"} - written - {"format"}
            assert paths <= ({"inventory"} if "dataset" in kinds[name].values() else set()), name
            # A command reads what was read for it from `inputs`, never a path from `cfg`.
            inputs = set(kinds[name]) | paths
            for node in ast.walk(ast.parse(inspect.getsource(func))):
                if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg":
                    assert getattr(node.slice, "value", None) not in inputs, name
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg":
                    assert node.attr != "get", name  # cfg.get: options every command has are cfg[...]

    def test_one_group_size_decision(self):
        import ast

        from fewintent import cli

        # `main` builds the run's TrainConfig and sets its group size once; commands take it.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        decided = ("_train_config", "group_size")

        def calls(node, name):
            return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                    and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]

        for name in decided:
            assert len(calls(tree, name)) == len(calls(functions["main"], name)) == 1, name
        for name, node in functions.items():
            if name.startswith("_cmd_"):
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
                assert not named & set(decided), name
        # Every command with a group-size range names the option whose intent count fixes its k.
        tuned = {name: {o.name for o in opts} for name, (_, opts) in cli._COMMANDS.items()
                 if any(o.name in ("k_min", "k_max") for o in opts)}
        assert tuned.keys() == cli._INTENT_COUNT_OPTION.keys()
        for name, option in cli._INTENT_COUNT_OPTION.items():
            assert option in tuned[name], name


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        args_synth = ["synth", "--intents", "3", "--shots", "2", "--noise-tokens", "1",
                      "--test-per-intent", "2", "--seed", "11", "--out-dir", "data",
                      "--out", "synth.jsonl"]
        args_train = ["train", "--train", "data/train.jsonl", "--k", "3", "--k-min", "2",
                      *TINY, "--seed", "11", "--ckpt", "m.ckpt", "--out", "train.jsonl"]
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            assert run_cli(args_synth, cwd=d).returncode == 0
            assert run_cli(args_train, cwd=d).returncode == 0
            dirs.append(d)
        a, b = dirs
        for rel in ("synth.jsonl", "data/train.jsonl", "train.jsonl"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()
        assert (a / "m.ckpt").read_bytes() == (b / "m.ckpt").read_bytes()

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import restamp_vocab_blob, run_cli

TINY = ["--d-emb", "8", "--d-hidden", "8", "--d-out", "8", "--epochs", "2"]


def records(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def by_record(path: Path, kind: str):
    return [r for r in records(path) if r["record"] == kind]


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

    def test_bad_checkpoint_vocab_is_2(self, synth_dir):
        from fewintent.corpus import load_dataset
        from fewintent.encoder import build_vocab, init_params
        from fewintent.trainer import save_checkpoint

        data = load_dataset(synth_dir / "data/train.jsonl", "jsonl")
        vocab = build_vocab([data])
        save_checkpoint(init_params(len(vocab), 8, 8, 8), vocab, synth_dir / "bad.ckpt")
        restamp_vocab_blob(synth_dir / "bad.ckpt", b"\xff\xfe not utf-8")
        out = run_cli(
            ["train", "--train", "data/train.jsonl", "--k", "4", "--k-min", "2",
             *TINY, "--init", "bad.ckpt", "--out", "t.jsonl"],
            cwd=synth_dir,
        )
        assert out.returncode == 2
        assert "data error" in out.stderr
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
        assert "data error" in out.stderr
        assert "Traceback" not in out.stderr

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
        for opt in cli._HYPERPARAMS:
            field = "shuffles_per_sequence" if opt.name == "shuffles" else opt.name
            assert opt.default == getattr(defaults, field), opt.name


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

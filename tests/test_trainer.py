import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewintent import encoder, trainer
from fewintent.corpus import IntentLabel, LabeledUtterance, split_dev
from fewintent.encoder import (
    UNK_ID,
    Vocabulary,
    build_vocab,
    init_params,
    lay_out,
    loss_and_param_grads,
    tokenize,
)
from fewintent.errors import CheckpointError, DataError, NumericError
from fewintent.evaluator import generate_synthetic
from fewintent.sequencer import IntentGroup, SequencePlan, augment_shuffles, build_plans, partition_intents
from fewintent.trainer import (
    TrainConfig,
    TrainItem,
    _Adam,
    dataset_items,
    fit_items,
    load_checkpoint,
    save_checkpoint,
    train,
)

from conftest import make_dataset, restamp_vocab_blob

import per_array


def small_cfg(**kw):
    base = dict(
        k=2, epochs=2, seed=0, d_emb=12, d_hidden=12, d_out=12,
        batch_size=4, shuffles_per_sequence=2,
    )
    base.update(kw)
    return TrainConfig(**base)


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


class TestTrain:
    def test_bit_identical_given_seed(self):
        data = make_dataset(n_intents=4, per_intent=3)
        p1, r1, v1 = train(data, None, small_cfg())
        p2, r2, v2 = train(data, None, small_cfg())
        assert params_equal(p1, p2)
        assert r1.epoch_losses == r2.epoch_losses
        assert v1.tokens == v2.tokens

    def test_different_seed_differs(self):
        data = make_dataset(n_intents=4, per_intent=3)
        p1, _, _ = train(data, None, small_cfg(seed=0))
        p2, _, _ = train(data, None, small_cfg(seed=1))
        assert not params_equal(p1, p2)

    def test_zero_epochs_returns_init_unchanged(self):
        data = make_dataset(n_intents=4, per_intent=2)
        vocab = build_vocab([data])
        init = init_params(len(vocab), 12, 12, 12, seed=7)
        out, report, out_vocab = train(data, None, small_cfg(epochs=0), init=(init, vocab))
        assert params_equal(out, init)
        assert report.best_epoch == -1 and report.epoch_losses == []
        assert out_vocab is vocab

    def test_loss_decreases_on_separable_task(self):
        # 20 intents, 5-shot: final train loss well under a tenth of the first epoch's.
        train_data, _ = generate_synthetic(20, 5, 1, seed=2, test_per_intent=1)
        cfg = TrainConfig(k=20, epochs=3, seed=0, d_emb=32, d_hidden=32, d_out=32)
        _, report, _ = train(train_data, None, cfg)
        assert report.epoch_losses[-1] < 0.1 * report.epoch_losses[0]

    def test_best_epoch_tracks_selection(self):
        data = make_dataset(n_intents=4, per_intent=6)
        tr, dev = split_dev(data, 0.5, seed=0)  # 12 dev examples: enough for selection
        _, report, _ = train(tr, dev, small_cfg(epochs=3))
        assert report.selection == "dev_accuracy"
        assert report.epoch_metrics[report.best_epoch] == max(report.epoch_metrics)

    def test_small_dev_falls_back_to_train_loss(self):
        data = make_dataset(n_intents=4, per_intent=3)
        _, dev = split_dev(data, 0.25, seed=0)  # 3 dev examples: too few
        _, report, _ = train(data, dev, small_cfg())
        assert report.selection == "train_loss"
        assert report.epoch_metrics[report.best_epoch] == min(report.epoch_metrics)

    def test_warm_start_keeps_vocabulary(self):
        pre = make_dataset(n_intents=4, per_intent=2)
        pre_params, _, pre_vocab = train(pre, None, small_cfg(epochs=1))
        fine = make_dataset(n_intents=3, per_intent=2, name="fine")
        _, _, vocab = train(fine, None, small_cfg(epochs=1), init=(pre_params, pre_vocab))
        assert vocab.tokens == pre_vocab.tokens
        assert vocab.id_of("token-nowhere") == UNK_ID

    def test_warm_start_dimension_mismatch(self):
        data = make_dataset(n_intents=3, per_intent=2)
        vocab = build_vocab([data])
        wrong = init_params(len(vocab) + 5, 12, 12, 12)
        with pytest.raises(DataError, match="tokens"):
            train(data, None, small_cfg(), init=(wrong, vocab))

    def test_nan_params_abort(self):
        data = make_dataset(n_intents=3, per_intent=2)
        vocab = build_vocab([data])
        bad = init_params(len(vocab), 12, 12, 12)
        bad.embedding[:] = np.nan
        with pytest.raises(NumericError):
            train(data, None, small_cfg(), init=(bad, vocab))


def shuffled_copy_schedule(items, vocab, params, cfg):
    """The scheduler `fit_items` replaced: each epoch, every plan seeds `count`
    slot-shuffled copies of itself, and the pool of copies is permuted.

    Returns the per-epoch losses and, per epoch, each batch's
    (utterance, group index) pairs.
    """
    opt = _Adam(cfg.learning_rate)
    losses, batches = [], []
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        pool = []
        for idx, item in enumerate(items):
            for plan in item.plans:
                count = cfg.shuffles_per_sequence or plan.group.k
                child_seed = int(rng.integers(0, 2**32))
                pool.extend((idx, p) for p in augment_shuffles(plan, count, child_seed))
        order = rng.permutation(len(pool))
        total = 0.0
        epoch_batches = []
        for start in range(0, len(order), cfg.batch_size):
            picks = order[start : start + cfg.batch_size]
            epoch_batches.append([(pool[i][1].utterance, pool[i][1].group.index) for i in picks])
            seqs = [tokenize(pool[i][1], items[pool[i][0]].labels, vocab) for i in picks]
            loss, grads = loss_and_param_grads(params, seqs, cfg.loss_config())
            opt.step(params, grads)
            total += loss * len(picks)
        losses.append(total / len(pool))
        batches.append(epoch_batches)
    return losses, batches


def batch_plans(batch):
    """The plans of a batch `fit_items` hands to the gradient kernel."""
    return [batch.pairs[i][0] for i in batch.picks]


def recorded_schedule(items, vocab, params, cfg, monkeypatch):
    """`fit_items` on the same inputs, with the same return shape as
    `shuffled_copy_schedule`, read off the plans of each batch it hands to
    the gradient kernel."""
    batches, epoch_batches = [], []

    def record_batch(params, batch, cfg):
        epoch_batches.append([(plan.utterance, plan.group.index) for plan in batch_plans(batch)])
        return loss_and_param_grads(params, batch, cfg)

    def end_epoch(record):
        batches.append(epoch_batches[:])
        epoch_batches.clear()

    monkeypatch.setattr(trainer, "loss_and_param_grads", record_batch)
    _, report = fit_items(items, vocab, params, cfg, log=end_epoch)
    return report.epoch_losses, batches


class TestDevSplit:
    @pytest.mark.parametrize("fraction", [0.0, -0.5])
    def test_no_fraction_holds_nothing_out(self, fraction):
        data = make_dataset(n_intents=4, per_intent=3)
        train_data, dev = trainer.dev_split(data, fraction, seed=0)
        assert train_data is data and dev is None

    def test_cut_below_threshold_holds_nothing_out(self):
        data, _ = generate_synthetic(77, 1, 3, seed=0, test_per_intent=1)
        assert len(split_dev(data, 0.1, seed=0)[1].examples) == 7
        train_data, dev = trainer.dev_split(data, 0.1, seed=0)
        assert train_data is data and dev is None  # every 1-shot intent keeps its example

    @pytest.mark.parametrize("fraction, n_dev", [(0.09, 9), (0.1, 10), (0.29, 29)])
    def test_cut_of_threshold_or_more_is_split_dev(self, fraction, n_dev):
        data = make_dataset(n_intents=4, per_intent=25)  # 100 examples
        ref_train, ref_dev = split_dev(data, fraction, seed=3)
        assert len(ref_dev.examples) == n_dev
        train_data, dev = trainer.dev_split(data, fraction, seed=3)
        if n_dev < trainer.MIN_DEV_FOR_SELECTION:
            assert train_data is data and dev is None
        else:
            assert (train_data.examples, dev.examples) == (ref_train.examples, ref_dev.examples)

    @pytest.mark.parametrize("fraction", [float("nan"), 1.0, 1.5])
    def test_nan_or_whole_fraction_is_data_error(self, fraction):
        data = make_dataset(n_intents=4, per_intent=3)
        with pytest.raises(DataError, match=r"dev fraction must be in \(0, 1\)"):
            trainer.dev_split(data, fraction, seed=0)


class TestAgainstShuffledCopies:
    @pytest.mark.parametrize("attention", [False, True])
    @pytest.mark.parametrize("shuffles", [None, 1, 2])
    def test_same_batches_and_losses(self, attention, shuffles, monkeypatch):
        # 5 intents in groups of 3: the second group holds a placeholder slot.
        data = make_dataset(n_intents=5, per_intent=2)
        cfg = small_cfg(k=3, epochs=3, batch_size=3, shuffles_per_sequence=shuffles,
                        attention=attention)
        items = dataset_items(data, cfg.k)
        vocab = build_vocab([data])
        ref_losses, ref_batches = shuffled_copy_schedule(items, vocab, cfg.new_params(vocab), cfg)
        losses, batches = recorded_schedule(items, vocab, cfg.new_params(vocab), cfg, monkeypatch)

        assert batches == ref_batches
        n_plans = sum(len(item.plans) for item in items)
        per_epoch = math.ceil(n_plans * (shuffles or cfg.k) / cfg.batch_size)
        assert [len(epoch) for epoch in batches] == [per_epoch] * cfg.epochs
        assert losses == pytest.approx(ref_losses, rel=1e-9, abs=0)

    def test_plans_run_as_built(self, monkeypatch):
        data = make_dataset(n_intents=5, per_intent=1)
        cfg = small_cfg(k=3, epochs=1)
        items = dataset_items(data, cfg.k)
        seen = []

        def record_batch(params, batch, cfg):
            seen.extend(batch_plans(batch))
            return loss_and_param_grads(params, batch, cfg)

        monkeypatch.setattr(trainer, "loss_and_param_grads", record_batch)
        vocab = build_vocab([data])
        fit_items(items, vocab, cfg.new_params(vocab), cfg)
        built = {plan for item in items for plan in item.plans}
        assert set(seen) == built
        assert len(seen) == len(built) * cfg.shuffles_per_sequence

    @pytest.mark.parametrize("attention", [False, True])
    def test_attention_free_runs_lay_out_nothing(self, attention, monkeypatch):
        # Without attention a batch is rows of the run's span table; with it
        # every run of a plan is laid out once, when its batch runs.
        data = make_dataset(n_intents=5, per_intent=2)
        cfg = small_cfg(k=3, epochs=2, attention=attention)
        items = dataset_items(data, cfg.k)
        calls = []

        def record_lay_out(plan, labels, word_ids):
            calls.append(plan)
            return lay_out(plan, labels, word_ids)

        monkeypatch.setattr(encoder, "lay_out", record_lay_out)
        vocab = build_vocab([data])
        fit_items(items, vocab, cfg.new_params(vocab), cfg)
        runs = sum(len(item.plans) for item in items) * cfg.shuffles_per_sequence * cfg.epochs
        assert len(calls) == (runs if attention else 0)


class TestTokenizeOnce:
    """`fit_items` tokenizes every text once a run, and still rejects what
    `tokenize` rejects before it trains."""

    @pytest.mark.parametrize(
        "text, surfaces, order, slots",
        [
            ("...", ("card arrival", "freeze"), (0, 1), None),
            ("freeze card", ("card arrival", "??"), (0, 1), None),
            ("freeze card", ("card arrival", "freeze"), (1, 0), None),
            ("freeze card", ("card arrival", "freeze"), (0, 1, 1), None),  # no plan shows the third label
            ("freeze card", ("card arrival", "freeze"), (0,), None),  # the plans show intent 1
            ("freeze card", ("card arrival", "freeze"), (0, 1), (0, -2)),
        ],
        ids=["utterance-without-tokens", "label-without-tokens", "labels-out-of-order", "duplicate-label-id",
             "intent-past-the-labels", "negative-intent"],
    )
    def test_tokenize_errors_end_the_run(self, text, surfaces, order, slots):
        labels = tuple(IntentLabel(i, f"l{i}", surfaces[i]) for i in range(2))
        plans = tuple(build_plans(LabeledUtterance(text, 0), partition_intents(labels, 2)))
        if slots is not None:  # one hand-built plan showing `slots`
            plans = (SequencePlan(LabeledUtterance(text, 0), IntentGroup(0, slots), 0),)
        vocab = build_vocab([["freeze card arrival"]])
        items = [TrainItem(tuple(labels[i] for i in order), plans)]
        with pytest.raises(DataError):
            fit_items(items, vocab, small_cfg().new_params(vocab), small_cfg())


class TestOptimizers:
    def test_step_changes_iff_gradient_nonzero(self):
        params = init_params(6, 4, 4, 4, seed=0)
        before = params.copy()
        opt = _Adam(0.1)
        opt.step(params, params.zeros_like())
        assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), before.arrays()))
        grads = params.zeros_like()
        grads.embedding[1, 2] = 1.0
        opt.step(params, grads)
        assert not np.array_equal(params.embedding, before.embedding)

    @pytest.mark.parametrize("attention", [False, True], ids=["plain", "attention"])
    @pytest.mark.parametrize("vocab_size", [100, 2000])
    def test_one_vector_step_equals_per_array_step(self, vocab_size, attention):
        params = init_params(vocab_size, seed=1, attention=attention)
        ref = params.copy()
        flat_opt, ref_opt = _Adam(1e-2), per_array.Adam(1e-2)
        rng = np.random.default_rng(vocab_size)
        for _ in range(200):
            grads = params.zeros_like()
            grads.flat[:] = rng.normal(size=grads.flat.size)
            grads.embedding[rng.random(vocab_size) < 0.9] = 0.0  # a batch touches few rows
            flat_opt.step(params, grads)
            ref_opt.step(ref, grads)
            assert all(map(np.array_equal, params.arrays(), ref.arrays()))


class TestFlatLayout:
    """Every parameter array is a view of `ModelParams.flat`, and the
    checkpoint payload is that vector."""

    @staticmethod
    def assert_views(params):
        assert all(np.shares_memory(a, params.flat) for a in params.arrays())
        assert sum(a.size for a in params.arrays()) == params.flat.size

    @pytest.mark.parametrize("attention", [False, True], ids=["plain", "attention"])
    def test_arrays_stay_views_of_the_vector(self, tmp_path, attention):
        vocab = Vocabulary(("a", "b", "c"))
        params = init_params(len(vocab), 6, 5, 4, depth=3, seed=2, attention=attention)
        self.assert_views(params)
        self.assert_views(params.copy())
        self.assert_views(params.zeros_like())
        save_checkpoint(params, vocab, tmp_path / "m.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        self.assert_views(loaded)
        grads = params.zeros_like()
        grads.flat[:] = 1.0
        _Adam(0.1).step(params, grads)
        self.assert_views(params)
        payload = b"".join(np.ascontiguousarray(a, "<f8").tobytes() for a in params.arrays())
        save_checkpoint(params, vocab, tmp_path / "m.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes()[-4 - len(payload) : -4] == payload

    @pytest.mark.parametrize("attention", [False, True], ids=["plain", "attention"])
    def test_copies_share_the_layout_not_the_buffer(self, attention):
        params = init_params(7, 6, 5, 4, depth=3, seed=2, attention=attention)
        copies = [params.zeros_like(), params.zeros_like(), params.copy()]
        for i, other in enumerate(copies):
            self.assert_views(other)
            assert [a.shape for a in other.arrays()] == [a.shape for a in params.arrays()]
            assert not any(np.shares_memory(other.flat, c.flat) for c in [params, *copies[:i]])
        assert not copies[0].flat.any() and np.array_equal(copies[2].flat, params.flat)
        projector = np.concatenate([a.ravel() for pair in zip(params.proj_weights, params.proj_biases) for a in pair])
        for each in (params, *copies):
            assert np.shares_memory(each.projector, each.proj_weights[0])
        assert np.array_equal(params.projector, projector)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        data = make_dataset(n_intents=3, per_intent=2)
        vocab = build_vocab([data])
        params = init_params(len(vocab), 12, 10, 8, depth=3, seed=5, attention=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, vocab, path)
        loaded, loaded_vocab = load_checkpoint(path)
        assert params_equal(loaded, params)
        assert loaded_vocab.tokens == vocab.tokens
        # Byte-identical when re-serialized.
        save_checkpoint(loaded, loaded_vocab, tmp_path / "m2.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        data = make_dataset(n_intents=3, per_intent=1)
        vocab = build_vocab([data])
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(len(vocab), 8, 8, 8), vocab, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        data = make_dataset(n_intents=3, per_intent=1)
        vocab = build_vocab([data])
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(len(vocab), 8, 8, 8), vocab, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        data = make_dataset(n_intents=3, per_intent=1)
        vocab = build_vocab([data])
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(len(vocab), 8, 8, 8), vocab, path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_vocab_size_mismatch_on_save(self, tmp_path):
        data = make_dataset(n_intents=3, per_intent=1)
        vocab = build_vocab([data])
        with pytest.raises(CheckpointError):
            save_checkpoint(init_params(len(vocab) + 1, 8, 8, 8), vocab, tmp_path / "m.ckpt")

    @pytest.mark.parametrize(
        "blob, match",
        [
            (b'["\xff", "b"]', "UTF-8 JSON"),  # not UTF-8
            (b'["a", "b"', "UTF-8 JSON"),  # not JSON
            (b"[1, 2]", "list of strings"),  # right count, tokens not strings
            (b'{"a": 0, "b": 1}', "list of strings"),  # not a list
            (b'["a", "a"]', "duplicate"),  # tokens not distinct
        ],
    )
    def test_bad_vocab_blob_with_valid_crc(self, tmp_path, blob, match):
        vocab = Vocabulary(("a", "b"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(len(vocab), 4, 4, 4), vocab, path)
        restamp_vocab_blob(path, blob)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_huge_header_dims_are_truncation(self, tmp_path):
        # vocab size x d_emb overflows int64; the array must still be sized exactly.
        vocab = Vocabulary(("a", "b"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(len(vocab), 4, 4, 4), vocab, path)
        raw = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<II", raw, 20, 0xFFFFFFFF, 0xFFFFFFFF)  # vocab size, d_emb
        path.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(bytes(raw))))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), restamp=st.booleans(), truncate=st.booleans())
    def test_any_damage_loads_or_raises_checkpoint_error(self, tmp_path_factory, data, restamp, truncate):
        # A flipped float stays a loadable checkpoint; structural damage must
        # surface as CheckpointError, never as another exception.
        vocab = Vocabulary(("a", "b"))
        params = init_params(len(vocab), 2, 2, 2, attention=data.draw(st.booleans()))
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        save_checkpoint(params, vocab, path)
        raw = bytearray(path.read_bytes()[:-4])
        if truncate:
            del raw[data.draw(st.integers(0, len(raw) - 1)):]
        else:
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        crc = zlib.crc32(bytes(raw)) if restamp else zlib.crc32(path.read_bytes()[:-4])
        path.write_bytes(bytes(raw) + struct.pack("<I", crc))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

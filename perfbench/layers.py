"""Where the traced run wraps the library, and the per-layer metrics it
derives from the spans and counters.

Each site is a public function of one layer (a module of ``src/fewintent``),
wrapped in the module that calls it, because callers hold their own
reference from ``from .x import f``. The benchmark calls the library
through module attributes, so its own calls pass through the same wrappers.
Plan building inside ``predict`` (``partition_intents``, ``inference_plan``)
is left unwrapped and counts as prediction self time.
"""

from __future__ import annotations

from fewintent import pretrain
from fewintent.sequencer import PLACEHOLDER

LAYERS = ("corpus", "sequencer", "encoder", "objective", "trainer", "pretrain", "evaluator")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _plans(tracer, args, kwargs, plans):
    tracer.count("sequencer.plans", len(plans))


def _tokenized(tracer, args, kwargs, seq):
    ids = seq.token_ids
    tracer.count("encoder.tokens", len(ids))
    # The encoder has no positional signal, so a sequence is redundant work
    # when its utterance and its multiset of slot spans were seen before.
    start, end = seq.utterance_span
    key = (ids[start:end], tuple(sorted(ids[s:e] for s, e in seq.slot_spans)))
    tracer.count_distinct("encoder.tokenize_unique", key)


def _batch_grads(tracer, args, kwargs, result):
    batch = _arg(args, kwargs, 1, "batch")
    spans = 0
    distinct = set()
    for seq in batch:
        ids = seq.token_ids
        spans += len(seq.slot_spans)
        distinct.update(ids[s:e] for s, e in seq.slot_spans)
    tracer.count("encoder.sequences", len(batch))
    tracer.count("encoder.slot_spans", spans)
    tracer.count("encoder.slot_spans_distinct", len(distinct))


def _encoded(tracer, args, kwargs, emb):
    tracer.count("encoder.sequences", 1)
    labels = sum(1 for intent in emb.slot_intents if intent != PLACEHOLDER)
    tracer.count("evaluator.label_spans_encoded", labels)


def _predicted(tracer, args, kwargs, pred):
    labels = _arg(args, kwargs, 3, "labels")
    seen = tracer.distinct.setdefault("evaluator.inventories", set())
    key = tuple(lab.surface for lab in labels)
    if key not in seen:
        seen.add(key)
        tracer.count("evaluator.labels", len(labels))


# (module, attribute, span name, observer)
SITES = (
    ("fewintent.corpus", "load_dataset", "corpus.load_dataset", None),
    ("fewintent.corpus", "split_dev", "corpus.split_dev", None),
    ("fewintent.sequencer", "choose_k", "sequencer.choose_k", None),
    ("fewintent.trainer", "choose_k", "sequencer.choose_k", None),
    ("fewintent.trainer", "partition_intents", "sequencer.partition_intents", None),
    ("fewintent.trainer", "build_plans", "sequencer.build_plans", _plans),
    ("fewintent.trainer", "augment_shuffles", "sequencer.augment_shuffles", _plans),
    ("fewintent.pretrain", "partition_intents", "sequencer.partition_intents", None),
    ("fewintent.pretrain", "build_plans", "sequencer.build_plans", _plans),
    ("fewintent.encoder", "build_vocab", "encoder.build_vocab", None),
    ("fewintent.encoder", "init_params", "encoder.init_params", None),
    ("fewintent.trainer", "build_vocab", "encoder.build_vocab", None),
    ("fewintent.trainer", "init_params", "encoder.init_params", None),
    ("fewintent.trainer", "tokenize", "encoder.tokenize", _tokenized),
    ("fewintent.evaluator", "tokenize", "encoder.tokenize", _tokenized),
    ("fewintent.trainer", "loss_and_param_grads", "encoder.loss_and_param_grads", _batch_grads),
    ("fewintent.evaluator", "encode", "encoder.encode", _encoded),
    ("fewintent.encoder", "batch_loss", "objective.batch_loss", None),
    ("fewintent.evaluator", "cosine_sim", "objective.cosine_sim", None),
    ("fewintent.trainer", "train", "trainer.train", None),
    ("fewintent.trainer", "fit_items", "trainer.fit_items", None),
    ("fewintent.trainer", "save_checkpoint", "trainer.save_checkpoint", None),
    ("fewintent.trainer", "load_checkpoint", "trainer.load_checkpoint", None),
    ("fewintent.pretrain", "pairs_from_tsv", "pretrain.pairs_from_tsv", None),
    ("fewintent.pretrain", "filter_pairs", "pretrain.filter_pairs", None),
    ("fewintent.pretrain", "build_paraphrase_instances", "pretrain.build_paraphrase_instances", None),
    ("fewintent.evaluator", "dataset_accuracy", "evaluator.dataset_accuracy", None),
    ("fewintent.evaluator", "predict_dataset", "evaluator.predict_dataset", None),
    ("fewintent.evaluator", "predict", "evaluator.predict", _predicted),
)


def index_factory(tracer):
    """An ``index_factory`` for ``build_paraphrase_instances`` that times the
    index build as a span and counts ``rank`` queries on the index it builds."""
    build = tracer.wrap(pretrain.build_similarity_index, "pretrain.build_similarity_index")

    def factory(sentences):
        index = build(sentences)
        rank = index.rank

        def counted_rank(*args, **kwargs):
            tracer.count("pretrain.rank_calls")
            return rank(*args, **kwargs)

        index.rank = counted_rank
        return index

    return factory


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(units, setups, overhead_pct: float) -> dict[str, float]:
    """Per-layer values from traced totals.

    Unit values are per measured unit (one workload operation, see the
    README), set-up values per set-up, and each ratio comes from the totals
    whose names it divides.
    """
    nu = max(units.runs, 1)
    ns = max(setups.runs, 1)
    c = units.count
    return {
        "sequencer.augment_shuffles_s": units.incl("sequencer.augment_shuffles") / nu,
        "sequencer.plans": c("sequencer.plans") / nu,
        "encoder.tokenize_s": units.incl("encoder.tokenize") / nu,
        "encoder.tokenize_calls": units.calls("encoder.tokenize") / nu,
        "encoder.tokens": c("encoder.tokens") / nu,
        "encoder.tokenize_unique": c("encoder.tokenize_unique") / nu,
        "encoder.tokenize_unique_ratio": _ratio(
            c("encoder.tokenize_unique"), units.calls("encoder.tokenize")
        ),
        "encoder.grads_self_s": units.self_time("encoder.loss_and_param_grads") / nu,
        "encoder.sequences": c("encoder.sequences") / nu,
        "encoder.slot_spans": c("encoder.slot_spans") / nu,
        "encoder.slot_spans_distinct": c("encoder.slot_spans_distinct") / nu,
        "encoder.label_reuse": _ratio(c("encoder.slot_spans"), c("encoder.slot_spans_distinct")),
        "encoder.encode_s": units.incl("encoder.encode") / nu,
        "encoder.encode_calls": units.calls("encoder.encode") / nu,
        "evaluator.label_spans_encoded": c("evaluator.label_spans_encoded") / nu,
        "evaluator.labels": c("evaluator.labels") / nu,
        "evaluator.label_encodes_per_label": _ratio(
            c("evaluator.label_spans_encoded"), c("evaluator.labels")
        ),
        "objective.batch_loss_s": units.incl("objective.batch_loss") / nu,
        "objective.cosine_sim_s": units.incl("objective.cosine_sim") / nu,
        "objective.cosine_sim_calls": units.calls("objective.cosine_sim") / nu,
        "trainer.fit_self_s": units.self_time("trainer.fit_items") / nu,
        "trainer.batches": units.calls("encoder.loss_and_param_grads") / nu,
        "trainer.checkpoint_load_s": setups.incl("trainer.load_checkpoint") / ns,
        "evaluator.dev_scoring_s": units.incl("evaluator.dataset_accuracy") / nu,
        "evaluator.predict_self_s": units.self_time("evaluator.predict") / nu,
        "pretrain.mine_self_s": units.self_time("pretrain.build_paraphrase_instances") / nu,
        "pretrain.index_build_s": units.incl("pretrain.build_similarity_index") / nu,
        "pretrain.rank_calls": c("pretrain.rank_calls") / nu,
        "corpus.load_s": setups.incl("corpus.load_dataset") / ns,
        **{f"{layer}.self_s": units.layer_self(layer) / nu for layer in LAYERS},
        "trace.spans": units.spans / nu,
        "trace.overhead_pct": overhead_pct,
    }

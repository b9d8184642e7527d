#!/usr/bin/env python3
"""Zero-shot transfer demo: pretrain on synthetic paraphrase pairs, then score
an unseen intent task whose labels share no tokens with its utterances.

The paraphrase corpus pairs each sentence with a synonym-form rewrite, so the
contrastive objective has to align the two word forms; the probe task is only
solvable through that alignment. An untrained model sits at chance.
"""

import argparse

from fewintent.encoder import build_vocab
from fewintent.evaluator import (
    dataset_accuracy,
    generate_paraphrase_corpus,
    generate_transfer_task,
)
from fewintent.pretrain import build_paraphrase_instances, pair_sentences
from fewintent.trainer import TrainConfig, fit_items


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=200)
    ap.add_argument("--concepts", type=int, default=40)
    ap.add_argument("--intents", type=int, default=20)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    corpus = generate_paraphrase_corpus(args.pairs, args.concepts, seed=args.seed)
    task = generate_transfer_task(args.intents, seed=args.seed + 1)
    k = args.intents

    tasks = build_paraphrase_instances(corpus, n_target=args.intents, k=k, seed=args.seed)
    vocab = build_vocab([pair_sentences(corpus)])
    cfg = TrainConfig(k=k, epochs=args.epochs, seed=args.seed)
    params = cfg.new_params(vocab)

    chance = 100.0 / args.intents
    print(f"{args.pairs} pairs over {args.concepts} concepts, "
          f"{args.intents}-intent probe ({len(task.examples)} utterances)")
    print(f"untrained zero-shot accuracy: {dataset_accuracy(params, vocab, task, k):6.2f}%"
          f"  (chance {chance:.1f}%)")

    best, report = fit_items(tasks, vocab, params, cfg)
    print(f"pretraining losses per epoch: {[round(x, 4) for x in report.epoch_losses]}")
    print(f"pretrained zero-shot accuracy: {dataset_accuracy(best, vocab, task, k):6.2f}%")


if __name__ == "__main__":
    main()

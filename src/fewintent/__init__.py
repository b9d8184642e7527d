"""Few-shot intent detection against grouped label-candidate slates.

An utterance is concatenated with its entire intent inventory, split into
fixed-size groups of label slots, and trained so that its representation sits
closest to its gold intent's representation under a temperature-scaled cosine
contrastive loss. Includes paraphrase and out-of-domain pretraining, a seeded
evaluation harness, and a fully gradient-checked toy encoder.
"""

from .corpus import (
    Dataset,
    IntentLabel,
    LabeledUtterance,
    build_ood,
    load_dataset,
    normalize_label,
    sample_few_shot,
    split_dev,
)
from .encoder import (
    ModelParams,
    SequenceEmbeddings,
    TokenizedSequence,
    Vocabulary,
    build_vocab,
    encode,
    grad_check,
    init_params,
    tokenize,
)
from .errors import CheckpointError, DataError, FewIntentError, NumericError
from .evaluator import (
    EvalReport,
    LabelIndex,
    Prediction,
    encode_inventory,
    evaluate_runs,
    generate_paraphrase_corpus,
    generate_synthetic,
    generate_transfer_task,
    predict,
    sweep_k,
    topk_miss,
)
from .objective import LossConfig, batch_loss, cosine_sim, sequence_loss
from .pretrain import (
    ParaphrasePair,
    PretrainInstance,
    build_paraphrase_instances,
    build_similarity_index,
    filter_pairs,
)
from .sequencer import (
    PLACEHOLDER,
    IntentGroup,
    SequencePlan,
    augment_shuffles,
    build_plans,
    choose_k,
    partition_intents,
)
from .trainer import TrainConfig, TrainReport, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

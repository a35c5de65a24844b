"""Concept-gated residual augmentation for extractive QA at desk scale.

A numpy library covering the full pipeline: concept dictionaries with
importance-scored boost factors, subword tokenization with boost-vector
alignment, a gated residual block with exact hand-written gradients, a
miniature disentangled-attention encoder adapted through low-rank adapters,
a two-stage training loop, and the answer-level metric suite with ablation
runners.
"""

__version__ = "0.1.0"

from .dictionary import (
    ConceptDictionary,
    ConceptEntry,
    boost_factor,
    build_dictionary,
    builtin_dictionary,
    compute_importance,
    empty_dictionary,
    load_dictionary,
    save_dictionary,
)
from .gating import GateParams, gate_backward, gate_forward, gradient_check
from .model import (
    EncoderModel,
    ModelConfig,
    ParamTable,
    SpanPrediction,
    build_model,
    count_parameters,
    embed,
    encoder_forward,
    load_checkpoint,
    predict_span,
    qa_forward,
    save_checkpoint,
)
from .tokenizer import (
    TokenizedExample,
    Vocab,
    align_answer_span,
    build_boost_vector,
    encode_qa,
    train_vocab,
)
from .training import (
    StageConfig,
    SynonymTable,
    TrainConfig,
    TrainHistory,
    augment_synonym,
    default_stages,
    lr_schedule,
    optimizer_step,
    train_two_stage,
)
from .metrics import bleu, embed_score, normalize_answer, rouge_l, token_f1
from .evaluation import (
    ABLATION_VARIANTS,
    FULL,
    NO_GATING,
    NO_ICD,
    NO_RESIDUAL,
    MetricReport,
    ablated_model,
    apply_ablation,
    evaluate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

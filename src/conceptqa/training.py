"""Two-stage fine-tuning: warmup schedule, AdamW, early stopping and
concept-preserving synonym augmentation.

Stage 1 adapts the LoRA adapters and span heads of the ``no_icd`` variant
(the same parameters with the dictionary signal off); stage 2 switches the
concept boost on and additionally trains the gate and the domain-embedding
term.  Early stopping tracks validation exact match and always returns the
best checkpoint seen.  Both loops, two-stage and budgeted, run on one seeded
iterator of ``(step, lr, batch)``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, metrics, model as model_mod
from .dictionary import ConceptDictionary
from .model import ADAPTABLE_GROUPS, EncoderModel, ParamTable
from .text import (_field, _items, normalize_text, normalize_words, read_json_object,
                   words_with_spans)
from .tokenizer import Vocab

STAGE_ADAPTATION = "adaptation"
STAGE_SPECIALIZATION = "specialization"


@dataclass(frozen=True)
class StageConfig:
    stage: str
    epochs: int
    boost_enabled: bool
    trainable: tuple[str, ...]

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.stage == STAGE_ADAPTATION and self.boost_enabled:
            raise ValueError("adaptation stage must run with the boost disabled")
        if self.stage == STAGE_SPECIALIZATION and not self.boost_enabled:
            raise ValueError("specialization stage must run with the boost enabled")
        if not self.trainable:
            raise ValueError("trainable must name at least one group, got none")
        for group in self.trainable:
            if group not in ADAPTABLE_GROUPS:
                raise ValueError(f"unknown trainable group {group!r}")


def default_stages() -> list[StageConfig]:
    return [
        StageConfig(STAGE_ADAPTATION, 10, False, ("lora", "heads")),
        StageConfig(STAGE_SPECIALIZATION, 20, True,
                    ("lora", "gates", "heads", "embed_domain")),
    ]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    effective_batch: int = 4
    warmup_steps: int = 500
    max_epochs: int = 50
    patience: int = 3
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for names, rule, ok in (
                ("learning_rate effective_batch warmup_steps max_epochs patience", "> 0",
                 lambda v: v > 0),
                ("weight_decay seed", ">= 0", lambda v: v >= 0)):
            for name in names.split():
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class TrainHistory:
    records: list[dict] = field(default_factory=list)
    best_step: int = -1
    best_em: float = -1.0
    skipped_truncated: int = 0

    def append(self, step: int, train_loss: float, val_em: float, val_f1: float,
               lr: float) -> None:
        if self.records and step <= self.records[-1]["step"]:
            raise ValueError("history steps must be strictly increasing")
        self.records.append(
            {"step": step, "loss": train_loss, "em": val_em, "f1": val_f1, "lr": lr}
        )

    def to_csv(self, path: str | Path) -> None:
        lines = ["step,loss,em,f1,lr"]
        for r in self.records:
            lines.append(f"{r['step']},{r['loss']:.6f},{r['em']:.4f},{r['f1']:.4f},{r['lr']:.3e}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class TrainingDiverged(FloatingPointError):
    """A non-finite gradient stopped training; ``model`` holds the best parameters
    so far and ``history`` the epochs before the failing step."""

    def __init__(self, message: str, model: EncoderModel, history: TrainHistory):
        super().__init__(message)
        self.model = model
        self.history = history


def lr_schedule(step: int, cfg: TrainConfig, total_steps: int) -> float:
    """Linear warmup to the base rate, then linear decay to zero."""
    if total_steps <= cfg.warmup_steps:
        raise ValueError(
            f"schedule underflow: total_steps {total_steps} <= warmup {cfg.warmup_steps}"
        )
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step <= cfg.warmup_steps:
        return cfg.learning_rate * step / cfg.warmup_steps
    return cfg.learning_rate * (total_steps - step) / (total_steps - cfg.warmup_steps)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def init_optimizer_state(params: dict[str, np.ndarray]) -> dict:
    """A fresh AdamW state; the first ``optimizer_step`` makes its two moment
    arrays, each the size of the adapted-parameter array it updates."""
    return {"step": 0, "m": None, "v": None}


def optimizer_step(
    params: ParamTable,
    grads: dict[str, np.ndarray] | np.ndarray,
    state: dict,
    cfg: TrainConfig,
    lr: float,
    groups: tuple[str, ...] | None = None,
) -> None:
    """One decoupled-weight-decay adaptive-moment update, in place, with
    β₁ ``ADAM_BETA1``, β₂ ``ADAM_BETA2`` and ε ``ADAM_EPS``.

    ``grads`` is one array laid out like ``params.flat``, as ``qa_loss_and_grads``
    adds into, or a dict that names every adapted tensor with a gradient of its
    shape, as that function returns.  The update reads gradient, parameters and
    moments through the same slices, those ``groups`` fill (all four when None);
    every other group keeps its values and zero moments (no decay either).  The
    step counter is global.  A non-finite gradient of a trained group, named by
    its tensor, aborts the step before anything moves.
    """
    if not isinstance(params, ParamTable):
        raise TypeError("params must be a ParamTable, as EncoderModel makes, "
                        f"got {type(params).__name__}")
    layout = params.layout
    if isinstance(grads, dict):
        shapes = dict(zip(layout.names, layout.shapes))
        for name in [*grads, *shapes]:
            if name not in shapes:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            if name not in grads:
                raise ValueError(f"no gradient for {name!r}; a dict names every adapted tensor")
            if np.shape(grads[name]) != shapes[name]:
                raise ValueError(f"gradient for {name!r} has shape {np.shape(grads[name])}, "
                                 f"its tensor {shapes[name]}")
        grads = np.concatenate([grads[name] for name in shapes], axis=None)
    if np.shape(grads) != params.flat.shape:
        raise ValueError(f"gradient of shape {np.shape(grads)} for "
                         f"{params.flat.size} adapted values")
    stretches = layout.select(ADAPTABLE_GROUPS if groups is None else groups)
    for part in stretches:
        finite = np.isfinite(grads[part])
        if not finite.all():
            at = part.start + int(np.argmin(finite))
            name = layout.names[int(np.searchsorted(layout.bounds, at, side="right")) - 1]
            raise FloatingPointError(f"non-finite gradient for {name!r}; step aborted")
    if state["m"] is None:
        state["m"], state["v"] = np.zeros_like(params.flat), np.zeros_like(params.flat)
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    grads = grads.astype(params.flat.dtype, copy=False)
    for part in stretches:  # one per stretch of adjacent trained groups
        p, m, v, g = params.flat[part], state["m"][part], state["v"][part], grads[part]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p -= lr * (update + cfg.weight_decay * p)


# ---------------------------------------------------------------------------
# synonym augmentation
# ---------------------------------------------------------------------------

_WORD_TOKEN = re.compile(r"^\w+$")


@dataclass
class SynonymTable:
    table: dict[str, list[str]]

    def __post_init__(self):
        keys: dict[str, str] = {}  # normalized -> given
        for key in self.table:
            norm = normalize_text(key)
            if keys.setdefault(norm, key) != key:
                raise ValueError(f"synonym keys {keys[norm]!r} and {key!r} "
                                 f"both normalize to {norm!r}")
        self.table = {norm: list(self.table[key]) for norm, key in keys.items()}

    def validate_against(self, dictionary: ConceptDictionary) -> None:
        """ValueError naming the first key or alternative whose normalized words
        hold a dictionary term, as "the prophet" and "prayer-time" do."""
        for key, values in self.table.items():
            for kind, phrase in [("key", key), *(("value", v) for v in values)]:
                words = normalize_words(phrase)
                for term in words:
                    if term in dictionary.entries:
                        raise ValueError(f"synonym {kind} {phrase!r} " + (
                            "is a dictionary concept term" if words == [term]
                            else f"holds dictionary concept term {term!r}"))

    @classmethod
    def load(cls, path: str | Path) -> "SynonymTable":
        """Read a ``{"word": ["alternative", ...]}`` file; a malformed one raises
        ValueError naming the file."""
        return read_json_object(Path(path), lambda payload: cls({
            word: [alt for _, alt in _items(_field(payload, word, (list,), ""), str, word)]
            for word in payload}))


def augment_synonym(
    record: dict,
    table: SynonymTable,
    dictionary: ConceptDictionary,
    rate: float,
    seed: int,
) -> dict:
    """Replace non-concept context words with synonyms, preserving the answer.

    Each clean word token outside the answer span is independently replaced
    with probability ``rate``; concept terms and the answer text itself are
    never touched, and the answer character offset is re-derived from the
    edits before it.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate {rate} outside [0, 1]")
    rng = np.random.default_rng(seed)
    context = record["context"]
    answer = record["answer_text"]
    ans_start = record["answer_char_start"]
    ans_end = ans_start + len(answer)
    if context[ans_start:ans_end] != answer:
        raise ValueError("record is inconsistent: answer not at stated offset")

    pieces: list[str] = []
    cursor = 0
    new_ans_start = ans_start
    for raw, start, end in words_with_spans(context):
        pieces.append(context[cursor:start])
        cursor = end
        replacement = raw
        key = normalize_text(raw)
        eligible = (
            _WORD_TOKEN.match(raw)
            and (end <= ans_start or start >= ans_end)
            and key in table.table
            and table.table[key]
            and key not in dictionary.entries
        )
        if eligible and rng.random() < rate:
            candidates = table.table[key]
            replacement = candidates[int(rng.integers(len(candidates)))]
        if end <= ans_start:
            new_ans_start += len(replacement) - len(raw)
        pieces.append(replacement)
    pieces.append(context[cursor:])
    new_context = "".join(pieces)

    if new_context[new_ans_start:new_ans_start + len(answer)] != answer:
        raise RuntimeError("augmentation corrupted the answer span")
    out = dict(record)
    out["context"] = new_context
    out["answer_char_start"] = new_ans_start
    return out


# ---------------------------------------------------------------------------
# two-stage training loop
# ---------------------------------------------------------------------------

def _quick_eval(model: EncoderModel, examples, vocab: Vocab):
    """Validation EM/F1 (percent) by greedy span prediction and text match."""
    preds = evaluation.predict_all(model, examples, vocab)
    ems, f1s = zip(*(metrics.best_em_f1(p["pred_text"], enc.gold_texts)
                     for enc, p in zip(examples, preds)))
    return 100.0 * float(np.mean(ems)), 100.0 * float(np.mean(f1s))


def _steps(usable: list, cfg: TrainConfig, total_steps: int):
    """Yield ``(step, lr, batch)`` forever from step 1: each epoch slices one seeded
    permutation of ``usable``; ``lr`` holds its last value past ``total_steps``."""
    rng = np.random.default_rng(cfg.seed)
    step = 0
    while True:
        order = rng.permutation(len(usable))
        for start in range(0, len(order), cfg.effective_batch):
            step += 1
            yield (step, lr_schedule(min(step, total_steps), cfg, total_steps),
                   [usable[j] for j in order[start:start + cfg.effective_batch]])


def _train_step(model: EncoderModel, step: int, lr: float, batch: list, cfg: TrainConfig,
                opt_state: dict, trainable: tuple[str, ...]) -> list[float]:
    """One optimizer step on the batch-mean gradient; returns per-example losses.

    Each example adds its gradients into one zero array laid out like the
    adapted-parameter array: the batch sums them in order, ((g1 + g2) + g3)
    + ..., before one division.  The first overflow or invalid value anywhere in
    the step raises FloatingPointError naming the step, not a numpy warning.
    """
    acc = np.zeros_like(model.params.flat)
    losses = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for enc in batch:
                loss, _ = model_mod.qa_loss_and_grads(model, enc.example, into=acc)
                losses.append(loss)
            acc /= len(batch)
            optimizer_step(model.params, acc, opt_state, cfg, lr=lr, groups=trainable)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} at step {step}") from exc
    return losses


def train_two_stage(
    model: EncoderModel,
    train_set: list,
    val_set: list,
    cfg: TrainConfig,
    stages: list[StageConfig],
    *,
    vocab: Vocab,
) -> tuple[EncoderModel, TrainHistory]:
    """Run the two-stage loop with per-epoch validation and early stopping.

    Validation EM that fails to improve for ``patience`` consecutive
    evaluations ends the current stage; the best checkpoint is tracked
    globally and is what the call returns.  Examples whose gold span fell
    outside the packed sequence are skipped (counted in the history).  A
    non-finite gradient or an overflow in a step raises TrainingDiverged
    carrying the best checkpoint.
    """
    if not train_set or not val_set:
        raise ValueError("empty split")

    usable = [e for e in train_set if e.example.gold_span is not None]
    history = TrainHistory(skipped_truncated=len(train_set) - len(usable))
    if not usable:
        raise ValueError("no trainable examples: every gold span was truncated away")

    epochs = min(sum(s.epochs for s in stages), cfg.max_epochs)
    if epochs == 0:
        raise ValueError("no training steps: the stages run 0 epochs")
    steps_per_epoch = math.ceil(len(usable) / cfg.effective_batch)
    total_steps = epochs * steps_per_epoch
    lr_schedule(0, cfg, total_steps)  # validates the schedule up front

    steps = _steps(usable, cfg, total_steps)
    params = model.params
    opt_state = init_optimizer_state(params)
    best = params.flat.copy()  # the frozen tensors never change

    for stage in stages:
        # patience is per stage: a new stage changes the objective, so it
        # starts with a fresh non-improvement budget (the best checkpoint
        # remains global across stages)
        bad_evals = 0
        # the boost-off stage runs the no-dictionary variant of the same parameters
        run = model if stage.boost_enabled else evaluation.ablated_model(model, evaluation.NO_ICD)
        # one history record per epoch run, up to max_epochs over all stages
        for _ in range(min(stage.epochs, cfg.max_epochs - len(history.records))):
            losses = []
            for step, lr, batch in itertools.islice(steps, steps_per_epoch):
                try:
                    losses += _train_step(run, step, lr, batch, cfg, opt_state, stage.trainable)
                except FloatingPointError as exc:
                    params.flat[...] = best
                    raise TrainingDiverged(
                        f"{exc}; kept the parameters of step {max(history.best_step, 0)}",
                        model, history) from exc

            val_em, val_f1 = _quick_eval(run, val_set, vocab)
            history.append(step, float(np.mean(losses)), val_em, val_f1, lr)
            if val_em > history.best_em:
                best[...] = params.flat
                history.best_step = step
                history.best_em = val_em
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= cfg.patience:
                    break  # this stage has converged; move to the next

    params.flat[...] = best
    return model, history


def train_epochs_simple(
    model: EncoderModel,
    train_set: list,
    cfg: TrainConfig,
    max_steps: int,
    trainable: tuple[str, ...] = ADAPTABLE_GROUPS,
    total_steps: int | None = None,
) -> EncoderModel:
    """Budgeted single-stage loop (no validation); used by sanity checks.

    An overflow or a non-finite gradient raises FloatingPointError naming the step.
    """
    usable = [e for e in train_set if e.example.gold_span is not None]
    if not usable:
        raise ValueError("no trainable examples")
    opt_state = init_optimizer_state(model.params)
    total = total_steps if total_steps is not None else max_steps
    for step, lr, batch in itertools.islice(_steps(usable, cfg, total), max_steps):
        _train_step(model, step, lr, batch, cfg, opt_state, trainable)
    return model

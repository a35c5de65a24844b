"""Model evaluation: span prediction, the five answer metrics, latency,
and the ablation variants (full / no gating / no dictionary / no residual).

Inference is batched.  ``predict_all`` and the embedding score sort their
sequences by length, longest first, and run one ``encoder_forward`` per
sub-batch: B rows padded to the sub-batch's first and longest length L, with
at most ``ROW_BUDGET`` padded rows B·L.  A row that alone exceeds the bound
runs alone.  Results come back in input order.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .data import EncodedExample
from .dictionary import ConceptDictionary
from .model import (
    BOOST_OFF,
    GATE_OFF,
    EncoderModel,
    ModelConfig,
    encoder_forward,
    predict_span,
    span_logits,
)
from .text import write_json
from .tokenizer import Vocab

FULL = "full"
NO_GATING = "no_gating"
NO_ICD = "no_icd"
NO_RESIDUAL = "no_residual"
ABLATION_VARIANTS = (FULL, NO_GATING, NO_ICD, NO_RESIDUAL)

# Sub-batch bound on padded rows B·L, from a sweep on the benchmark workloads.
# The position-wise layers' working set grows with B·L (55 rows at L = 17 took
# 4 MB); larger sub-batches ran slower per row and raised peak RSS.  Past
# L = 128 a row runs alone.  A second bound of 16Ki attention cells B·L²,
# tighter only at L 74-85 and 91-128, ran predict no faster there.
ROW_BUDGET = 256


def apply_ablation(config: ModelConfig, variant: str) -> ModelConfig:
    """Map an ablation variant onto backbone modes."""
    if variant == FULL:
        return config
    if variant == NO_GATING:
        return dataclasses.replace(config, gate_mode=GATE_OFF)
    if variant == NO_ICD:
        return dataclasses.replace(config, boost_mode=BOOST_OFF)
    if variant == NO_RESIDUAL:
        return dataclasses.replace(config, residual_skip=False)
    raise ValueError(f"unknown ablation variant {variant!r}")


def ablated_model(model: EncoderModel, variant: str) -> EncoderModel:
    """Same parameters, ablated configuration (parameters are shared)."""
    return EncoderModel(
        config=apply_ablation(model.config, variant),
        params=model.params,
        seed=model.seed,
        dictionary_version=model.dictionary_version,
    )


@dataclass
class MetricReport:
    em: float                 # percent
    f1: float                 # percent
    bleu: float               # [0, 1]
    rouge_l: float            # [0, 1]
    embed_score: float        # [0, 1]
    mean_latency_ms: float
    n_examples: int
    n_truncated: int = 0      # contexts cut at the model's max_len
    concept_em: float | None = None
    variant: str = FULL
    # the decoded predictions behind the scores; not part of the report
    predictions: list[dict] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name != "predictions"}

    def to_json(self, path) -> None:
        write_json(path, self.to_dict(), indent=2, sort_keys=True)


def _forward_rows(model: EncoderModel, rows: list[tuple[np.ndarray, np.ndarray]]) -> list:
    """Final hidden states (L_i, d) of each (token ids, boost) row, in input order.

    The rows run longest first, so that freed arrays fit the next sub-batch's,
    in padded sub-batches of at most ROW_BUDGET B·L rows; a row that alone
    exceeds it runs alone.
    """
    order = sorted(range(len(rows)), key=lambda i: -len(rows[i][0]))
    out = [None] * len(rows)
    start = 0
    while start < len(order):
        seq_len = len(rows[order[start]][0])
        batch = order[start:start + max(1, ROW_BUDGET // seq_len)]
        lengths = np.array([len(rows[i][0]) for i in batch])
        ids = np.zeros((len(batch), seq_len), dtype=np.int64)
        boost = np.ones(ids.shape)
        for b, i in enumerate(batch):
            ids[b, :lengths[b]], boost[b, :lengths[b]] = rows[i]
        hidden = encoder_forward(model, ids, boost, lengths=lengths)
        for b, i in enumerate(batch):
            out[i] = hidden[b, :lengths[b]]
        start += len(batch)
    return out


def _windows(ids: list[int], counts: list[int], width: int) -> list[tuple[list, list]]:
    """(piece ids, piece count per word) of consecutive word windows of at most
    ``width`` pieces; a longer word keeps its first ``width`` pieces."""
    windows = [([], [])]
    start = 0
    for n in counts:
        pieces = ids[start:start + n][:width]
        start += n
        if windows[-1][1] and len(windows[-1][0]) + len(pieces) > width:
            windows.append(([], []))
        windows[-1][0].extend(pieces)
        windows[-1][1].append(len(pieces))
    return windows


def _embed_token_lists(model: EncoderModel, vocab: Vocab, token_lists) -> list[np.ndarray]:
    """Per-token embeddings of each token list from the encoder's final hidden states.

    Each list is packed as context-only sequences, one per ``_windows`` window
    of the model's ``max_len - 2`` pieces, and each word's subword states are
    mean-pooled, yielding one vector per input token.
    """
    rows = [(i, window) for i, tokens in enumerate(token_lists)
            for window in _windows(*vocab.encode_words(tokens), model.config.max_len - 2)]
    hidden = _forward_rows(model, [(ids, np.ones(len(ids)))
                                   for ids in (vocab.pack(pieces) for _, (pieces, _) in rows)])
    parts = [[] for _ in token_lists]
    for (i, (pieces, counts)), h in zip(rows, hidden):
        counts = np.asarray(counts)
        sums = np.add.reduceat(h[1:1 + len(pieces)], np.cumsum(counts) - counts)  # past [CLS]
        parts[i].append(sums / counts[:, None])
    return [np.concatenate(p) for p in parts]


def predict_all(
    model: EncoderModel,
    dataset: list[EncodedExample],
    vocab: Vocab,
    ablation: str = FULL,
) -> list[dict]:
    """Span predictions as {id, pred_text, gold_text, start, end} dicts, from
    one batched forward pass over the dataset."""
    m = ablated_model(model, ablation)
    hidden = _forward_rows(m, [(enc.example.token_ids, enc.example.boost) for enc in dataset])
    out = []
    for enc, h in zip(dataset, hidden):
        start_logits, end_logits = span_logits(m, h)
        pred = predict_span(start_logits, end_logits, enc.example, m.config.max_answer_len)
        out.append({
            "id": enc.id,
            "pred_text": enc.example.span_text(vocab, (pred.start, pred.end)),
            "gold_text": enc.gold_texts[0],
            "start": pred.start,
            "end": pred.end,
        })
    return out


def latency_ratio(
    model: EncoderModel,
    dataset: list[EncodedExample],
    variant_a: str = FULL,
    variant_b: str = NO_GATING,
    repeats: int = 5,
) -> float:
    """Latency ratio variant_a / variant_b: the median over the dataset of
    each example's fastest repeat.

    The two variants run interleaved per example (after a warmup pass) so
    CPU frequency drift cannot bias the comparison.  Interference from other
    work on the host only adds time, so the minimum of the repeats is the
    example's time.
    """
    ma = ablated_model(model, variant_a)
    mb = ablated_model(model, variant_b)
    first = dataset[0].example
    for _ in range(2):
        encoder_forward(ma, first.token_ids, first.boost)
        encoder_forward(mb, first.token_ids, first.boost)
    times_a, times_b = [], []
    for enc in dataset:
        ids, boost = enc.example.token_ids, enc.example.boost
        ta, tb = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            encoder_forward(ma, ids, boost)
            ta.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            encoder_forward(mb, ids, boost)
            tb.append(time.perf_counter() - t0)
        times_a.append(min(ta))
        times_b.append(min(tb))
    return float(np.median(times_a) / np.median(times_b))


def evaluate(
    model: EncoderModel,
    dataset: list[EncodedExample],
    ablation: str = FULL,
    *,
    vocab: Vocab,
    dictionary: ConceptDictionary,
) -> MetricReport:
    """Full metric pass over an encoded dataset, from one prediction pass.

    EM and F1 take the max over gold references; BLEU, ROUGE-L and the
    embedding score use the primary reference.  ``mean_latency_ms`` is the
    wall time of the batched prediction pass (forward, span search and decode)
    per example; it is excluded from determinism guarantees.  Each unique
    non-empty normalized answer is embedded once, in one batched pass.  The
    decoded predictions ride along on the report as ``predictions``.
    """
    if not dataset:
        raise ValueError("empty dataset")
    t0 = time.perf_counter()
    preds = predict_all(model, dataset, vocab, ablation)
    latency_ms = (time.perf_counter() - t0) * 1e3 / len(dataset)

    ems, f1s, bleus, rouges = [], [], [], []
    primary_pairs = []
    concept_flags = []
    for enc, pred in zip(dataset, preds):
        text = pred["pred_text"]
        em, f1 = metrics.best_em_f1(text, enc.gold_texts)
        ems.append(em)
        f1s.append(f1)
        bleus.append(metrics.bleu(text, enc.gold_texts[0]))
        rouges.append(metrics.rouge_l(text, enc.gold_texts[0]))
        primary_pairs.append((text, enc.gold_texts[0]))
        gold_words = metrics.normalize_answer(enc.gold_texts[0])
        concept_flags.append(any(w in dictionary.entries for w in gold_words))

    lists = list(dict.fromkeys(
        tuple(words) for pair in primary_pairs
        for words in map(metrics.normalize_answer, pair) if words))
    table = dict(zip(lists, _embed_token_lists(ablated_model(model, ablation), vocab, lists)))
    emb = metrics.embed_score(primary_pairs, lambda tokens: table[tuple(tokens)])

    concept_em = None
    if any(concept_flags):
        sel = [e for e, flag in zip(ems, concept_flags) if flag]
        concept_em = 100.0 * float(np.mean(sel))

    return MetricReport(
        em=100.0 * float(np.mean(ems)),
        f1=100.0 * float(np.mean(f1s)),
        bleu=float(np.mean(bleus)),
        rouge_l=float(np.mean(rouges)),
        embed_score=emb,
        mean_latency_ms=latency_ms,
        n_examples=len(dataset),
        n_truncated=sum(enc.example.truncated for enc in dataset),
        concept_em=concept_em,
        variant=ablation,
        predictions=preds,
    )


def format_report_table(reports: list[MetricReport], ablation_style: bool = False) -> str:
    """Aligned text table; ablation style keeps the EM / F1 / EmbedScore columns."""
    if ablation_style:
        header = f"{'Configuration':<16}{'EM':>9}{'F1':>9}{'EmbedScore':>12}"
        lines = [header, "-" * len(header)]
        for r in reports:
            lines.append(
                f"{r.variant:<16}{r.em:>8.2f}%{r.f1:>8.2f}%{100 * r.embed_score:>11.2f}%"
            )
    else:
        header = (f"{'Model':<16}{'EM (%)':>9}{'F1 (%)':>9}{'BLEU (%)':>10}"
                  f"{'ROUGE-L (%)':>13}{'EmbedScore (%)':>16}{'Time (ms)':>11}")
        lines = [header, "-" * len(header)]
        for r in reports:
            lines.append(
                f"{r.variant:<16}{r.em:>9.2f}{r.f1:>9.2f}{100 * r.bleu:>10.2f}"
                f"{100 * r.rouge_l:>13.2f}{100 * r.embed_score:>16.2f}"
                f"{r.mean_latency_ms:>11.2f}"
            )
    return "\n".join(lines)

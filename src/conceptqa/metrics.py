"""Answer-level evaluation metrics: EM, token F1, BLEU, ROUGE-L, embedding score.

All metrics operate on normalized answer tokens (lowercased, punctuation and
English articles removed).  BLEU is single-reference sentence-level with
uniform 4-gram weights and epsilon smoothing for zero precisions; ROUGE-L is
the LCS F-measure.  The embedding score is greedy cosine-matching F1 between
per-token embeddings, the usual reading of model-based answer similarity.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from .text import normalize_words

ARTICLES = {"a", "an", "the"}
BLEU_N = 4
BLEU_EPS = 1e-9

Embedder = Callable[[Sequence[str]], np.ndarray]


def normalize_answer(text: str) -> list[str]:
    """The words of ``normalize_words`` without English articles."""
    return [w for w in normalize_words(text) if w not in ARTICLES]


def token_f1(pred: str, gold: str) -> float:
    """Multiset token-overlap F1 = 2PR / (P + R)."""
    p_toks = normalize_answer(pred)
    g_toks = normalize_answer(gold)
    if not p_toks and not g_toks:
        return 1.0
    if not p_toks or not g_toks:
        return 0.0
    overlap = sum((Counter(p_toks) & Counter(g_toks)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(p_toks)
    recall = overlap / len(g_toks)
    return 2.0 * precision * recall / (precision + recall)


def best_em_f1(pred: str, golds: Sequence[str]) -> tuple[float, float]:
    """Exact match (0 or 1) and token F1 of ``pred``, each maxed over the references."""
    norm_pred = normalize_answer(pred)
    em = max(float(norm_pred == normalize_answer(g)) for g in golds)
    return em, max(token_f1(pred, g) for g in golds)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(pred: str, gold: str) -> float:
    """Sentence BLEU-4: brevity penalty times the geometric mean of the
    clipped n-gram precisions p_1..p_4 (uniform weights).

    A zero precision enters the geometric mean as BLEU_EPS instead, so short
    or partially matching predictions score small but nonzero.
    """
    p_toks = normalize_answer(pred)
    g_toks = normalize_answer(gold)
    if not p_toks:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_N + 1):
        pred_ngrams = _ngrams(p_toks, n)
        total = sum(pred_ngrams.values())
        clipped = sum((pred_ngrams & _ngrams(g_toks, n)).values()) if total else 0
        p_n = clipped / total if total else 0.0
        log_sum += math.log(p_n if p_n > 0.0 else BLEU_EPS)
    bp = min(1.0, math.exp(1.0 - len(g_toks) / len(p_toks)))
    return bp * math.exp(log_sum / BLEU_N)


def rouge_l(pred: str, gold: str) -> float:
    """LCS F-measure 2 R P / (R + P) over normalized tokens."""
    p_toks = normalize_answer(pred)
    g_toks = normalize_answer(gold)
    if not p_toks or not g_toks:
        return 0.0
    lcs = _lcs_length(p_toks, g_toks)
    if lcs == 0:
        return 0.0
    recall = lcs / len(g_toks)
    precision = lcs / len(p_toks)
    return 2.0 * recall * precision / (recall + precision)


def _lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def greedy_match_f1(pred_emb: np.ndarray, gold_emb: np.ndarray) -> float:
    """Greedy cosine-matching F1 between two token-embedding matrices.

    Each token matches its best counterpart on the other side; negative
    cosines clamp to zero so the score stays in [0, 1].
    """
    if pred_emb.size == 0 or gold_emb.size == 0:
        return 0.0
    if pred_emb.shape[1] != gold_emb.shape[1]:
        raise ValueError(
            f"embedder dimension mismatch: {pred_emb.shape[1]} vs {gold_emb.shape[1]}"
        )
    pn = np.linalg.norm(pred_emb, axis=1, keepdims=True)
    gn = np.linalg.norm(gold_emb, axis=1, keepdims=True)
    pn[pn == 0] = 1.0
    gn[gn == 0] = 1.0
    sim = (pred_emb / pn) @ (gold_emb / gn).T
    sim = np.maximum(sim, 0.0)
    precision = float(sim.max(axis=1).mean())
    recall = float(sim.max(axis=0).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def embed_score(pairs: list[tuple[str, str]], embedder: Embedder) -> float:
    """Mean greedy-matching F1 over (prediction, reference) pairs."""
    if not pairs:
        raise ValueError("empty pair list")
    scores = []
    for pred, gold in pairs:
        p_toks = normalize_answer(pred)
        g_toks = normalize_answer(gold)
        if not p_toks and not g_toks:
            scores.append(1.0)
            continue
        if not p_toks or not g_toks:
            scores.append(0.0)
            continue
        scores.append(greedy_match_f1(embedder(p_toks), embedder(g_toks)))
    return float(np.mean(scores))


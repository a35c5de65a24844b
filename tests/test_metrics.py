import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conceptqa.metrics import (
    BLEU_EPS,
    best_em_f1,
    bleu,
    embed_score,
    greedy_match_f1,
    normalize_answer,
    rouge_l,
    token_f1,
)

WORDS = ["prophet", "said", "verily", "patience", "mercy", "truth", "kind", "just"]


def random_phrase(rng, lo=1, hi=6):
    n = int(rng.integers(lo, hi + 1))
    return " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(n))


class TestNormalizeAnswer:
    def test_article_and_punctuation(self):
        assert normalize_answer("The Prophet.") == ["prophet"]

    def test_empty(self):
        assert normalize_answer("") == []

    def test_collapses_whitespace(self):
        assert normalize_answer("  five,   loaves ") == ["five", "loaves"]

    @given(st.text(max_size=40))
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(" ".join(once)) == once


class TestExactMatch:
    def test_all_identical(self):
        assert best_em_f1("patience mercy", ["patience mercy"]) == (1.0, 1.0)

    def test_three_of_four(self):
        pairs = [("mercy", "mercy")] * 3 + [("mercy", "patience")]
        assert [best_em_f1(p, [g])[0] for p, g in pairs] == [1.0, 1.0, 1.0, 0.0]
        assert best_em_f1("mercy", ["patience", "mercy"])[0] == 1.0  # best reference

    def test_normalization_only_differences_match(self):
        assert best_em_f1("Five", ["five."])[0] == 1.0
        assert best_em_f1("the prophet", ["Prophet"])[0] == 1.0


class TestTokenF1:
    def test_article_stripped_full_match(self):
        assert token_f1("prophet said", "the prophet said") == pytest.approx(1.0)

    def test_partial_overlap(self):
        assert token_f1("prophet said", "prophet said verily") == pytest.approx(0.8)

    def test_disjoint(self):
        assert token_f1("mercy", "patience") == 0.0

    def test_both_empty(self):
        assert token_f1("", "the") == 1.0  # both normalize to nothing

    def test_one_empty(self):
        assert token_f1("", "mercy") == 0.0
        assert token_f1("mercy", "") == 0.0

    def test_matches_multiset_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            pred, gold = random_phrase(rng), random_phrase(rng)
            p_toks, g_toks = normalize_answer(pred), normalize_answer(gold)
            overlap = 0
            gold_pool = list(g_toks)
            for tok in p_toks:
                if tok in gold_pool:
                    gold_pool.remove(tok)
                    overlap += 1
            if overlap == 0:
                expected = 0.0
            else:
                p = overlap / len(p_toks)
                r = overlap / len(g_toks)
                expected = 2 * p * r / (p + r)
            assert token_f1(pred, gold) == pytest.approx(expected, abs=1e-12)


def bleu_oracle(pred, gold, max_n=4):
    """Independent n-gram counting implementation of sentence BLEU."""
    p_toks, g_toks = normalize_answer(pred), normalize_answer(gold)
    if not p_toks:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand = [tuple(p_toks[i:i + n]) for i in range(len(p_toks) - n + 1)]
        ref = [tuple(g_toks[i:i + n]) for i in range(len(g_toks) - n + 1)]
        clipped = 0
        for gram, count in Counter(cand).items():
            clipped += min(count, Counter(ref)[gram])
        p_n = clipped / len(cand) if cand else 0.0
        log_sum += math.log(p_n) if p_n > 0 else math.log(BLEU_EPS)
    bp = min(1.0, math.exp(1.0 - len(g_toks) / len(p_toks)))
    return bp * math.exp(log_sum / max_n)


class TestBleu:
    def test_identical_long_answer_is_one(self):
        text = "patience mercy truth devotion"
        assert bleu(text, text) == pytest.approx(1.0)

    def test_brevity_penalty_factor(self):
        gold = "patience mercy truth devotion"
        pred = "patience mercy"  # exact prefix: p1 = p2 = 1, p3 = p4 = eps
        expected = math.exp(-1.0) * math.exp(
            (math.log(1) + math.log(1) + 2 * math.log(BLEU_EPS)) / 4)
        assert bleu(pred, gold) == pytest.approx(expected, rel=1e-12)
        assert bleu(pred, gold) == pytest.approx(bleu_oracle(pred, gold), rel=1e-12)

    def test_empty_prediction_is_zero(self):
        assert bleu("", "patience mercy") == 0.0

    def test_matches_ngram_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            pred, gold = random_phrase(rng), random_phrase(rng)
            assert bleu(pred, gold) == pytest.approx(bleu_oracle(pred, gold), abs=1e-9)

    def test_below_one_when_different(self):
        assert bleu("patience mercy truth kind", "patience mercy truth just") < 1.0
        assert bleu("patience mercy truth kind extra", "patience mercy truth kind") < 1.0


def lcs_brute_force(a, b):
    """Longest common subsequence by exhaustive subsequence enumeration."""
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                return r
    return best


class TestRougeL:
    def test_identical_is_one(self):
        assert rouge_l("patience mercy", "patience mercy") == 1.0

    def test_arithmetic_example(self):
        # LCS = 3 of 4 tokens on both sides -> R = P = 0.75 -> 0.75
        assert rouge_l("wb wd we wf", "wb wc wd we") == pytest.approx(3 / 4 * 2 * 0.75 / 1.5)
        assert rouge_l("wb wd we wf", "wb wc wd we") == pytest.approx(0.75)

    def test_no_overlap_is_zero(self):
        assert rouge_l("mercy", "patience") == 0.0

    @given(st.lists(st.sampled_from(WORDS[:4]), min_size=1, max_size=8),
           st.lists(st.sampled_from(WORDS[:4]), min_size=1, max_size=8))
    def test_f_measure_is_bitwise_the_weighted_form_at_beta_one(self, pred, gold):
        # (1 + b²) R P / (R + b² P) at b = 1 rounds exactly like 2 R P / (R + P)
        lcs = lcs_brute_force(pred, gold)
        expected = 0.0
        if lcs:
            r, p, b2 = lcs / len(gold), lcs / len(pred), 1.0 * 1.0
            expected = (1.0 + b2) * r * p / (r + b2 * p)
        assert rouge_l(" ".join(pred), " ".join(gold)) == expected

    def test_dp_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(23)
        toks = ["wa", "wb", "wc", "wd"]
        for _ in range(40):
            n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = [toks[int(rng.integers(4))] for _ in range(n1)]
            b = [toks[int(rng.integers(4))] for _ in range(n2)]
            lcs = lcs_brute_force(a, b)
            if lcs == 0:
                expected = 0.0
            else:
                r, p = lcs / len(b), lcs / len(a)
                expected = 2 * r * p / (r + p)
            assert rouge_l(" ".join(a), " ".join(b)) == pytest.approx(expected, abs=1e-9)


class TestEmbedScore:
    def test_identical_is_one(self, hash_embedder):
        emb = hash_embedder(dim=8, seed=0)
        assert embed_score([("patience mercy", "patience mercy")], emb) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        def one_hot(tokens):
            table = {"wa": 0, "wb": 1, "wc": 2, "wd": 3}
            out = np.zeros((len(tokens), 4))
            for i, t in enumerate(tokens):
                out[i, table[t]] = 1.0
            return out
        assert embed_score([("wa wb", "wc wd")], one_hot) == 0.0

    def test_matches_greedy_oracle(self, hash_embedder):
        emb = hash_embedder(dim=12, seed=1)
        rng = np.random.default_rng(29)
        for _ in range(10):
            pred, gold = random_phrase(rng), random_phrase(rng)
            p_toks, g_toks = normalize_answer(pred), normalize_answer(gold)
            pe, ge = emb(p_toks), emb(g_toks)
            # scalar greedy-matching oracle
            sims = np.zeros((len(p_toks), len(g_toks)))
            for i in range(len(p_toks)):
                for j in range(len(g_toks)):
                    c = float(pe[i] @ ge[j]
                              / (np.linalg.norm(pe[i]) * np.linalg.norm(ge[j])))
                    sims[i, j] = max(c, 0.0)
            precision = float(np.mean([sims[i].max() for i in range(len(p_toks))]))
            recall = float(np.mean([sims[:, j].max() for j in range(len(g_toks))]))
            expected = (2 * precision * recall / (precision + recall)
                        if precision + recall else 0.0)
            got = embed_score([(pred, gold)], emb)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_sides_are_scored_without_the_embedder(self):
        def unused(tokens):
            raise AssertionError(f"embedded {tokens}")
        # "the" and "." normalize to no words
        assert embed_score([("the", ".")], unused) == 1.0
        assert embed_score([("the", "mercy")], unused) == 0.0
        assert embed_score([("mercy", "")], unused) == 0.0

    def test_dimension_mismatch(self):
        def ragged(tokens):
            return np.ones((len(tokens), 3 if tokens[0] == "wa" else 4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            greedy_match_f1(ragged(["wa"]), ragged(["wb"]))

    def test_empty_error(self, hash_embedder):
        with pytest.raises(ValueError, match="empty"):
            embed_score([], hash_embedder())


class TestAggregateInvariants:
    def test_metrics_bounded(self, hash_embedder):
        rng = np.random.default_rng(31)
        emb = hash_embedder(dim=8, seed=2)
        for _ in range(30):
            pred, gold = random_phrase(rng), random_phrase(rng)
            assert 0.0 <= token_f1(pred, gold) <= 1.0
            assert 0.0 <= bleu(pred, gold) <= 1.0
            assert 0.0 <= rouge_l(pred, gold) <= 1.0
            assert 0.0 <= embed_score([(pred, gold)], emb) <= 1.0

    def test_em_below_mean_f1(self):
        rng = np.random.default_rng(37)
        pairs = [(random_phrase(rng), random_phrase(rng)) for _ in range(40)]
        em = float(np.mean([best_em_f1(p, [g])[0] for p, g in pairs]))
        mean_f1 = float(np.mean([token_f1(p, g) for p, g in pairs]))
        assert em <= mean_f1 + 1e-12

    def test_rouge_one_iff_equal(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            pred, gold = random_phrase(rng), random_phrase(rng)
            equal = normalize_answer(pred) == normalize_answer(gold)
            assert (rouge_l(pred, gold) == pytest.approx(1.0)) == equal

    def test_bleu_one_iff_equal_for_long_gold(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            pred = random_phrase(rng, lo=4, hi=7)
            gold = random_phrase(rng, lo=4, hi=7)
            equal = normalize_answer(pred) == normalize_answer(gold)
            assert (bleu(pred, gold) > 0.999999) == equal

import dataclasses
import gc
import inspect
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conceptqa import model as M
from conceptqa.evaluation import NO_GATING, NO_ICD, ablated_model
from conceptqa.model import (
    EncoderModel,
    ModelConfig,
    build_model,
    count_parameters,
    embed,
    encoder_forward,
    load_checkpoint,
    models_equal,
    parameter_shapes,
    predict_span,
    qa_loss_and_grads,
    save_checkpoint,
    span_loss,
)
from conceptqa.tokenizer import SEG_CONTEXT, SEG_QUESTION, SEG_SPECIAL, TokenizedExample


def toy_example(n_ctx=6, n_q=3, vocab_size=64, seed=0, gold=None):
    rng = np.random.default_rng(seed)
    n = 3 + n_q + n_ctx
    ids = rng.integers(4, vocab_size, size=n).astype(np.int32)
    ids[0], ids[n_q + 1], ids[-1] = 2, 3, 3
    flags = np.asarray(
        [SEG_SPECIAL] + [SEG_QUESTION] * n_q + [SEG_SPECIAL] + [SEG_CONTEXT] * n_ctx
        + [SEG_SPECIAL], dtype=np.int8)
    widx = np.asarray([-1] + list(range(n_q)) + [-1]
                      + list(range(n_q, n_q + n_ctx)) + [-1], dtype=np.int32)
    boost = np.ones(n)
    boost[n_q + 2] = 1.74
    return TokenizedExample(
        token_ids=ids, segment_flags=flags, word_index=widx, boost=boost,
        gold_span=gold or (n_q + 2, n_q + 3), truncated=False,
        words=[f"w{i}" for i in range(n_q + n_ctx)], n_question_words=n_q,
        context_word_spans=[(0, 1)] * n_ctx, word_piece_counts=[1] * (n_q + n_ctx),
    )


@pytest.fixture(scope="module")
def small_model():
    cfg = ModelConfig(layers=2, hidden=16, heads=2, vocab_size=64,
                      lora_rank=4, max_rel_distance=4)
    return build_model(cfg, seed=0, dtype=np.float64)


class TestEmbed:
    def test_no_flags_is_token_plus_position(self, small_model):
        ids = np.array([2, 10, 11, 3], dtype=np.int32)
        h = embed(small_model, ids, np.zeros(4, dtype=bool))
        p = small_model.params
        expected = p["embed.token_table"][ids] + p["embed.position_table"][:4]
        np.testing.assert_array_equal(h, expected)

    def test_flag_difference_is_projected_domain_vector(self, small_model):
        ids = np.array([2, 10, 11, 3], dtype=np.int32)
        off = embed(small_model, ids, np.zeros(4, dtype=bool))
        on = embed(small_model, ids, np.ones(4, dtype=bool))
        p = small_model.params
        expected = p["embed.domain_projection"] @ p["embed.domain_vector"]
        for i in range(4):
            np.testing.assert_allclose(on[i] - off[i], expected, atol=1e-15)

    def test_matches_scalar_oracle(self, small_model):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 64, size=5).astype(np.int32)
        flags = np.array([True, False, True, False, False])
        h = embed(small_model, ids, flags)
        p = small_model.params
        d = small_model.config.hidden
        for i in range(5):
            for j in range(d):
                val = p["embed.token_table"][ids[i], j] + p["embed.position_table"][i, j]
                if flags[i]:
                    val += sum(p["embed.domain_projection"][j, k]
                               * p["embed.domain_vector"][k] for k in range(d))
                assert h[i, j] == pytest.approx(val, abs=1e-12)

    def test_id_out_of_range(self, small_model):
        with pytest.raises(ValueError, match="out of range"):
            embed(small_model, np.array([999]), np.array([False]))


class TestLoraApply:
    def test_zero_b_is_base_projection(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((8, 6))
        a = rng.standard_normal((8, 3))
        b = np.zeros((3, 6))
        x = rng.standard_normal(8)
        np.testing.assert_array_equal(M._lin_fwd(x, w, a, b, 2.0)[0], x @ w)

    def test_scale_is_alpha_over_rank(self):
        cfg = ModelConfig(lora_rank=8, lora_alpha=16.0)
        assert cfg.lora_scale == 2.0

    def test_matches_dense_materialization(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((8, 8))
        a = rng.standard_normal((8, 8))  # rank 8, alpha 16 -> scale 2.0
        b = rng.standard_normal((8, 8))
        x = rng.standard_normal((5, 8))
        dense = x @ (w + 2.0 * (a @ b))
        np.testing.assert_allclose(M._lin_fwd(x, w, a, b, 2.0)[0], dense, atol=1e-12)


def loop_attention(h, params, layer, cfg):
    """Brute-force single-position attention oracle (content + both
    relative-position interaction terms, softmax, value sum, projection)."""
    n, d = h.shape
    nh, dh, m = cfg.heads, cfg.head_dim, cfg.max_rel_distance
    scale = cfg.lora_scale
    pre = f"layer{layer}.attn."

    def lin(x, name, bias):
        w, b = params[pre + name + ".weight"], params[pre + name + ".bias"]
        la, lb = params[pre + name + ".lora_a"], params[pre + name + ".lora_b"]
        out = x @ w + scale * ((x @ la) @ lb)
        return out + b if bias else out

    rel = params[pre + "rel_table"]
    q, k, v = lin(h, "q", True), lin(h, "k", True), lin(h, "v", True)
    qr, kr = lin(rel, "q", False), lin(rel, "k", False)
    ctx = np.zeros_like(h)
    for head in range(nh):
        sl = slice(head * dh, (head + 1) * dh)
        for i in range(n):
            scores = np.zeros(n)
            for j in range(n):
                dij = min(max(j - i, -m), m) + m
                dji = min(max(i - j, -m), m) + m
                scores[j] = (q[i, sl] @ k[j, sl]
                             + q[i, sl] @ kr[dij, sl]
                             + qr[dji, sl] @ k[j, sl]) / math.sqrt(3 * dh)
            e = np.exp(scores - scores.max())
            p = e / e.sum()
            for j in range(n):
                ctx[i, sl] += p[j] * v[j, sl]
    return lin(ctx, "o", True)


class TestDisentangledAttention:
    def test_rows_sum_to_one(self, small_model):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((7, 16))
        _, cache = M._attention_fwd(h, small_model.params, 0, small_model.config)
        np.testing.assert_allclose(cache["prob"].sum(axis=-1), 1.0, atol=1e-9)

    def test_zeroed_tables_reduce_to_content_content(self):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=16, max_rel_distance=2)
        model = build_model(cfg, seed=3, dtype=np.float64)
        model.params["layer0.attn.rel_table"][:] = 0.0
        rng = np.random.default_rng(5)
        h = rng.standard_normal((5, 8))
        _, cache = M._attention_fwd(h, model.params, 0, cfg)
        qh, kh = cache["qh"], cache["kh"]
        expect = np.exp((qh @ kh.transpose(0, 2, 1)) / math.sqrt(3 * cfg.head_dim))
        expect = expect / expect.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(cache["prob"], expect, atol=1e-12)

    def test_matches_loop_oracle_one_head(self):
        cfg = ModelConfig(layers=1, hidden=4, heads=1, vocab_size=16, lora_rank=2,
                          max_rel_distance=2)
        model = build_model(cfg, seed=6, dtype=np.float64)
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 4))
        out, _ = M._attention_fwd(h, model.params, 0, cfg)
        np.testing.assert_allclose(out, loop_attention(h, model.params, 0, cfg), atol=1e-12)

    def test_matches_loop_oracle_multi_head(self, small_model):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((6, 16))
        out, _ = M._attention_fwd(h, small_model.params, 1, small_model.config)
        np.testing.assert_allclose(
            out, loop_attention(h, small_model.params, 1, small_model.config), atol=1e-12)

    @pytest.mark.parametrize("seq_len", [12, 1])
    def test_matches_loop_oracle_past_the_clip(self, seq_len):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=16, lora_rank=2,
                          max_rel_distance=2)
        model = build_model(cfg, seed=10, dtype=np.float64)
        rng = np.random.default_rng(11)
        for name in ("q", "k", "v", "o"):
            lora_b = model.params[f"layer0.attn.{name}.lora_b"]
            lora_b[:] = rng.standard_normal(lora_b.shape) * 0.1
        h = rng.standard_normal((seq_len, 8))
        out, _ = M._attention_fwd(h, model.params, 0, cfg)
        np.testing.assert_allclose(out, loop_attention(h, model.params, 0, cfg), atol=1e-12)

    def test_sublayer_applies_residual_norm(self):
        cfg = ModelConfig(layers=1, hidden=16, heads=2, vocab_size=64, lora_rank=4,
                          max_rel_distance=4, gate_mode="off")
        model = build_model(cfg, seed=0, dtype=np.float64)
        ex = toy_example()
        h = embed(model, ex.token_ids, ex.boost > 1.0)
        attn, _ = M._attention_fwd(h, model.params, 0, cfg)
        manual, _ = M._layernorm_fwd(h + attn, model.params["layer0.ln1.gamma"],
                                     model.params["layer0.ln1.beta"])
        _, caches = encoder_forward(model, ex.token_ids, ex.boost, return_caches=True)
        # with the gate off, the gate's input and output is the first sub-layer
        np.testing.assert_array_equal(caches["layers"][0]["gated"], manual)


class TestEncoderForward:
    def test_output_shape_and_determinism(self, small_model):
        ex = toy_example()
        h1 = encoder_forward(small_model, ex.token_ids, ex.boost)
        h2 = encoder_forward(small_model, ex.token_ids, ex.boost)
        assert h1.shape == (len(ex), 16)
        assert h1.tobytes() == h2.tobytes()

    def test_gate_off_equals_saturated_gate(self, small_model):
        # identical dictionary flags in both paths: the saturated gate is the
        # only difference, and it contributes < 1e-12
        ex = toy_example()
        off = ablated_model(small_model, NO_GATING)
        h_off = encoder_forward(off, ex.token_ids, ex.boost)

        saturated = EncoderModel(
            config=small_model.config,
            params={k: v.copy() for k, v in small_model.params.items()},
            seed=small_model.seed)
        saturated.params["gate.w"][:] = 0.0
        saturated.params["gate.b"][:] = -40.0
        h_sat = encoder_forward(saturated, ex.token_ids, ex.boost)
        np.testing.assert_allclose(h_off, h_sat, atol=1e-9)

    def test_three_neutralizations_coincide_without_concepts(self, small_model):
        # on a concept-free example gate-off, neutral-boost + saturated gate,
        # and saturated gate with the raw boost all compute the same encoder
        ex = toy_example()
        ones = np.ones(len(ex))
        h_off = encoder_forward(ablated_model(small_model, NO_GATING),
                                ex.token_ids, ones)
        saturated = EncoderModel(
            config=small_model.config,
            params={k: v.copy() for k, v in small_model.params.items()},
            seed=small_model.seed)
        saturated.params["gate.w"][:] = 0.0
        saturated.params["gate.b"][:] = -40.0
        h_icd_off = encoder_forward(ablated_model(saturated, NO_ICD), ex.token_ids, ones)
        h_sat = encoder_forward(saturated, ex.token_ids, ones)
        np.testing.assert_allclose(h_off, h_icd_off, atol=1e-9)
        np.testing.assert_allclose(h_off, h_sat, atol=1e-9)

    def test_no_icd_equals_neutral_boost(self, small_model):
        ex = toy_example()
        h_icd_off = encoder_forward(ablated_model(small_model, NO_ICD),
                                    ex.token_ids, ex.boost)
        h_ones = encoder_forward(small_model, ex.token_ids, np.ones(len(ex)))
        assert h_icd_off.tobytes() == h_ones.tobytes()

    def test_forward_reads_the_example_boost_only(self):
        # the dictionary is switched off by the no_icd variant, not by a boost override
        assert "boost" not in inspect.signature(M.qa_forward).parameters
        assert "boost" not in inspect.signature(qa_loss_and_grads).parameters

    def test_qa_forward_is_forward_only(self):
        # training calls encoder_forward for the caches; qa_forward only predicts
        assert list(inspect.signature(M.qa_forward).parameters) == ["model", "example"]

    def test_lora_zero_init_matches_adapter_free_model(self, small_model):
        ex = toy_example()
        baseline = EncoderModel(
            config=small_model.config,
            params={k: (np.zeros_like(v) if k.endswith(".lora_a") else v.copy())
                    for k, v in small_model.params.items()},
            seed=small_model.seed)
        h_init = encoder_forward(small_model, ex.token_ids, ex.boost)
        h_base = encoder_forward(baseline, ex.token_ids, ex.boost)
        assert np.max(np.abs(h_init - h_base)) < 1e-12

    def test_boost_length_mismatch(self, small_model):
        ex = toy_example()
        with pytest.raises(ValueError, match="boost vector length"):
            encoder_forward(small_model, ex.token_ids, np.ones(3))

    def test_finite_hidden_states(self, small_model):
        ex = toy_example()
        h = encoder_forward(small_model, ex.token_ids, ex.boost)
        assert np.isfinite(h).all()


# float32 rounding: a padded batch runs other matmul shapes than one example;
# the real rows differed from the single forward by at most 5.4e-7 in 200 trials
PADDED_ATOL = 1e-5


class TestPaddedBatch:
    @settings(max_examples=30, deadline=None)
    @given(lengths=st.lists(st.integers(1, 24), min_size=1, max_size=5),
           boost_mode=st.sampled_from(["residual_gate", "attention_score", "off"]),
           gate_mode=st.sampled_from(["shared", "off"]),
           seed=st.integers(0, 2**16))
    @example(lengths=[24, 1, 7], boost_mode="attention_score", gate_mode="shared", seed=0)
    def test_real_rows_match_the_single_forward(self, lengths, boost_mode, gate_mode, seed):
        # rows past the relative-distance clip (L > 2·3 + 1) included; padding
        # holds random ids and boosts, which must not reach a real row
        cfg = ModelConfig(layers=2, hidden=16, heads=2, vocab_size=64, lora_rank=2,
                          max_rel_distance=3, boost_mode=boost_mode, gate_mode=gate_mode)
        model = build_model(cfg, seed=1)
        rng = np.random.default_rng(seed)
        for name, p in model.params.items():
            if name.endswith(".lora_b") or name.startswith("gate."):
                p[...] = rng.standard_normal(p.shape) * 0.3
        shape = (len(lengths), max(lengths))
        ids = rng.integers(0, 64, shape)
        boost = np.where(rng.random(shape) < 0.4, rng.uniform(1.0, 3.0, shape), 1.0)
        hidden = encoder_forward(model, ids, boost, lengths=np.array(lengths))
        assert hidden.shape == (*shape, cfg.hidden)
        for row, n in enumerate(lengths):
            single = encoder_forward(model, ids[row, :n], boost[row, :n])
            np.testing.assert_allclose(hidden[row, :n], single, rtol=0, atol=PADDED_ATOL)

    def test_unpadded_batch_without_lengths(self, small_model):
        ex = toy_example()
        ids, boost = np.stack([ex.token_ids] * 2), np.stack([ex.boost] * 2)
        hidden = encoder_forward(small_model, ids, boost)
        single = encoder_forward(small_model, ex.token_ids, ex.boost)
        np.testing.assert_allclose(hidden, np.stack([single] * 2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ids_shape, boost_shape, lengths", [
        ((2, 5), (2, 4), None),           # boost row length differs
        ((2, 5), (3, 5), None),           # boost row count differs
        ((2, 5), (5,), None),             # one boost for a batch
        ((5,), (2, 5), None),             # a batch of boosts for one example
        ((1, 2, 5), (1, 2, 5), None),     # not (L,) or (B, L)
        ((2, 5), (2, 5), [5]),            # one length for two rows
        ((2, 5), (2, 5), [5, 0]),         # an empty row
        ((2, 5), (2, 5), [5, 6]),         # a row longer than the batch
        ((2, 5), (2, 5), [5.0, 3.0]),     # lengths that are not ints
        ((5,), (5,), [5]),                # lengths for one example
    ])
    def test_malformed_batch_raises_value_error(self, small_model, ids_shape, boost_shape,
                                                lengths):
        with pytest.raises(ValueError, match="boost vector length|lengths"):
            encoder_forward(small_model, np.zeros(ids_shape, dtype=int), np.ones(boost_shape),
                            lengths=None if lengths is None else np.array(lengths))

    def test_a_batch_keeps_no_caches(self, small_model):
        with pytest.raises(ValueError, match="one example"):
            encoder_forward(small_model, np.zeros((2, 5), dtype=int), np.ones((2, 5)),
                            return_caches=True)


class TestSpanLoss:
    def test_saturated_correct_prediction(self):
        start = np.full(20, -40.0)
        end = np.full(20, -40.0)
        start[5] = 40.0
        end[7] = 40.0
        assert span_loss(start, end, (5, 7)) < 1e-10

    def test_uniform_logits_entropy(self):
        logits = np.zeros(384)
        assert span_loss(logits, logits, (10, 12)) == pytest.approx(2 * math.log(384),
                                                                    abs=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        start = rng.standard_normal(33)
        end = rng.standard_normal(33)
        gold = (4, 9)

        def ce(logits, y):
            exp = [math.exp(v) for v in logits]
            return -math.log(exp[y] / sum(exp))

        expected = ce(start, gold[0]) + ce(end, gold[1])
        assert span_loss(start, end, gold) == pytest.approx(expected, abs=1e-10)

    def test_invalid_gold(self):
        with pytest.raises(ValueError, match="invalid gold span"):
            span_loss(np.zeros(5), np.zeros(5), (3, 1))

    @settings(max_examples=300, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), n=st.integers(1, 400),
           scale=st.sampled_from([1e-3, 1.0, 40.0]), seed=st.integers(0, 2**32 - 1),
           at=st.sampled_from(["first", "last", "any"]))
    def test_head_loss_is_bitwise_the_two_pass_softmax(self, dtype, n, scale, seed, at):
        # the two-pass reference: a log-softmax for the loss, a softmax for the gradient
        def log_softmax(z):
            z = z - z.max()
            return z - np.log(np.exp(z).sum())

        def softmax(s):
            z = s - s.max(axis=-1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=-1, keepdims=True)

        rng = np.random.default_rng(seed)
        start, end = (rng.standard_normal(n) * scale).astype(dtype), \
            (rng.standard_normal(n) * scale).astype(dtype)
        pick = {"first": lambda: 0, "last": lambda: n - 1, "any": lambda: int(rng.integers(n))}
        ys, ye = sorted((pick[at](), pick[at]()))
        loss_start, dstart = M._head_loss(start, ys)
        loss_end, dend = M._head_loss(end, ye)
        assert span_loss(start, end, (ys, ye)) == float(loss_start + loss_end) \
            == float(-log_softmax(start)[ys] - log_softmax(end)[ye])
        for logits, y, grad in ((start, ys, dstart), (end, ye, dend)):
            expected = softmax(logits[None, :])[0]
            expected[y] -= 1.0
            assert grad.dtype == dtype
            assert grad.tobytes() == expected.tobytes()


class TestPredictSpan:
    def test_single_context_token_forced(self):
        ex = toy_example(n_ctx=1)
        rng = np.random.default_rng(12)
        pred = predict_span(rng.standard_normal(len(ex)), rng.standard_normal(len(ex)),
                            ex, 30)
        ctx = int(np.flatnonzero(ex.segment_flags == SEG_CONTEXT)[0])
        assert (pred.start, pred.end) == (ctx, ctx)

    def test_constraint_start_before_end(self):
        ex = toy_example(n_ctx=4)
        ctx = np.flatnonzero(ex.segment_flags == SEG_CONTEXT)
        start = np.full(len(ex), -5.0)
        end = np.full(len(ex), -5.0)
        start[ctx[3]] = 10.0  # best start after best end
        end[ctx[0]] = 10.0
        pred = predict_span(start, end, ex, 30)
        assert pred.start <= pred.end

    def test_matches_exhaustive_enumeration(self):
        ex = toy_example(n_ctx=14, n_q=2)
        rng = np.random.default_rng(13)
        for _ in range(25):
            start = rng.standard_normal(len(ex))
            end = rng.standard_normal(len(ex))
            pred = predict_span(start, end, ex, max_answer_len=5)
            best = None
            in_ctx = set(np.flatnonzero(ex.segment_flags == SEG_CONTEXT).tolist())
            for s in range(len(ex)):
                for e in range(s, len(ex)):
                    if s not in in_ctx or e not in in_ctx or e - s >= 5:
                        continue
                    score = start[s] + end[e]
                    if best is None or score > best[0]:
                        best = (score, s, e)
            assert (pred.start, pred.end) == (best[1], best[2])
            assert pred.score == pytest.approx(best[0])

    def test_tie_breaks_to_smallest_indices(self):
        ex = toy_example(n_ctx=4)
        start = np.zeros(len(ex))
        end = np.zeros(len(ex))
        pred = predict_span(start, end, ex, 30)
        ctx0 = int(np.flatnonzero(ex.segment_flags == SEG_CONTEXT)[0])
        assert (pred.start, pred.end) == (ctx0, ctx0)

    def test_no_candidate_span(self):
        ex = toy_example(n_ctx=2)
        ex.segment_flags = np.where(ex.segment_flags == SEG_CONTEXT, SEG_QUESTION,
                                    ex.segment_flags).astype(np.int8)
        with pytest.raises(ValueError, match="no candidate span"):
            predict_span(np.zeros(len(ex)), np.zeros(len(ex)), ex, 30)


class TestFullModelGradients:
    def test_every_trainable_group_matches_finite_differences(self):
        cfg = ModelConfig(layers=2, hidden=8, heads=2, vocab_size=32, lora_rank=2,
                          max_rel_distance=3)
        model = build_model(cfg, seed=0, dtype=np.float64)
        ex = toy_example(n_ctx=5, n_q=2, vocab_size=32)
        _, grads = qa_loss_and_grads(model, ex)
        groups = {M.param_group(k) for k in grads}
        assert groups == {"lora", "gates", "heads", "embed_domain"}

        eps = 1e-6
        rng = np.random.default_rng(0)
        worst = 0.0
        for name, g in sorted(grads.items()):
            p = model.params[name]
            flat_g = np.atleast_1d(np.asarray(g)).reshape(-1)
            n_probe = min(6, flat_g.size)
            for i in rng.choice(flat_g.size, n_probe, replace=False):
                if p.ndim:
                    fp = p.reshape(-1)
                    orig = fp[i]
                    fp[i] = orig + eps
                    up, _ = qa_loss_and_grads(model, ex)
                    fp[i] = orig - eps
                    down, _ = qa_loss_and_grads(model, ex)
                    fp[i] = orig
                else:
                    orig = p.item()
                    model.params[name] = np.asarray(orig + eps)
                    up, _ = qa_loss_and_grads(model, ex)
                    model.params[name] = np.asarray(orig - eps)
                    down, _ = qa_loss_and_grads(model, ex)
                    model.params[name] = np.asarray(orig)
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(numeric - flat_g[i])
                            / max(abs(numeric), abs(flat_g[i]), 1.0))
        assert worst < 1e-6

    @pytest.mark.parametrize("boost_mode", ["residual_gate", "attention_score"])
    def test_lora_grads_past_the_clip_match_finite_differences(self, boost_mode):
        # L = 18 >= 3 * (2m + 1), nonzero LoRA B and attention tensors well above
        # the init scale, so the Q/K lora_a gradients that flow back through the
        # relative-position scatter are far from zero
        cfg = ModelConfig(layers=2, hidden=8, heads=2, vocab_size=32, lora_rank=2,
                          max_rel_distance=2, boost_mode=boost_mode)
        model = build_model(cfg, seed=1, dtype=np.float64)
        rng = np.random.default_rng(12)
        for name, p in model.params.items():
            if ".attn." in name:
                p[:] = rng.standard_normal(p.shape) * 0.5
        ex = toy_example(n_ctx=12, n_q=3, vocab_size=32, seed=2)
        assert len(ex) >= 3 * (2 * cfg.max_rel_distance + 1)
        _, grads = qa_loss_and_grads(model, ex)

        eps = 1e-6
        worst = 0.0
        for name, g in sorted(grads.items()):
            if M.param_group(name) != "lora":
                continue
            if ".q.lora_a" in name or ".k.lora_a" in name:
                assert np.abs(g).max() > 1e-2, name
            fp = model.params[name].reshape(-1)
            for i in rng.choice(fp.size, min(6, fp.size), replace=False):
                orig = fp[i]
                fp[i] = orig + eps
                up, _ = qa_loss_and_grads(model, ex)
                fp[i] = orig - eps
                down, _ = qa_loss_and_grads(model, ex)
                fp[i] = orig
                numeric = (up - down) / (2 * eps)
                analytic = g.reshape(-1)[i]
                worst = max(worst, abs(numeric - analytic)
                            / max(abs(numeric), abs(analytic), 1.0))
        assert worst < 1e-6

    @pytest.mark.parametrize("max_rel_distance, n_ctx", [(0, 13), (8, 3)])
    def test_lora_grads_at_the_scatter_edges_match_finite_differences(
            self, max_rel_distance, n_ctx):
        # m = 0 puts every score in one relative-position bin; L <= m puts every
        # score inside the band, so neither clipped bin is ever read.  Boosted
        # scores keep the row sums of the score gradient away from zero, so the
        # content-to-position term, constant along a row at m = 0, still feeds K.
        # Token embeddings and span heads well above the init scale keep the
        # Q/K lora_a gradients far from zero
        cfg = ModelConfig(layers=2, hidden=8, heads=2, vocab_size=32, lora_rank=2,
                          max_rel_distance=max_rel_distance, boost_mode="attention_score")
        model = build_model(cfg, seed=2, dtype=np.float64)
        rng = np.random.default_rng(14)
        for name, p in model.params.items():
            if ".attn." in name or name.startswith(("heads.", "embed.token_table")):
                p[...] = rng.standard_normal(p.shape) * 0.5
        ex = toy_example(n_ctx=n_ctx, n_q=2, vocab_size=32, seed=3)
        assert max_rel_distance == 0 or len(ex) <= max_rel_distance
        _, grads = qa_loss_and_grads(model, ex)

        eps = 1e-6
        worst = 0.0
        for name, g in sorted(grads.items()):
            if M.param_group(name) != "lora":
                continue
            if ".q.lora_a" in name or ".k.lora_a" in name:
                assert np.abs(g).max() > 1e-2, name
            fp = model.params[name].reshape(-1)
            for i in rng.choice(fp.size, min(6, fp.size), replace=False):
                orig = fp[i]
                fp[i] = orig + eps
                up, _ = qa_loss_and_grads(model, ex)
                fp[i] = orig - eps
                down, _ = qa_loss_and_grads(model, ex)
                fp[i] = orig
                numeric = (up - down) / (2 * eps)
                analytic = g.reshape(-1)[i]
                worst = max(worst, abs(numeric - analytic)
                            / max(abs(numeric), abs(analytic), 1.0))
        assert worst < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("boost_mode", ["residual_gate", "attention_score"])
    def test_every_gradient_has_its_parameter_dtype(self, dtype, boost_mode):
        cfg = ModelConfig(layers=2, hidden=8, heads=2, vocab_size=32, lora_rank=2,
                          max_rel_distance=2, boost_mode=boost_mode)
        model = build_model(cfg, seed=0, dtype=dtype)
        ex = toy_example(n_ctx=12, n_q=3, vocab_size=32)
        _, grads = qa_loss_and_grads(model, ex)
        assert {M.param_group(k) for k in grads} == set(M.ADAPTABLE_GROUPS)
        wrong = {k: np.asarray(g).dtype for k, g in grads.items()
                 if np.asarray(g).dtype != model.params[k].dtype}
        assert not wrong, wrong


def _cached_arrays(node, path="caches"):
    """(path, dtype, shape, bytes) of every array reachable from an encoder cache."""
    if isinstance(node, np.ndarray):
        return [(path, node.dtype, node.shape, node.tobytes())]
    if dataclasses.is_dataclass(node):
        node = vars(node)
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, (list, tuple)):
        items = enumerate(node)
    else:
        return []
    return [leaf for key, child in items for leaf in _cached_arrays(child, f"{path}.{key}")]


class TestEncoderBackward:
    @pytest.mark.parametrize("boost_mode", ["residual_gate", "attention_score"])
    def test_backward_leaves_the_caches_unchanged(self, boost_mode):
        cfg = ModelConfig(layers=2, hidden=16, heads=2, vocab_size=64, lora_rank=4,
                          max_rel_distance=2, boost_mode=boost_mode)
        model = build_model(cfg, seed=4)
        ex = toy_example(n_ctx=12, n_q=3)
        h, caches = encoder_forward(model, ex.token_ids, ex.boost, return_caches=True)
        before = _cached_arrays(caches)
        assert any(path.endswith(".prob") for path, *_ in before)
        dh = np.random.default_rng(15).standard_normal(h.shape).astype(h.dtype)
        first = M.encoder_backward(model, dh, caches)
        assert _cached_arrays(caches) == before
        second = M.encoder_backward(model, dh, caches)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name].tobytes() == second[name].tobytes(), name


class TestAttentionBackward:
    @settings(max_examples=40, deadline=None)
    @given(seq_len=st.integers(1, 24), max_dist=st.integers(0, 6), seed=st.integers(0, 2**16))
    @example(seq_len=1, max_dist=0, seed=0)
    @example(seq_len=1, max_dist=1, seed=0)
    @example(seq_len=3, max_dist=6, seed=0)
    @example(seq_len=24, max_dist=1, seed=0)
    def test_gradients_match_finite_differences(self, seq_len, max_dist, seed):
        # every relative-position bin, empty runs and clipped starts included,
        # feeds the input gradient and the Q/K LoRA gradients of one sub-layer.
        # LoRA scale 1 and attention tensors at 0.3 keep the softmax unsaturated
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, lora_rank=2,
                          lora_alpha=2.0, max_rel_distance=max_dist,
                          boost_mode="attention_score")
        params = build_model(cfg, seed=0, dtype=np.float64).params
        rng = np.random.default_rng(seed)
        for name, p in params.items():
            if ".attn." in name:
                p[...] = rng.standard_normal(p.shape) * 0.3
        h = rng.standard_normal((seq_len, cfg.hidden))
        boost = rng.uniform(1.0, 2.0, seq_len)
        dout = rng.standard_normal((seq_len, cfg.hidden))

        def loss():
            return float(np.sum(M._attention_fwd(h, params, 0, cfg, boost)[0] * dout))

        _, cache = M._attention_fwd(h, params, 0, cfg, boost)
        grads = {}
        analytic = {"h": M._attention_bwd(dout, cache, params, cfg, grads)}
        probed = {"h": h}
        for name in ("layer0.attn.q.lora_a", "layer0.attn.q.lora_b",
                     "layer0.attn.k.lora_a", "layer0.attn.k.lora_b"):
            analytic[name], probed[name] = grads[name], params[name]

        eps = 1e-6
        worst = 0.0
        for name, x in probed.items():
            flat, g = x.reshape(-1), analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss()
                flat[i] = orig - eps
                down = loss()
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(numeric - g[i]) / max(abs(numeric), abs(g[i]), 1.0))
        assert worst < 1e-6


class TestRelativePositionCaches:
    def test_memory_held_after_many_lengths_is_bounded(self):
        cfg = ModelConfig(layers=1, hidden=16, heads=2, vocab_size=64, lora_rank=2)
        model = build_model(cfg, seed=0)
        rng = np.random.default_rng(13)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seq_len in range(240, 358, 3):  # 40 distinct lengths
                ids = rng.integers(0, 64, size=seq_len)
                h, caches = encoder_forward(model, ids, np.ones(seq_len), return_caches=True)
                grads = M.encoder_backward(model, rng.standard_normal(h.shape), caches)
                del h, caches, grads
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 32 * 2**20, f"{held / 2**20:.1f} MiB still held"


class TestFrozenBase:
    def test_base_tensors_bitwise_unchanged_by_training(self):
        from conceptqa import training
        cfg = ModelConfig(layers=1, hidden=16, heads=2, vocab_size=64, lora_rank=2)
        model = build_model(cfg, seed=1)
        frozen_before = {k: v.copy() for k, v in model.params.items()
                         if M.param_group(k) == "frozen"}
        ex = toy_example(vocab_size=64)
        tcfg = training.TrainConfig(learning_rate=1e-2, warmup_steps=2, seed=0)
        state = training.init_optimizer_state({})
        for step in range(5):
            _, grads = qa_loss_and_grads(model, ex)
            training.optimizer_step(model.params, grads, state, tcfg, lr=1e-2)
        for k, v in frozen_before.items():
            assert model.params[k].tobytes() == v.tobytes(), k
        assert not np.array_equal(model.params["heads.start.weight"],
                                  np.zeros_like(model.params["heads.start.weight"]))


class TestParameterAccounting:
    def test_paper_scale_gate_budget(self):
        cfg = ModelConfig(layers=12, hidden=768, heads=12, vocab_size=30000,
                          gate_mode="shared")
        counts = count_parameters(cfg)
        assert counts["by_group"]["gates"] == 590_592
        assert counts["by_group"]["gates"] < 1_200_000

    @pytest.mark.parametrize("layers", [1, 4])
    def test_gate_budget_is_the_same_at_every_depth(self, layers):
        d = 32
        counts = count_parameters(ModelConfig(layers=layers, hidden=d, heads=4))
        assert counts["by_group"]["gates"] == d * d + d

    def test_counts_match_materialized_params(self, small_model):
        counts = count_parameters(small_model.config)
        total = sum(v.size for v in small_model.params.values())
        assert counts["trainable"] + counts["frozen"] == total

    def test_shapes_cover_every_param(self, small_model):
        assert set(parameter_shapes(small_model.config)) == set(small_model.params)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, lora_rank=2)
        model = build_model(cfg, seed=5, dictionary_version="builtin-12term-1")
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert models_equal(model, loaded)
        assert loaded.seed == 5 and loaded.dictionary_version == "builtin-12term-1"

        path2 = tmp_path / "model2.bin"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, lora_rank=2)
        path = tmp_path / "model.bin"
        save_checkpoint(build_model(cfg, seed=5), path)
        path.write_bytes(path.read_bytes() + bytes(1000))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the body has "
                                             "19504 bytes, the config's tensors take 18504$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("heads.start.weight", np.nan),
                                             ("layer0.ffn.w1", np.inf),
                                             ("embed.token_table", -np.inf),
                                             ("gate.b", np.nan)])
    def test_rejects_a_non_finite_tensor(self, tmp_path, name, value):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, lora_rank=2)
        model = build_model(cfg, seed=5)
        model.params[name].flat[-1] = value
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tensor '{name}' "
                                             "holds a non-finite value$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_setting_in_the_header(self, tmp_path, value):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, lora_rank=2)
        path = tmp_path / "model.bin"
        save_checkpoint(build_model(cfg, seed=5), path)
        raw = path.read_bytes()
        hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
        header = json.loads(raw[16:16 + hlen])
        header["config"]["lora_alpha"] = value
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + raw[16 + hlen:])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: config "
                                             "'lora_alpha' must be finite, got "):
            load_checkpoint(path)

    def test_header_holds_the_config_seed_and_dictionary_version_only(self, tmp_path):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, lora_rank=2)
        path = tmp_path / "model.bin"
        save_checkpoint(build_model(cfg, seed=5, dictionary_version="v"), path)
        raw = path.read_bytes()
        assert raw[4:8] == np.uint32(2).tobytes() and M.CHECKPOINT_FORMAT == 2
        hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
        assert json.loads(raw[16:16 + hlen]) == {
            "config": dataclasses.asdict(cfg), "seed": 5, "dictionary_version": "v"}
        body = np.frombuffer(raw[16 + hlen:], dtype="<f4")
        model = build_model(cfg, seed=5)
        expected = [model.params[name].ravel() for name in sorted(parameter_shapes(cfg))]
        assert body.tobytes() == np.concatenate(expected).astype("<f4").tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_and_any_resized_body_rejected(self, data):
        heads = data.draw(st.integers(1, 3), label="heads")
        cfg = ModelConfig(
            layers=data.draw(st.integers(1, 3), label="layers"),
            hidden=heads * data.draw(st.integers(1, 3), label="head_dim"),
            heads=heads,
            max_len=data.draw(st.integers(1, 12), label="max_len"),
            vocab_size=data.draw(st.integers(1, 12), label="vocab_size"),
            lora_rank=data.draw(st.integers(1, 3), label="lora_rank"),
            max_rel_distance=data.draw(st.integers(0, 3), label="max_rel_distance"),
            gate_mode=data.draw(st.sampled_from(["shared", "off"]),
                                label="gate_mode"),
            boost_mode=data.draw(st.sampled_from(["residual_gate", "attention_score", "off"]),
                                 label="boost_mode"),
            ffn_multiplier=data.draw(st.integers(1, 2), label="ffn_multiplier"),
        )
        model = build_model(cfg, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                            dictionary_version=data.draw(st.text(max_size=5), label="dv"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.bin"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            assert models_equal(model, loaded)
            assert (loaded.seed, loaded.dictionary_version) == \
                (model.seed, model.dictionary_version)
            raw = path.read_bytes()
            hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
            body = len(raw) - 16 - hlen
            assert body == 4 * sum(p.size for p in model.params.values())
            cut = data.draw(st.integers(-body, 64).filter(bool), label="bytes cut or added")
            path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(range(cut)))
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_checkpoint(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_header_loads_consistently_or_raises_value_error(self, mutate_json, data):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, lora_rank=2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.bin"
            save_checkpoint(build_model(cfg, seed=5), path)
            raw = path.read_bytes()
            hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
            header = json.loads(raw[16:16 + hlen])
            for _ in range(data.draw(st.integers(1, 3))):
                header = mutate_json(data, header)
            blob = json.dumps(header).encode("utf-8")
            path.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + raw[16 + hlen:])
            try:
                model = load_checkpoint(path)
            except ValueError as exc:
                assert str(path) in str(exc)
            else:
                shapes = parameter_shapes(model.config)
                assert {name: p.shape for name, p in model.params.items()} == shapes

    def test_config_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(hidden=30, heads=4)
        with pytest.raises(ValueError, match="gate_mode"):
            ModelConfig(gate_mode="bogus")
        for field, value in (("heads", 0), ("layers", 0), ("hidden", 0), ("lora_rank", 0),
                             ("max_rel_distance", -1), ("max_len", 0), ("vocab_size", 0),
                             ("ffn_multiplier", 0), ("max_answer_len", 0)):
            with pytest.raises(ValueError, match=f"^{field} must be >= "):
                ModelConfig(**{field: value})
        for value in (0.0, -16.0, math.nan):
            with pytest.raises(ValueError, match="^lora_alpha must be > 0, got "):
                ModelConfig(lora_alpha=value)

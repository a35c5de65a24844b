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
    parameter_shapes,
    predict_span,
    qa_loss_and_grads,
    save_checkpoint,
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


def attention_fwd(h, params, layer, cfg, score_boost=None):
    """``_attention_fwd`` on one example h (L, d) as a batch of one, with the
    relative-position runs ``encoder_forward`` passes: the (L, d) output and
    the batch's cache."""
    runs = M._rel_runs(h.shape[-2], cfg.max_rel_distance)
    out, cache = M._attention_fwd(h[None], params, layer, cfg, runs,
                                  None if score_boost is None else score_boost[None])
    return out[0], cache


class TestDisentangledAttention:
    def test_rows_sum_to_one(self, small_model):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((7, 16))
        _, (_, _, _, _, _, e, r_inv, *_) = attention_fwd(h, small_model.params, 0,
                                                         small_model.config)
        prob = e * r_inv[..., None]
        np.testing.assert_allclose(prob.sum(axis=-1), 1.0, atol=1e-9)

    def test_zeroed_tables_reduce_to_content_content(self):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=16, max_rel_distance=2)
        model = build_model(cfg, seed=3, dtype=np.float64)
        model.params["layer0.attn.rel_table"][:] = 0.0
        rng = np.random.default_rng(5)
        h = rng.standard_normal((5, 8))
        _, (*_, e, r_inv, _, _, _, _) = attention_fwd(h, model.params, 0, cfg)
        prob = e * r_inv[..., None]
        # LoRA B starts at zero, so q and k are the frozen projections plus bias
        qh, kh = (M._split_heads(h @ model.params[f"layer0.attn.{p}.weight"]
                                 + model.params[f"layer0.attn.{p}.bias"], cfg.heads)
                  for p in "qk")
        expect = np.exp((qh @ kh.transpose(0, 2, 1)) / math.sqrt(3 * cfg.head_dim))
        expect = expect / expect.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(prob[0], expect, atol=1e-12)

    def test_matches_loop_oracle_one_head(self):
        cfg = ModelConfig(layers=1, hidden=4, heads=1, vocab_size=16, lora_rank=2,
                          max_rel_distance=2)
        model = build_model(cfg, seed=6, dtype=np.float64)
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 4))
        out, _ = attention_fwd(h, model.params, 0, cfg)
        np.testing.assert_allclose(out, loop_attention(h, model.params, 0, cfg), atol=1e-12)

    def test_matches_loop_oracle_multi_head(self, small_model):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((6, 16))
        out, _ = attention_fwd(h, small_model.params, 1, small_model.config)
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
        out, _ = attention_fwd(h, model.params, 0, cfg)
        np.testing.assert_allclose(out, loop_attention(h, model.params, 0, cfg), atol=1e-12)

    def test_sublayer_applies_residual_norm(self):
        cfg = ModelConfig(layers=1, hidden=16, heads=2, vocab_size=64, lora_rank=4,
                          max_rel_distance=4, gate_mode="off")
        model = build_model(cfg, seed=0, dtype=np.float64)
        ex = toy_example()
        h = embed(model, ex.token_ids, ex.boost > 1.0)
        attn, _ = attention_fwd(h, model.params, 0, cfg)
        manual, _ = M._layernorm_fwd(h + attn, model.params["layer0.ln1.gamma"],
                                     model.params["layer0.ln1.beta"])
        _, (*_, layers) = encoder_forward(model, ex.token_ids, ex.boost, return_caches=True)
        # the first sub-layer, rebuilt from layer 0's LayerNorm cache
        xhat, _, gamma = layers[0][1]
        np.testing.assert_array_equal(gamma * xhat + model.params["layer0.ln1.beta"], manual)


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


def gelu_reference(u) -> np.ndarray:
    """float64 GELU u Φ(u) from ``math.erf``, one value at a time."""
    return np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                     for v in np.asarray(u, dtype=np.float64).tolist()])


# float32 hidden states against the float64 forward of the same parameters, with
# ffn.w1 and gate.w scaled 10x so the FFN inputs spread over N(0, 1.9²): at most
# 8.2e-7 over L = 5, 57, 258 and 383 (8.0e-7 with scipy's float32 erf)
HIDDEN_F32_ATOL = 3e-6


class TestGelu:
    GRID = np.concatenate([np.linspace(-10.0, 10.0, 200_001), [1e4, -1e4, np.inf, -np.inf]])

    @pytest.mark.parametrize("dtype, rel", [(np.float32, 2e-6), (np.float64, 1e-15)])
    def test_matches_the_math_erf_gelu(self, dtype, rel):
        u = self.GRID.astype(dtype)
        with np.errstate(invalid="ignore"):  # GELU(-inf) = -inf * 0 is NaN, as in the reference
            out, (_, phi) = M._gelu_fwd(u)
        assert out.dtype == phi.dtype == dtype
        expected = gelu_reference(u)
        np.testing.assert_array_equal(expected[-2:], [np.inf, np.nan])
        np.testing.assert_array_equal(out[-2:], expected[-2:])
        scale = np.maximum(1.0, np.abs(u[:-2].astype(np.float64)))
        assert np.max(np.abs(out[:-2] - expected[:-2]) / scale) <= rel

    def test_float64_erf_is_math_erf(self):
        # bit for bit, ±0 and nan included; 0.46875 is the region edge of Cody's
        # float64 rationals, and erf rounds to ±1 from about ±6
        x = np.concatenate([np.linspace(-30.0, 30.0, 60_001),
                            [0.0, -0.0, 0.46875, -0.46875, 6.0, -6.0, np.inf, -np.inf, np.nan]])
        out = M._erf(x)
        assert out.dtype == np.float64 and out.shape == x.shape
        expected = np.array([math.erf(v) for v in x.tolist()])
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))

    def test_float32_hidden_states_match_the_float64_forward(self):
        cfg = ModelConfig()
        m64 = build_model(cfg, seed=0, dtype=np.float64)
        for name in ("layer0.ffn.w1", "layer1.ffn.w1", "gate.w"):
            m64.params[name] *= 10.0
        m32 = EncoderModel(config=cfg, seed=0, params={
            k: v.astype(np.float32) for k, v in m64.params.items()})
        rng = np.random.default_rng(5)
        for length in (5, 57, 258, 383):
            ids = rng.integers(4, cfg.vocab_size, size=length)
            boost = np.where(rng.random(length) < 0.1, 2.41, 1.0)
            h32 = encoder_forward(m32, ids, boost.astype(np.float32))
            h64 = encoder_forward(m64, ids, boost)
            assert h32.dtype == np.float32
            assert np.max(np.abs(h32 - h64)) <= HIDDEN_F32_ATOL, length


# float32 rounding of the gradients, per tensor and relative to the tensor's
# largest float64 entry: 4.8e-6 at most over the six cases below on the commit
# before the softmax was normalized on the context (4.4e-6 after)
GRAD_F32_RTOL = 1.5e-5


class TestFloat32Gradients:
    @pytest.mark.parametrize("boost_mode", ["residual_gate", "attention_score"])
    def test_float32_gradients_match_the_float64_ones(self, boost_mode):
        cfg = ModelConfig(boost_mode=boost_mode)
        m32 = build_model(cfg, seed=0)
        rng = np.random.default_rng(9)
        for name, p in m32.params.items():  # nonzero LoRA B, gate and heads
            if name.endswith(".lora_b") or name.startswith(("gate.", "heads.")):
                p[...] = rng.standard_normal(p.shape) * 0.1
        m64 = EncoderModel(config=cfg, seed=0, params={
            k: v.astype(np.float64) for k, v in m32.params.items()})
        for length in (57, 258, 383):
            ex = toy_example(n_ctx=length - 11, n_q=8, vocab_size=cfg.vocab_size, seed=length,
                             gold=(13, 17))
            ex.boost[rng.random(length) < 0.1] = 2.41
            loss32, g32 = qa_loss_and_grads(m32, ex)
            loss64, g64 = qa_loss_and_grads(m64, ex)
            assert g32.keys() == g64.keys()
            assert abs(loss32 - loss64) <= 1e-5 * abs(loss64), length
            for name in g64:
                assert g32[name].dtype == np.float32, name
                gap = np.max(np.abs(g32[name] - g64[name])) / np.max(np.abs(g64[name]))
                assert gap <= GRAD_F32_RTOL, (length, name, gap)


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

    @pytest.mark.parametrize("boost_mode", ["residual_gate", "attention_score", "off"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
    def test_a_boost_that_is_not_finite_and_at_least_one_is_refused(self, boost_mode, bad):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=16, lora_rank=2,
                          max_rel_distance=2, boost_mode=boost_mode)
        model = build_model(cfg, seed=0)
        boost = np.array([1.0, 2.0, bad, 1.0])
        with pytest.raises(ValueError, match="boost values must be finite and >= 1.0"):
            encoder_forward(model, np.arange(4, 8), boost)
        with pytest.raises(ValueError, match="boost values must be finite and >= 1.0"):
            encoder_forward(model, np.arange(4, 12).reshape(2, 4), np.stack([np.ones(4), boost]),
                            lengths=np.array([4, 4]))


def padded_batch(cfg, lengths, seed, dtype=np.float32):
    """A model with nonzero LoRA B and gate tensors, and a padded batch for it:
    ids and boosts (B, L) with random padding, and an upstream gradient dh
    (B, L, d) that is zero on the padding."""
    model = build_model(cfg, seed=1, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, p in model.params.items():
        if name.endswith(".lora_b") or name.startswith("gate."):
            p[...] = rng.standard_normal(p.shape) * 0.3
    shape = (len(lengths), max(lengths))
    ids = rng.integers(0, cfg.vocab_size, shape)
    boost = np.where(rng.random(shape) < 0.4, rng.uniform(1.0, 3.0, shape), 1.0)
    real = np.arange(shape[1]) < np.asarray(lengths)[:, None]
    dh = rng.standard_normal((*shape, cfg.hidden)) * real[..., None]
    return model, ids, boost, dh.astype(dtype)


def batch_grads(model, ids, boost, dh, lengths):
    _, caches = encoder_forward(model, ids, boost, return_caches=True,
                                lengths=np.asarray(lengths))
    return M.encoder_backward(model, dh, caches)


class TestPaddedBatchGradients:
    LENGTHS = [12, 5, 9, 1]  # 12 is past the relative-distance clip, 2·3 + 1

    @pytest.mark.parametrize("boost_mode, gate_mode", [
        ("residual_gate", "shared"), ("attention_score", "shared"), ("residual_gate", "off")])
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_a_batch_gradient_is_the_sum_of_its_rows(self, boost_mode, gate_mode, dtype, rtol):
        cfg = ModelConfig(layers=2, hidden=16, heads=2, vocab_size=64, lora_rank=2,
                          max_rel_distance=3, boost_mode=boost_mode, gate_mode=gate_mode)
        model, ids, boost, dh = padded_batch(cfg, self.LENGTHS, seed=21, dtype=dtype)
        grads = batch_grads(model, ids, boost, dh, self.LENGTHS)
        total = {}
        for row, n in enumerate(self.LENGTHS):
            _, caches = encoder_forward(model, ids[row, :n], boost[row, :n], return_caches=True)
            for name, g in M.encoder_backward(model, dh[row, :n], caches).items():
                total[name] = total.get(name, 0) + g
        assert grads.keys() == total.keys()
        assert ("gate.w" in grads) == (gate_mode == "shared")
        for name, g in grads.items():
            assert g.dtype == dtype, name
            gap = np.max(np.abs(g - total[name])) / np.max(np.abs(total[name]))
            assert gap <= rtol, (name, gap)

    @pytest.mark.parametrize("boost_mode", ["residual_gate", "attention_score"])
    def test_padding_reaches_no_gradient(self, boost_mode):
        cfg = ModelConfig(layers=2, hidden=16, heads=2, vocab_size=64, lora_rank=2,
                          max_rel_distance=3, boost_mode=boost_mode)
        model, ids, boost, dh = padded_batch(cfg, self.LENGTHS, seed=22)
        grads = batch_grads(model, ids, boost, dh, self.LENGTHS)
        rng = np.random.default_rng(23)
        pad = np.arange(ids.shape[1]) >= np.asarray(self.LENGTHS)[:, None]
        ids[pad] = rng.integers(0, cfg.vocab_size, pad.sum())
        boost[pad] = rng.uniform(1.0, 3.0, pad.sum())
        for name, g in batch_grads(model, ids, boost, dh, self.LENGTHS).items():
            np.testing.assert_array_equal(g, grads[name], err_msg=name)

    @pytest.mark.parametrize("boost_mode", ["residual_gate", "attention_score"])
    def test_gradients_match_finite_differences(self, boost_mode):
        # loss = sum(hidden * dh) over the real positions; row 0 is past the
        # clip, L = 11 > 2·2 + 1
        lengths = [11, 4, 7]
        cfg = ModelConfig(layers=2, hidden=8, heads=2, vocab_size=32, lora_rank=2,
                          max_rel_distance=2, boost_mode=boost_mode)
        model, ids, boost, dh = padded_batch(cfg, lengths, seed=24, dtype=np.float64)
        rng = np.random.default_rng(25)
        for name, p in model.params.items():  # far from zero Q/K LoRA gradients
            if ".attn." in name and not name.endswith(".lora_b"):
                p[...] += rng.standard_normal(p.shape) * 0.5
        grads = batch_grads(model, ids, boost, dh, lengths)
        assert {M.param_group(name) for name in grads} == {"lora", "gates", "embed_domain"}

        def loss():
            hidden = encoder_forward(model, ids, boost, lengths=np.asarray(lengths))
            return float(np.sum(hidden * dh))

        eps = 1e-6
        worst = 0.0
        for name, g in sorted(grads.items()):
            flat, analytic = model.params[name].reshape(-1), g.reshape(-1)
            for i in rng.choice(flat.size, min(6, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss()
                flat[i] = orig - eps
                down = loss()
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(numeric - analytic[i])
                            / max(abs(numeric), abs(analytic[i]), 1.0))
        assert worst < 1e-6

    @pytest.mark.parametrize("boost_mode", ["residual_gate", "attention_score"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_example_is_bitwise_a_batch_of_one(self, boost_mode, dtype):
        # checkpoints stay the same bytes only if an example's gradients do
        cfg = ModelConfig(layers=2, hidden=16, heads=2, vocab_size=64, lora_rank=2,
                          max_rel_distance=3, boost_mode=boost_mode)
        model, ids, boost, dh = padded_batch(cfg, [13], seed=26, dtype=dtype)
        h1, c1 = encoder_forward(model, ids[0], boost[0], return_caches=True)
        h2, c2 = encoder_forward(model, ids, boost, return_caches=True, lengths=np.array([13]))
        assert h1.shape == (13, cfg.hidden) and h2.shape == (1, 13, cfg.hidden)
        assert h1.tobytes() == h2.tobytes()
        g1 = M.encoder_backward(model, dh[0], c1)
        g2 = M.encoder_backward(model, dh, c2)
        assert g1.keys() == g2.keys()
        for name in g1:
            assert g1[name].tobytes() == g2[name].tobytes(), name


class TestSpanLoss:
    def test_saturated_correct_prediction(self):
        start = np.full(20, -40.0)
        end = np.full(20, -40.0)
        start[5] = 40.0
        end[7] = 40.0
        assert M._span_loss_and_grads(start, end, (5, 7))[0] < 1e-10

    def test_uniform_logits_entropy(self):
        logits = np.zeros(384)
        assert M._span_loss_and_grads(logits, logits, (10, 12))[0] == \
            pytest.approx(2 * math.log(384), abs=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        start = rng.standard_normal(33)
        end = rng.standard_normal(33)
        gold = (4, 9)

        def ce(logits, y):
            exp = [math.exp(v) for v in logits]
            return -math.log(exp[y] / sum(exp))

        expected = ce(start, gold[0]) + ce(end, gold[1])
        assert M._span_loss_and_grads(start, end, gold)[0] == pytest.approx(expected, abs=1e-10)

    def test_invalid_gold(self):
        with pytest.raises(ValueError, match="invalid gold span"):
            M._span_loss_and_grads(np.zeros(5), np.zeros(5), (3, 1))

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
        assert M._span_loss_and_grads(start, end, (ys, ye))[0] == float(loss_start + loss_end) \
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

    @settings(max_examples=300, deadline=None)
    @given(flags=st.lists(st.sampled_from([SEG_SPECIAL, SEG_QUESTION, SEG_CONTEXT]),
                          min_size=1, max_size=40),
           max_answer_len=st.integers(1, 12), dtype=st.sampled_from([np.float32, np.float64]),
           data=st.data())
    def test_matches_the_double_loop(self, flags, max_answer_len, dtype, data):
        # logits from a few values, so that scores tie; context masks with gaps;
        # lengths both below and above max_answer_len
        n = len(flags)
        logits = st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0]) | st.floats(-3, 3),
                          min_size=n, max_size=n)
        start, end = (np.asarray(data.draw(logits), dtype=dtype) for _ in range(2))
        ex = toy_example()
        ex.segment_flags = np.asarray(flags, dtype=np.int8)
        ex.token_ids = ex.token_ids[:1].repeat(n)
        best = None
        for s in range(n):
            for e in range(s, min(n, s + max_answer_len)):
                if flags[s] == flags[e] == SEG_CONTEXT and (best is None
                                                            or start[s] + end[e] > best[0]):
                    best = (start[s] + end[e], s, e)  # strict >: the first pair keeps a tie
        if best is None:
            with pytest.raises(ValueError, match="no candidate span"):
                predict_span(start, end, ex, max_answer_len)
            return
        pred = predict_span(start, end, ex, max_answer_len)
        assert (pred.start, pred.end, pred.score) == (best[1], best[2], float(best[0]))


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
        assert any(shape == (1, cfg.heads, len(ex), len(ex)) for _, _, shape, _ in before)
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
            return float(np.sum(attention_fwd(h, params, 0, cfg, boost)[0] * dout))

        _, cache = attention_fwd(h, params, 0, cfg, boost)
        run_starts = M._run_starts(M._rel_runs(seq_len, max_dist))
        dh, ((daq, dbq), (dak, dbk), _, _) = M._attention_bwd(dout, cache, params, 0, cfg,
                                                               run_starts, boost[None])
        analytic = {"h": dh}
        probed = {"h": h}
        for name, grad in (("layer0.attn.q.lora_a", daq), ("layer0.attn.q.lora_b", dbq),
                           ("layer0.attn.k.lora_a", dak), ("layer0.attn.k.lora_b", dbk)):
            analytic[name], probed[name] = grad, params[name]

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

    def test_runs_are_made_once_per_forward(self, small_model, monkeypatch):
        made = []
        rel_runs = M._rel_runs
        monkeypatch.setattr(M, "_rel_runs", lambda *args: made.append(args) or rel_runs(*args))
        ex = toy_example()
        encoder_forward(small_model, ex.token_ids, ex.boost, return_caches=True)
        encoder_forward(small_model, np.stack([ex.token_ids] * 3), np.stack([ex.boost] * 3))
        assert small_model.config.layers == 2
        assert made == [(len(ex), small_model.config.max_rel_distance)] * 2


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


class TestParamTable:
    CFG = ModelConfig(layers=2, hidden=8, heads=2, vocab_size=32, lora_rank=2)

    def test_adapted_tensors_are_views_group_by_group(self):
        params = build_model(self.CFG, seed=0).params
        layout = params.layout
        groups = [M.param_group(name) for name in layout.names]
        assert groups == sorted(groups, key=M.ADAPTABLE_GROUPS.index)
        assert set(layout.names) == {k for k in params if M.param_group(k) != "frozen"}
        assert params.flat.size == M.count_parameters(self.CFG)["trainable"]
        for name, a, b in zip(layout.names, layout.bounds[:-1], layout.bounds[1:]):
            assert params[name].base is params.flat, name
            assert params[name].tobytes() == params.flat[a:b].tobytes(), name
        assert not any(np.shares_memory(params[k], params.flat)
                       for k in params if k not in layout.names)

    def test_a_selection_packs_its_groups_in_stretches(self):
        # lora and heads fill two stretches; adjacent groups share one
        layout = build_model(self.CFG, seed=0).params.layout
        ends = {g: max(int(layout.bounds[i + 1]) for i, name in enumerate(layout.names)
                       if M.param_group(name) == g) for g in M.ADAPTABLE_GROUPS}
        lora, gates, heads = ends["lora"], ends["gates"], ends["heads"]
        assert layout.select(("heads", "lora")) == (slice(0, lora), slice(gates, heads))
        assert layout.select(M.ADAPTABLE_GROUPS) == (slice(0, ends["embed_domain"]),)
        with pytest.raises(ValueError, match="unknown trainable group 'frozen'"):
            layout.select(("lora", "frozen"))

    def test_a_table_copies_its_inputs(self):
        values = dict(build_model(self.CFG, seed=0).params)
        values = {k: v.copy() for k, v in values.items()}
        table = M.ParamTable(values)
        assert all(table[k] is v for k, v in values.items() if M.param_group(k) == "frozen")
        assert not any(np.shares_memory(table.flat, values[k]) for k in table.layout.names)
        assert all(table[k].tobytes() == values[k].tobytes() for k in values)

    def test_copies_and_pickles_lay_out_their_own_array(self):
        import copy
        import pickle
        table = build_model(self.CFG, seed=0).params
        for other in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert isinstance(other, M.ParamTable) and other.detached() is None
            assert not np.shares_memory(other.flat, table.flat)
            assert other.flat.tobytes() == table.flat.tobytes()

    def test_mixed_dtypes_are_refused(self):
        values = {"heads.start.weight": np.ones(2, np.float32),
                  "heads.end.weight": np.ones(2, np.float64)}
        with pytest.raises(ValueError, match="share one dtype, got float32 and float64"):
            M.ParamTable(values)

    def test_a_rebound_entry_is_detached_and_the_step_refuses_it(self):
        # a model keeps a table with a rebound entry as it is; the first step stops
        from conceptqa import training
        table = build_model(self.CFG, seed=0).params
        assert table.detached() is None
        table["gate.b"] = np.full(8, 3.0, np.float32)
        assert table.detached() == "gate.b"
        model = EncoderModel(config=self.CFG, params=table)
        assert model.params is table and table.detached() == "gate.b"
        with pytest.raises(ValueError, match=r"params\['gate\.b'\] was rebound"):
            training.optimizer_step(table, np.zeros_like(table.flat),
                                    training.init_optimizer_state({}),
                                    training.TrainConfig(), lr=1e-3)

    def test_a_model_copies_a_dict_into_a_table_and_keeps_a_table(self):
        built = build_model(self.CFG, seed=0)
        values = {k: v.copy() for k, v in built.params.items()}
        hand = EncoderModel(config=self.CFG, params=values)
        assert isinstance(hand.params, M.ParamTable) and hand.params.detached() is None
        assert hand.params.flat.tobytes() == built.params.flat.tobytes()
        assert not any(np.shares_memory(hand.params.flat, values[k])
                       for k in hand.params.layout.names)
        assert EncoderModel(config=self.CFG, params=built.params).params is built.params


class TestGradientsInto:
    CFG = ModelConfig(layers=2, hidden=8, heads=2, vocab_size=32, lora_rank=2)

    def test_gradients_are_added_into_the_given_array(self):
        # acc ends bitwise equal to its old value plus a fresh call's gradients,
        # and the returned dict is acc's views, one per adapted tensor
        model = build_model(self.CFG, seed=0)
        ex = toy_example(vocab_size=32)
        old = np.random.default_rng(3).standard_normal(model.params.flat.size)
        acc = old.astype(np.float32)
        loss, grads = qa_loss_and_grads(model, ex, into=acc)
        fresh_loss, fresh = qa_loss_and_grads(model, ex)
        assert loss == fresh_loss
        assert list(grads) == list(fresh) == list(model.params.layout.names)
        expected = old.astype(np.float32) + np.concatenate(list(fresh.values()), axis=None)
        assert acc.tobytes() == expected.tobytes()
        for name, view in grads.items():
            assert np.shares_memory(view, acc) and view.shape == model.params[name].shape, name

    @pytest.mark.parametrize("make", [lambda flat: np.zeros(flat.size + 1, flat.dtype),
                                      lambda flat: np.zeros_like(flat, np.float64),
                                      lambda flat: flat.tolist()],
                             ids=["size", "dtype", "list"])
    def test_an_array_unlike_params_flat_is_refused(self, make):
        model = build_model(self.CFG, seed=0)
        with pytest.raises(ValueError, match=r"^into must be a float32 array of shape \(\d+,\)"):
            qa_loss_and_grads(model, toy_example(vocab_size=32), into=make(model.params.flat))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, models_equal):
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

    def test_a_loaded_model_has_a_built_ones_layout(self, tmp_path):
        cfg = ModelConfig(layers=2, hidden=8, heads=2, vocab_size=32, lora_rank=2)
        model = build_model(cfg, seed=5)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path).params
        assert isinstance(loaded, M.ParamTable) and loaded.detached() is None
        assert list(loaded) == list(model.params)
        assert loaded.layout.names == model.params.layout.names
        assert loaded.flat.tobytes() == model.params.flat.tobytes()

    def test_names_the_first_of_two_non_finite_tensors(self, tmp_path):
        cfg = ModelConfig(layers=1, hidden=8, heads=2, vocab_size=32, lora_rank=2)
        model = build_model(cfg, seed=5)
        model.params["layer0.ffn.w1"][3, 4] = np.inf
        model.params["gate.w"][0, 0] = np.nan
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match=r"tensor 'gate\.w' holds a non-finite value$"):
            load_checkpoint(path)

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
                                             "19496 bytes, the config's tensors take 18496$"):
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
        assert raw[4:8] == np.uint32(3).tobytes() and M.CHECKPOINT_FORMAT == 3
        hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
        assert json.loads(raw[16:16 + hlen]) == {
            "config": dataclasses.asdict(cfg), "seed": 5, "dictionary_version": "v"}
        body = np.frombuffer(raw[16 + hlen:], dtype="<f4")
        model = build_model(cfg, seed=5)
        expected = [model.params[name].ravel() for name in sorted(parameter_shapes(cfg))]
        assert body.tobytes() == np.concatenate(expected).astype("<f4").tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_and_any_resized_body_rejected(self, models_equal, data):
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

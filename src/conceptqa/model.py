"""Miniature disentangled-attention encoder with LoRA adapters and span heads.

The backbone mirrors a pretrained-transformer fine-tuning setup structurally:
all base tensors (embeddings, attention projections, FFN, LayerNorm) are
frozen at their random initialization, and adaptation happens only through
low-rank adapters on the Q/K/V/O projections, the concept gate, the span
heads and the domain-embedding term.  Every forward op has a matching
hand-written backward so gradients are exact and checkable against finite
differences.

Attention scores decompose additively into content-content, content-position
and position-position interactions over a clipped relative-position table,
scaled by 1/sqrt(3 * head_dim).  A concept-gated residual block sits between
each attention sub-layer and its FFN.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf

from . import gating
from .gating import GateParams
from .tokenizer import TokenizedExample

LN_EPS = 1e-5
INIT_SCALE = 0.02

GATE_SHARED, GATE_PER_LAYER, GATE_OFF = "shared", "per_layer", "off"
BOOST_RESIDUAL, BOOST_ATTENTION, BOOST_OFF = "residual_gate", "attention_score", "off"

GROUP_LORA = "lora"
GROUP_GATES = "gates"
GROUP_HEADS = "heads"
GROUP_EMBED_DOMAIN = "embed_domain"
GROUP_FROZEN = "frozen"
ADAPTABLE_GROUPS = (GROUP_LORA, GROUP_GATES, GROUP_HEADS, GROUP_EMBED_DOMAIN)

CHECKPOINT_MAGIC = b"CQAM"
CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 2
    hidden: int = 32
    heads: int = 4
    max_len: int = 384
    vocab_size: int = 512
    lora_rank: int = 8
    lora_alpha: float = 16.0
    max_rel_distance: int = 8
    gate_mode: str = GATE_SHARED
    boost_mode: str = BOOST_RESIDUAL
    residual_skip: bool = True
    ffn_multiplier: int = 4
    max_answer_len: int = 30

    def __post_init__(self):
        for name, low in (("layers", 1), ("hidden", 1), ("heads", 1), ("lora_rank", 1),
                          ("max_rel_distance", 0), ("max_len", 1), ("vocab_size", 1),
                          ("ffn_multiplier", 1), ("max_answer_len", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.gate_mode not in (GATE_SHARED, GATE_PER_LAYER, GATE_OFF):
            raise ValueError(f"unknown gate_mode {self.gate_mode!r}")
        if self.boost_mode not in (BOOST_RESIDUAL, BOOST_ATTENTION, BOOST_OFF):
            raise ValueError(f"unknown boost_mode {self.boost_mode!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def lora_scale(self) -> float:
        return self.lora_alpha / self.lora_rank


@dataclass
class EncoderModel:
    config: ModelConfig
    params: dict[str, np.ndarray]
    seed: int = 0
    dictionary_version: str = ""

    def gate_params(self, layer: int) -> GateParams:
        key = "gate" if self.config.gate_mode == GATE_SHARED else f"layer{layer}.gate"
        return GateParams(self.params[f"{key}.w"], self.params[f"{key}.b"])


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Deterministically ordered name -> shape map for every model tensor."""
    d, r = config.hidden, config.lora_rank
    p_rel = 2 * config.max_rel_distance + 1
    f = config.ffn_multiplier * d
    shapes: dict[str, tuple[int, ...]] = {
        "embed.token_table": (config.vocab_size, d),
        "embed.position_table": (config.max_len, d),
        "embed.domain_projection": (d, d),
        "embed.domain_vector": (d,),
    }
    for layer in range(config.layers):
        pre = f"layer{layer}."
        shapes[pre + "attn.rel_table"] = (p_rel, d)
        for proj in ("q", "k", "v", "o"):
            shapes[pre + f"attn.{proj}.weight"] = (d, d)
            shapes[pre + f"attn.{proj}.bias"] = (d,)
            shapes[pre + f"attn.{proj}.lora_a"] = (d, r)
            shapes[pre + f"attn.{proj}.lora_b"] = (r, d)
        shapes[pre + "ln1.gamma"] = (d,)
        shapes[pre + "ln1.beta"] = (d,)
        shapes[pre + "ffn.w1"] = (d, f)
        shapes[pre + "ffn.b1"] = (f,)
        shapes[pre + "ffn.w2"] = (f, d)
        shapes[pre + "ffn.b2"] = (d,)
        shapes[pre + "ln2.gamma"] = (d,)
        shapes[pre + "ln2.beta"] = (d,)
        if config.gate_mode == GATE_PER_LAYER:
            shapes[pre + "gate.w"] = (d, d)
            shapes[pre + "gate.b"] = (d,)
    if config.gate_mode == GATE_SHARED:
        shapes["gate.w"] = (d, d)
        shapes["gate.b"] = (d,)
    shapes["heads.start.weight"] = (d,)
    shapes["heads.start.bias"] = ()
    shapes["heads.end.weight"] = (d,)
    shapes["heads.end.bias"] = ()
    return shapes


def param_group(name: str) -> str:
    if ".lora_a" in name or ".lora_b" in name:
        return GROUP_LORA
    if name.startswith("gate.") or ".gate." in name:
        return GROUP_GATES
    if name.startswith("heads."):
        return GROUP_HEADS
    if name in ("embed.domain_projection", "embed.domain_vector"):
        return GROUP_EMBED_DOMAIN
    return GROUP_FROZEN


def count_parameters(config: ModelConfig) -> dict:
    """Trainable vs frozen scalar counts, by adaptation group (shape-based)."""
    by_group: dict[str, int] = {g: 0 for g in ADAPTABLE_GROUPS}
    by_group[GROUP_FROZEN] = 0
    for name, shape in parameter_shapes(config).items():
        by_group[param_group(name)] += int(np.prod(shape, dtype=np.int64)) if shape else 1
    trainable = sum(by_group[g] for g in ADAPTABLE_GROUPS)
    return {"by_group": by_group, "trainable": trainable, "frozen": by_group[GROUP_FROZEN]}


def _is_zero_init(name: str) -> bool:
    return (
        name.endswith(".bias")
        or name.endswith(".beta")
        or name.endswith(".b1")
        or name.endswith(".b2")
        or name.endswith(".lora_b")
        or name.endswith("gate.b")
    )


def init_params(config: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """Scaled-normal init (gain 0.02); zeros for biases and LoRA B; ones for LN gains."""
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".gamma"):
            params[name] = np.ones(shape, dtype=dtype)
        elif _is_zero_init(name):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = (rng.standard_normal(shape) * INIT_SCALE).astype(dtype)
    return params


def build_model(config: ModelConfig, seed: int = 0, dtype=np.float32,
                dictionary_version: str = "") -> EncoderModel:
    rng = np.random.default_rng(seed)
    return EncoderModel(
        config=config,
        params=init_params(config, rng, dtype=dtype),
        seed=seed,
        dictionary_version=dictionary_version,
    )


# ---------------------------------------------------------------------------
# primitive ops (forward + backward pairs)
# ---------------------------------------------------------------------------

def lora_apply(base: np.ndarray, lora_a: np.ndarray, lora_b: np.ndarray,
               scale: float, x: np.ndarray) -> np.ndarray:
    """x @ (base + scale * A @ B) computed without materializing the update.

    The base matrix is never modified; with B = 0 the output equals the
    plain projection exactly.
    """
    x = np.asarray(x)
    if x.shape[-1] != base.shape[0]:
        raise ValueError(f"input width {x.shape[-1]} does not match base {base.shape}")
    if lora_a.shape[0] != base.shape[0] or lora_b.shape[1] != base.shape[1] \
            or lora_a.shape[1] != lora_b.shape[0]:
        raise ValueError(
            f"rank mismatch: A {lora_a.shape}, B {lora_b.shape} for base {base.shape}"
        )
    return _lin_fwd(x, base, None, lora_a, lora_b, scale)[0]


def _lin_fwd(x, w, b, a, bb, scale):
    xa = x @ a
    y = x @ w + scale * (xa @ bb)
    if b is not None:
        y = y + b
    return y, (x, xa)


def _lin_bwd(dy, w, a, bb, scale, cache):
    x, xa = cache
    dyb = dy @ bb.T
    dx = dy @ w.T + scale * (dyb @ a.T)
    da = scale * (x.T @ dyb)
    db = scale * (xa.T @ dy)
    return dx, da, db


def _layernorm_fwd(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    dxhat = dy * gamma
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - mean1 - xhat * mean2)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_fwd(u):
    phi = 0.5 * (1.0 + erf(u / _SQRT2))
    return u * phi, (u, phi)


def _gelu_bwd(dy, cache):
    u, phi = cache
    return dy * (phi + u * np.exp(-0.5 * u * u) * _INV_SQRT_2PI)


def _softmax(s):
    z = s - s.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _rel_runs(seq_len: int, max_dist: int) -> np.ndarray:
    """Run lengths of the relative-position bins, flat over (L, P), P = 2m + 1.

    Score (i, j) reads bin clip(j - i, -m, m) + m of row i of the c2p bins
    a_c2p[h] (L, P) and bin clip(i - j, -m, m) + m of row j of the p2c bins
    a_p2c[h] (L, P).  The bin never decreases along j, so row i of the c2p term
    (column j of the p2c term) is row i (row j) of its bins, bin p repeated
    ``runs[i * P + p]`` times: the clipped bins 0 and 2m run over j <= i - m and
    j >= i + m, each inner bin over its one diagonal cell, or none off the matrix.
    The forward is that ``np.repeat``; the backward, its adjoint, sums each run.
    """
    ends = np.arange(seq_len)[:, None] + np.arange(1 - max_dist, max_dist + 2)
    ends = np.minimum(np.maximum(ends, 0), seq_len)  # np.clip, np.diff: 2x slower at small L
    ends[:, -1] = seq_len  # the last bin runs to the end of the row
    runs = ends.copy()
    runs[:, 1:] -= ends[:, :-1]
    return runs.ravel()


def _split_heads(x, heads):
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x):
    heads, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, heads * dh)


def _attn_params(params, layer, proj):
    pre = f"layer{layer}.attn.{proj}."
    return params[pre + "weight"], params[pre + "bias"], \
        params[pre + "lora_a"], params[pre + "lora_b"]


def _attention_fwd(h, params, layer, config: ModelConfig, score_boost=None):
    nh, dh = config.heads, config.head_dim
    scale = config.lora_scale
    seq_len = h.shape[0]
    rel = params[f"layer{layer}.attn.rel_table"]

    wq, bq, aq, bbq = _attn_params(params, layer, "q")
    wk, bk, ak, bbk = _attn_params(params, layer, "k")
    wv, bv, av, bbv = _attn_params(params, layer, "v")
    wo, bo, ao, bbo = _attn_params(params, layer, "o")

    q, cq = _lin_fwd(h, wq, bq, aq, bbq, scale)
    k, ck = _lin_fwd(h, wk, bk, ak, bbk, scale)
    v, cv = _lin_fwd(h, wv, bv, av, bbv, scale)
    # relative-position embeddings share the content projections, no bias so
    # that a zeroed table contributes exactly nothing
    qr, cqr = _lin_fwd(rel, wq, None, aq, bbq, scale)
    kr, ckr = _lin_fwd(rel, wk, None, ak, bbk, scale)

    qh, kh, vh = _split_heads(q, nh), _split_heads(k, nh), _split_heads(v, nh)
    qrh, krh = _split_heads(qr, nh), _split_heads(kr, nh)

    # s = (c2c + c2p + p2c) / sqrt(3 dh), then the softmax, built in place; the
    # relative terms are their bins repeated along rows (c2p) or columns (p2c)
    runs = _rel_runs(seq_len, config.max_rel_distance)
    s = qh @ kh.transpose(0, 2, 1)
    a_c2p = (qh @ krh.transpose(0, 2, 1)).reshape(nh, -1)                     # (nh, L·P)
    s += np.repeat(a_c2p, runs, axis=1).reshape(nh, seq_len, seq_len)
    a_p2c = (qrh @ kh.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(nh, -1)  # (nh, L·P)
    s += np.repeat(a_p2c, runs, axis=1).reshape(nh, seq_len, seq_len).transpose(0, 2, 1)
    s /= math.sqrt(3.0 * dh)
    if score_boost is not None:
        s *= score_boost[None, None, :]
    s -= s.max(axis=-1, keepdims=True)
    prob = np.exp(s, out=s)
    prob /= prob.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(prob @ vh)
    out, co = _lin_fwd(ctx, wo, bo, ao, bbo, scale)

    cache = dict(
        layer=layer, seq_len=seq_len, score_boost=score_boost, runs=runs,
        qh=qh, kh=kh, vh=vh, qrh=qrh, krh=krh, prob=prob,
        cq=cq, ck=ck, cv=cv, cqr=cqr, ckr=ckr, co=co,
    )
    return out, cache


def _attention_bwd(dout, cache, params, config: ModelConfig, grads):
    nh, dh = config.heads, config.head_dim
    scale = config.lora_scale
    layer = cache["layer"]
    seq_len = cache["seq_len"]
    qh, kh, vh = cache["qh"], cache["kh"], cache["vh"]
    qrh, krh, prob = cache["qrh"], cache["krh"], cache["prob"]

    wq, _, aq, bbq = _attn_params(params, layer, "q")
    wk, _, ak, bbk = _attn_params(params, layer, "k")
    wv, _, av, bbv = _attn_params(params, layer, "v")
    wo, _, ao, bbo = _attn_params(params, layer, "o")

    dctx2, dao, dbbo = _lin_bwd(dout, wo, ao, bbo, scale, cache["co"])
    dctx = dctx2.reshape(seq_len, nh, dh).transpose(1, 0, 2)

    # softmax adjoint in place: ds = prob * (dprob - rowsum(dprob * prob))
    ds = dctx @ vh.transpose(0, 2, 1)
    dvh = prob.transpose(0, 2, 1) @ dctx
    ds -= np.einsum("hij,hij->hi", ds, prob)[..., None]
    ds *= prob
    if cache["score_boost"] is not None:
        ds *= cache["score_boost"][None, None, :]
    ds /= math.sqrt(3.0 * dh)

    # content-content
    dqh = ds @ kh
    dkh = ds.transpose(0, 2, 1) @ qh
    # the adjoint of the forward's repeat: each bin's gradient is the sum of its
    # run, over ds row-major for c2p and transposed for p2c.  reduceat wants every
    # start below L² and gives an empty run one cell, not 0: clip the starts and
    # zero the empty runs.  The clip is exact: at m >= 1 only the runs after the
    # last row's diagonal bin, itself one cell, start at L²; at m = 0 none does.
    runs = cache["runs"]
    starts = np.minimum(np.cumsum(runs) - runs, seq_len * seq_len - 1)
    nonempty = runs > 0
    da_c2p = np.add.reduceat(ds.reshape(nh, -1), starts, axis=1) * nonempty
    ds_t = np.ascontiguousarray(ds.transpose(0, 2, 1)).reshape(nh, -1)
    da_p2c = np.add.reduceat(ds_t, starts, axis=1) * nonempty
    da_c2p = da_c2p.reshape(nh, seq_len, -1)                      # (nh, L, P)
    da_p2c = da_p2c.reshape(nh, seq_len, -1).transpose(0, 2, 1)   # (nh, P, L)
    dqh += da_c2p @ krh
    dkrh = da_c2p.transpose(0, 2, 1) @ qh
    dqrh = da_p2c @ kh
    dkh += da_p2c.transpose(0, 2, 1) @ qrh

    dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
    dqr, dkr = _merge_heads(dqrh), _merge_heads(dkrh)

    dh_q, daq, dbbq_g = _lin_bwd(dq, wq, aq, bbq, scale, cache["cq"])
    dh_k, dak, dbbk_g = _lin_bwd(dk, wk, ak, bbk, scale, cache["ck"])
    dh_v, dav, dbbv_g = _lin_bwd(dv, wv, av, bbv, scale, cache["cv"])
    # the relative table is frozen, but its projections still feed LoRA grads
    _, daq_r, dbbq_r = _lin_bwd(dqr, wq, aq, bbq, scale, cache["cqr"])
    _, dak_r, dbbk_r = _lin_bwd(dkr, wk, ak, bbk, scale, cache["ckr"])

    pre = f"layer{layer}.attn."
    _acc(grads, pre + "q.lora_a", daq + daq_r)
    _acc(grads, pre + "q.lora_b", dbbq_g + dbbq_r)
    _acc(grads, pre + "k.lora_a", dak + dak_r)
    _acc(grads, pre + "k.lora_b", dbbk_g + dbbk_r)
    _acc(grads, pre + "v.lora_a", dav)
    _acc(grads, pre + "v.lora_b", dbbv_g)
    _acc(grads, pre + "o.lora_a", dao)
    _acc(grads, pre + "o.lora_b", dbbo)
    return dh_q + dh_k + dh_v


def _acc(grads: dict, name: str, value: np.ndarray) -> None:
    if name in grads:
        grads[name] = grads[name] + value
    else:
        grads[name] = value


# ---------------------------------------------------------------------------
# embeddings and encoder stack
# ---------------------------------------------------------------------------

def embed(model: EncoderModel, token_ids: np.ndarray, dict_flags: np.ndarray) -> np.ndarray:
    """Token + absolute position embeddings, plus the projected domain vector
    on dictionary-member positions."""
    token_ids = np.asarray(token_ids)
    params = model.params
    table = params["embed.token_table"]
    if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= table.shape[0]:
        raise ValueError("token id out of range for the embedding table")
    seq_len = len(token_ids)
    if seq_len > model.config.max_len:
        raise ValueError(f"sequence length {seq_len} exceeds max_len {model.config.max_len}")
    h = table[token_ids] + params["embed.position_table"][:seq_len]
    domain = params["embed.domain_projection"] @ params["embed.domain_vector"]
    flags = np.asarray(dict_flags, dtype=bool)
    return h + flags[:, None] * domain[None, :]


def _gate_for_layer(model: EncoderModel, layer: int) -> GateParams | None:
    if model.config.gate_mode == GATE_OFF:
        return None
    return model.gate_params(layer)


def encoder_forward(
    model: EncoderModel,
    token_ids: np.ndarray,
    boost: np.ndarray,
    return_caches: bool = False,
    debug_checks: bool = False,
):
    """Run the full encoder stack; returns final hidden states (L, d).

    Per layer: disentangled attention -> residual + LayerNorm -> concept gate
    (by gate/boost mode) -> FFN -> residual + LayerNorm.
    """
    cfg = model.config
    params = model.params
    boost = np.asarray(boost, dtype=params["embed.token_table"].dtype)
    if boost.shape != (len(token_ids),):
        raise ValueError("boost vector length does not match token count")
    if cfg.boost_mode == BOOST_OFF:
        boost = np.ones_like(boost)  # dictionary signal fully absent

    gate_boost = boost if cfg.boost_mode == BOOST_RESIDUAL else np.ones_like(boost)
    score_boost = boost if cfg.boost_mode == BOOST_ATTENTION else None

    flags = boost > 1.0
    h = embed(model, token_ids, flags)
    caches = {"flags": flags, "layers": []}

    for layer in range(cfg.layers):
        attn_out, attn_cache = _attention_fwd(h, params, layer, cfg, score_boost)
        h1, ln1_cache = _layernorm_fwd(
            h + attn_out, params[f"layer{layer}.ln1.gamma"], params[f"layer{layer}.ln1.beta"]
        )
        gate_params = _gate_for_layer(model, layer)
        if gate_params is not None:
            gated, gate_cache = gating.gate_forward(
                h1, gate_boost, gate_params, skip=cfg.residual_skip
            )
        else:
            gated, gate_cache = h1, None
        u = gated @ params[f"layer{layer}.ffn.w1"] + params[f"layer{layer}.ffn.b1"]
        act, gelu_cache = _gelu_fwd(u)
        ffn_out = act @ params[f"layer{layer}.ffn.w2"] + params[f"layer{layer}.ffn.b2"]
        h, ln2_cache = _layernorm_fwd(
            gated + ffn_out, params[f"layer{layer}.ln2.gamma"], params[f"layer{layer}.ln2.beta"]
        )
        if debug_checks and not np.isfinite(h).all():
            raise FloatingPointError(f"non-finite hidden state after layer {layer}")
        caches["layers"].append(
            dict(attn=attn_cache, ln1=ln1_cache, gate=gate_cache,
                 gelu=gelu_cache, gated=gated, ln2=ln2_cache)
        )
    if return_caches:
        return h, caches
    return h


def encoder_backward(model: EncoderModel, dh: np.ndarray, caches: dict) -> dict[str, np.ndarray]:
    """Backpropagate dL/dh through the stack; returns grads for adaptable params."""
    cfg = model.config
    params = model.params
    grads: dict[str, np.ndarray] = {}

    for layer in reversed(range(cfg.layers)):
        c = caches["layers"][layer]
        dsum2 = _layernorm_bwd(dh, c["ln2"])
        dgated = dsum2.copy()
        dact = dsum2 @ params[f"layer{layer}.ffn.w2"].T
        du = _gelu_bwd(dact, c["gelu"])
        dgated += du @ params[f"layer{layer}.ffn.w1"].T
        if c["gate"] is not None:
            gate_params = model.gate_params(layer)
            ggrads = gating.gate_backward(dgated, c["gate"], gate_params)
            key = "gate" if cfg.gate_mode == GATE_SHARED else f"layer{layer}.gate"
            _acc(grads, f"{key}.w", ggrads.dw)
            _acc(grads, f"{key}.b", ggrads.db)
            dh1 = ggrads.dx
        else:
            dh1 = dgated
        dsum1 = _layernorm_bwd(dh1, c["ln1"])
        dh = dsum1 + _attention_bwd(dsum1, c["attn"], params, cfg, grads)

    flags = caches["flags"]
    if flags.any():
        dv = dh[flags].sum(axis=0)
        grads["embed.domain_projection"] = np.outer(dv, params["embed.domain_vector"])
        grads["embed.domain_vector"] = params["embed.domain_projection"].T @ dv
    else:
        grads["embed.domain_projection"] = np.zeros_like(params["embed.domain_projection"])
        grads["embed.domain_vector"] = np.zeros_like(params["embed.domain_vector"])
    return grads


# ---------------------------------------------------------------------------
# span heads, loss, prediction
# ---------------------------------------------------------------------------

def span_logits(model: EncoderModel, hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = model.params
    start = hidden @ p["heads.start.weight"] + p["heads.start.bias"]
    end = hidden @ p["heads.end.weight"] + p["heads.end.bias"]
    return start, end


def qa_forward(model: EncoderModel, example: TokenizedExample,
               boost: np.ndarray | None = None, return_caches: bool = False):
    """Encode an example and produce start/end logits."""
    boost = example.boost if boost is None else boost
    out = encoder_forward(model, example.token_ids, boost, return_caches=return_caches)
    hidden, caches = out if return_caches else (out, None)
    start, end = span_logits(model, hidden)
    if return_caches:
        return start, end, hidden, caches
    return start, end, hidden


def _log_softmax(z):
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def span_loss(start_logits: np.ndarray, end_logits: np.ndarray,
              gold: tuple[int, int]) -> float:
    """Summed cross-entropies of the start and end positions."""
    ys, ye = gold
    n = len(start_logits)
    if not (0 <= ys < n and 0 <= ye < n and ys <= ye):
        raise ValueError(f"invalid gold span {gold} for length {n}")
    return float(-_log_softmax(start_logits)[ys] - _log_softmax(end_logits)[ye])


def _span_loss_grads(start_logits, end_logits, gold):
    ys, ye = gold
    dstart = _softmax(start_logits[None, :])[0]
    dstart[ys] -= 1.0
    dend = _softmax(end_logits[None, :])[0]
    dend[ye] -= 1.0
    return dstart, dend


def qa_loss_and_grads(
    model: EncoderModel,
    example: TokenizedExample,
    boost: np.ndarray | None = None,
    trainable_groups: tuple[str, ...] = ADAPTABLE_GROUPS,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for every parameter in ``trainable_groups``."""
    if example.gold_span is None:
        raise ValueError("example has no gold span")
    start, end, hidden, caches = qa_forward(model, example, boost=boost, return_caches=True)
    loss = span_loss(start, end, example.gold_span)
    dstart, dend = _span_loss_grads(start, end, example.gold_span)

    p = model.params
    grads: dict[str, np.ndarray] = {
        "heads.start.weight": hidden.T @ dstart,
        "heads.start.bias": np.asarray(dstart.sum(), dtype=p["heads.start.bias"].dtype),
        "heads.end.weight": hidden.T @ dend,
        "heads.end.bias": np.asarray(dend.sum(), dtype=p["heads.end.bias"].dtype),
    }
    dh = np.outer(dstart, p["heads.start.weight"]) + np.outer(dend, p["heads.end.weight"])
    grads.update(encoder_backward(model, dh, caches))
    return loss, {k: v for k, v in grads.items() if param_group(k) in trainable_groups}


@dataclass(frozen=True)
class SpanPrediction:
    start: int
    end: int
    score: float


def predict_span(
    start_logits: np.ndarray,
    end_logits: np.ndarray,
    example: TokenizedExample,
    max_answer_len: int = 30,
) -> SpanPrediction:
    """Best (start, end) pair inside the context segment.

    Maximizes start_logits[s] + end_logits[e] over pairs with s <= e and
    e - s < max_answer_len; ties resolve to the smallest s, then smallest e
    (row-major argmax order).
    """
    n = len(start_logits)
    if len(end_logits) != n or len(example) != n:
        raise ValueError("logit length does not match the example")
    in_context = example.segment_flags == 2  # SEG_CONTEXT
    scores = start_logits[:, None] + end_logits[None, :]
    s_idx = np.arange(n)[:, None]
    e_idx = np.arange(n)[None, :]
    valid = (
        in_context[:, None] & in_context[None, :]
        & (s_idx <= e_idx) & (e_idx - s_idx < max_answer_len)
    )
    if not valid.any():
        raise ValueError("no candidate span")
    masked = np.where(valid, scores, -np.inf)
    flat = int(np.argmax(masked))
    s, e = divmod(flat, n)
    return SpanPrediction(start=s, end=e, score=float(masked[s, e]))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: EncoderModel, path: str | Path) -> None:
    """Deterministic binary container: JSON header + raw float32 blobs.

    Layout: magic "CQAM", u32 format version, u64 header length, header JSON
    (config, seed, dictionary version, tensor table with offsets), then the
    concatenated row-major little-endian float32 tensor payloads.  Only the
    config's tensors are written (an ablated model may hold unused gate tensors).
    """
    names = sorted(parameter_shapes(model.config))
    tensors = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.asarray(model.params[name], dtype="<f4", order="C")
        blob = arr.tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset,
                        "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "config": dataclasses.asdict(model.config),
            "seed": model.seed,
            "dictionary_version": model.dictionary_version,
            "tensors": tensors,
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.uint32(CHECKPOINT_FORMAT).tobytes())
        fh.write(np.uint64(len(header)).tobytes())
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> EncoderModel:
    """Read a ``save_checkpoint`` file.

    A truncated, malformed or inconsistent file raises ValueError naming the file
    and the header key or tensor at fault.  The tensor table must list exactly
    the config's tensors, in name order, with their shapes and byte counts.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC or len(raw) < 16:
        raise ValueError(f"{path}: not a model checkpoint, or cut short of 16 bytes")
    fmt = int(np.frombuffer(raw[4:8], dtype=np.uint32)[0])
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format {fmt}")
    hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
    if 16 + hlen > len(raw):
        raise ValueError(f"{path}: header needs bytes [16, {16 + hlen}) "
                         f"but the file has {len(raw)}")
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header must be an object, got {type(header).__name__}")
    for key, kind in (("config", dict), ("seed", int), ("dictionary_version", str),
                      ("tensors", list)):
        if type(header.get(key)) is not kind:
            got = repr(header[key])[:60] if key in header else "nothing"
            raise ValueError(f"{path}: header {key!r} must be {kind.__name__}, got {got}")
    kinds = {f.name: type(f.default) for f in dataclasses.fields(ModelConfig)}
    unknown = set(header["config"]) - set(kinds)
    if unknown:
        raise ValueError(f"{path}: unknown config key(s) {sorted(unknown)}")
    for key, value in header["config"].items():
        if type(value) is not kinds[key] and (kinds[key], type(value)) != (float, int):
            raise ValueError(f"{path}: config {key!r} must be {kinds[key].__name__}, "
                             f"got {value!r}")
    try:
        config = ModelConfig(**header["config"])
    except ValueError as exc:
        raise ValueError(f"{path}: config: {exc}") from None
    tensors = header["tensors"]
    if config.layers > len(tensors):  # each layer has tensors of its own
        raise ValueError(f"{path}: config has {config.layers} layers but the tensor "
                         f"table holds only {len(tensors)} tensors")
    body = raw[16 + hlen:]
    params = {}
    for n, (name, shape) in enumerate(sorted(parameter_shapes(config).items())):
        nbytes = 4 * math.prod(shape)
        t = tensors[n] if n < len(tensors) else None
        if not isinstance(t, dict) or (t.get("name"), t.get("shape"), t.get("nbytes")) \
                != (name, list(shape), nbytes):
            raise ValueError(f"{path}: tensor table entry {n} must be {name!r} with "
                             f"{nbytes} bytes for shape {list(shape)}, got {t!r}")
        start = t.get("offset")
        if type(start) is not int or start < 0 or start + nbytes > len(body):
            raise ValueError(f"{path}: tensor {name!r} at body offset {start!r}: "
                             f"the body has {len(body)} bytes")
        arr = np.frombuffer(body[start:start + nbytes], dtype="<f4")
        params[name] = arr.reshape(shape).copy()
    if len(tensors) != len(params):
        raise ValueError(f"{path}: the tensor table has {len(tensors)} entries, "
                         f"the config {len(params)} tensors")
    return EncoderModel(config=config, params=params, seed=header["seed"],
                        dictionary_version=header["dictionary_version"])


def models_equal(a: EncoderModel, b: EncoderModel) -> bool:
    if a.config != b.config or set(a.params) != set(b.params):
        return False
    return all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

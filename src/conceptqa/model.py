"""Miniature disentangled-attention encoder with LoRA adapters and span heads.

The backbone mirrors a pretrained-transformer fine-tuning setup structurally:
all base tensors (embeddings, attention projections, FFN, LayerNorm) are
frozen at their random initialization, and adaptation happens only through
low-rank adapters on the Q/K/V/O projections, the concept gate, the span
heads and the domain-embedding term.  Every forward op has a matching
hand-written backward so gradients are exact and checkable against finite
differences.

Attention scores decompose additively into content-content, content-position
and position-content interactions over a clipped relative-position table,
scaled by 1/sqrt(3 * head_dim).  A concept-gated residual block sits between
each attention sub-layer and its FFN.

``encoder_forward`` runs one example, token ids (L,), or a padded batch
(B, L): each row's real tokens first, then padding up to the longest row,
with the real length of each row given.  Padded keys take a -inf score bias,
so a real row attends to its own tokens only.  The position-wise layers run
on the B·L rows flattened and the attention on (B, heads, L, L) scores;
``evaluation.ROW_BUDGET`` caps B·L per inference forward.  The backward runs
on one example.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from . import gating
from .gating import GateParams
from .tokenizer import SEG_CONTEXT, TokenizedExample

LN_EPS = 1e-5
INIT_SCALE = 0.02

GATE_SHARED, GATE_OFF = "shared", "off"
BOOST_RESIDUAL, BOOST_ATTENTION, BOOST_OFF = "residual_gate", "attention_score", "off"

GROUP_LORA = "lora"
GROUP_GATES = "gates"
GROUP_HEADS = "heads"
GROUP_EMBED_DOMAIN = "embed_domain"
GROUP_FROZEN = "frozen"
ADAPTABLE_GROUPS = (GROUP_LORA, GROUP_GATES, GROUP_HEADS, GROUP_EMBED_DOMAIN)

CHECKPOINT_MAGIC = b"CQAM"
CHECKPOINT_FORMAT = 2


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
        if not self.lora_alpha > 0:
            raise ValueError(f"lora_alpha must be > 0, got {self.lora_alpha}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.gate_mode not in (GATE_SHARED, GATE_OFF):
            raise ValueError(f"unknown gate_mode {self.gate_mode!r}")
        if self.boost_mode not in (BOOST_RESIDUAL, BOOST_ATTENTION, BOOST_OFF):
            raise ValueError(f"unknown boost_mode {self.boost_mode!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def lora_scale(self) -> float:
        return self.lora_alpha / self.lora_rank


def read_config(default, values, kind: str, section: str = "", fixed: tuple[str, ...] = ()):
    """Config dataclass instance ``default`` with the fields in JSON object ``values``.

    Each value must have the exact type of its default; an int stands for a
    float and a list for a tuple.  A non-object, a key that is not a field or
    is one of the ``fixed`` fields, a wrong type or a NaN or infinite float
    raises ValueError naming ``{kind} '{section}.{key}'``, e.g. "setting
    'model.hidden' must be int" or "setting 'model.lora_alpha' must be finite".
    """
    where = f"{kind} {section}" if section else kind
    if type(values) is not dict:
        raise ValueError(f"{where} must be an object, got {values!r}")
    kinds = {f.name: type(getattr(default, f.name))
             for f in dataclasses.fields(default) if f.name not in fixed}
    read = {}
    for key, value in values.items():
        label = f"{section}.{key}" if section else key
        if key not in kinds:
            raise ValueError(f"unknown {kind} key {label!r}")
        if (kinds[key], type(value)) == (tuple, list):
            value = tuple(value)
        if type(value) is not kinds[key] and (kinds[key], type(value)) != (float, int):
            name = "list" if kinds[key] is tuple else kinds[key].__name__
            raise ValueError(f"{kind} {label!r} must be {name}, got {value!r}")
        if any(type(v) is float and not math.isfinite(v)
               for v in (value if type(value) is tuple else (value,))):
            raise ValueError(f"{kind} {label!r} must be finite, got {value!r}")
        read[key] = value
    try:
        return dataclasses.replace(default, **read)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass
class EncoderModel:
    config: ModelConfig
    params: dict[str, np.ndarray]
    seed: int = 0
    dictionary_version: str = ""


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
    if name.startswith("gate."):
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


def init_params(config: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """Scaled-normal init (gain 0.02); zeros for biases and LoRA B; ones for LN gains."""
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".gamma"):
            params[name] = np.ones(shape, dtype=dtype)
        elif name.endswith((".bias", ".beta", ".b1", ".b2", ".lora_b", "gate.b")):
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

def _lin_fwd(x, w, a, bb, scale):
    """x @ (W + scale·A@B) without forming the sum; the caller adds the bias."""
    xa = x @ a
    return x @ w + scale * (xa @ bb), (x, xa)


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
    """(..., L, d) -> (..., heads, L, d / heads)."""
    return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-2, -3)


def _merge_heads(x):
    """(..., heads, L, dh) -> (..., L, heads * dh)."""
    return x.swapaxes(-2, -3).reshape(*x.shape[:-3], x.shape[-2], -1)


def _attn_params(params, layer, proj):
    pre = f"layer{layer}.attn.{proj}."
    return params[pre + "weight"], params[pre + "bias"], \
        params[pre + "lora_a"], params[pre + "lora_b"]


def _attention_fwd(h, params, layer, config: ModelConfig, score_boost=None, key_bias=None):
    """Disentangled self-attention over h (L, d), or over a batch h (B, L, d).

    ``score_boost`` (shaped like h without d) multiplies each key's scores;
    ``key_bias`` (B, L) is added to them, -inf on a batch's padded keys.
    """
    nh, dh = config.heads, config.head_dim
    scale = config.lora_scale
    seq_len, d = h.shape[-2:]
    n = h.size // d  # rows over the whole batch
    flat = h.reshape(n, d)
    rel = params[f"layer{layer}.attn.rel_table"]

    wq, bq, aq, bbq = _attn_params(params, layer, "q")
    wk, bk, ak, bbk = _attn_params(params, layer, "k")
    wv, bv, av, bbv = _attn_params(params, layer, "v")
    wo, bo, ao, bbo = _attn_params(params, layer, "o")

    # the content rows and the relative-position rows share one projection;
    # only the content rows take the bias, so a zeroed table contributes nothing
    rows = np.concatenate([flat, rel])
    q, cq = _lin_fwd(rows, wq, aq, bbq, scale)
    k, ck = _lin_fwd(rows, wk, ak, bbk, scale)
    v, cv = _lin_fwd(flat, wv, av, bbv, scale)
    q, qr = (q[:n] + bq).reshape(h.shape), q[n:]
    k, kr = (k[:n] + bk).reshape(h.shape), k[n:]
    v = (v + bv).reshape(h.shape)

    qh, kh, vh = _split_heads(q, nh), _split_heads(k, nh), _split_heads(v, nh)
    qrh, krh = _split_heads(qr, nh), _split_heads(kr, nh)

    # s = (c2c + c2p + p2c) / sqrt(3 dh), then the softmax, built in place; the
    # relative terms are their bins repeated along rows (c2p) or columns (p2c).
    # A bin depends on j - i alone, so one set of runs serves a padded batch
    runs = _rel_runs(seq_len, config.max_rel_distance)
    s = qh @ kh.swapaxes(-1, -2)                                          # (..., nh, L, L)
    a_c2p = (qh @ krh.swapaxes(-1, -2)).reshape(*s.shape[:-2], -1)        # (..., nh, L·P)
    s += np.repeat(a_c2p, runs, axis=-1).reshape(s.shape)
    a_p2c = (qrh @ kh.swapaxes(-1, -2)).swapaxes(-1, -2).reshape(*s.shape[:-2], -1)
    s += np.repeat(a_p2c, runs, axis=-1).reshape(s.shape).swapaxes(-1, -2)
    s /= math.sqrt(3.0 * dh)
    if score_boost is not None:
        s *= score_boost[..., None, None, :]
    if key_bias is not None:
        s += key_bias[:, None, None, :]
    s -= s.max(axis=-1, keepdims=True)
    prob = np.exp(s, out=s)
    prob /= prob.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(prob @ vh).reshape(n, d)
    out, co = _lin_fwd(ctx, wo, ao, bbo, scale)
    out += bo

    cache = dict(
        layer=layer, seq_len=seq_len, score_boost=score_boost, runs=runs,
        qh=qh, kh=kh, vh=vh, qrh=qrh, krh=krh, prob=prob,
        cq=cq, ck=ck, cv=cv, co=co,
    )
    return out.reshape(h.shape), cache


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
    dctx = _split_heads(dctx2, nh)

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

    # the relative table is frozen: its rows feed only the LoRA gradients
    dq = _merge_heads(np.concatenate([dqh, dqrh], axis=1))
    dk = _merge_heads(np.concatenate([dkh, dkrh], axis=1))
    dh_q, daq, dbbq = _lin_bwd(dq, wq, aq, bbq, scale, cache["cq"])
    dh_k, dak, dbbk = _lin_bwd(dk, wk, ak, bbk, scale, cache["ck"])
    dh_v, dav, dbbv = _lin_bwd(_merge_heads(dvh), wv, av, bbv, scale, cache["cv"])

    pre = f"layer{layer}.attn."
    grads.update({pre + "q.lora_a": daq, pre + "q.lora_b": dbbq,
                  pre + "k.lora_a": dak, pre + "k.lora_b": dbbk,
                  pre + "v.lora_a": dav, pre + "v.lora_b": dbbv,
                  pre + "o.lora_a": dao, pre + "o.lora_b": dbbo})
    return dh_q[:seq_len] + dh_k[:seq_len] + dh_v


# ---------------------------------------------------------------------------
# embeddings and encoder stack
# ---------------------------------------------------------------------------

def embed(model: EncoderModel, token_ids: np.ndarray, dict_flags: np.ndarray) -> np.ndarray:
    """Token + absolute position embeddings, plus the projected domain vector
    on dictionary-member positions; ids (L,) or a batch (B, L) give (..., L, d)."""
    token_ids = np.asarray(token_ids)
    params = model.params
    table = params["embed.token_table"]
    if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= table.shape[0]:
        raise ValueError("token id out of range for the embedding table")
    seq_len = token_ids.shape[-1]
    if seq_len > model.config.max_len:
        raise ValueError(f"sequence length {seq_len} exceeds max_len {model.config.max_len}")
    h = table[token_ids] + params["embed.position_table"][:seq_len]
    domain = params["embed.domain_projection"] @ params["embed.domain_vector"]
    flags = np.asarray(dict_flags, dtype=bool)
    return h + flags[..., None] * domain


def _key_bias(lengths, shape: tuple[int, ...], dtype) -> np.ndarray | None:
    """(B, L) score bias of a padded batch: 0 on each row's first ``lengths[b]``
    keys, -inf on the padding after them; None when nothing is padded."""
    if lengths is None:
        return None
    lengths = np.asarray(lengths)
    if (len(shape) != 2 or lengths.shape != shape[:1]
            or not np.issubdtype(lengths.dtype, np.integer)):
        raise ValueError(f"lengths must be one int per row of a (B, L) batch, "
                         f"got {lengths.shape} {lengths.dtype} for ids {shape}")
    if not ((lengths >= 1) & (lengths <= shape[1])).all():
        raise ValueError(f"row lengths must lie in [1, {shape[1]}], got {lengths.tolist()}")
    pad = np.arange(shape[1]) >= lengths[:, None]
    return np.where(pad, -np.inf, 0.0).astype(dtype) if pad.any() else None


def encoder_forward(
    model: EncoderModel,
    token_ids: np.ndarray,
    boost: np.ndarray,
    return_caches: bool = False,
    lengths: np.ndarray | None = None,
):
    """Run the full encoder stack; returns final hidden states (L, d).

    Per layer: disentangled attention -> residual + LayerNorm -> concept gate
    (by gate/boost mode) -> FFN -> residual + LayerNorm.

    A padded batch: ``token_ids`` and ``boost`` are (B, L), row b holds its
    ``lengths[b]`` real tokens then padding (any in-range id, boost 1), and the
    result is (B, L, d).  Padded keys are masked out of every softmax, so a
    real row's states equal its own forward's up to float rounding; a padded
    position's states mean nothing.  ``lengths`` None means no padding.  The
    position-wise layers run on the B·L rows flattened; caches for
    ``encoder_backward`` exist for one example only.
    """
    cfg = model.config
    params = model.params
    token_ids = np.asarray(token_ids)
    boost = np.asarray(boost, dtype=params["embed.token_table"].dtype)
    if token_ids.ndim not in (1, 2) or boost.shape != token_ids.shape:
        raise ValueError(f"boost vector length does not match token count: "
                         f"boost {boost.shape}, ids {token_ids.shape}")
    key_bias = _key_bias(lengths, token_ids.shape, boost.dtype)
    if return_caches and token_ids.ndim != 1:
        raise ValueError("caches are kept for one example, not for a batch")
    if cfg.boost_mode == BOOST_OFF:
        boost = np.ones_like(boost)  # dictionary signal fully absent

    gate_boost = boost if cfg.boost_mode == BOOST_RESIDUAL else np.ones_like(boost)
    score_boost = boost if cfg.boost_mode == BOOST_ATTENTION else None

    flags = boost > 1.0
    h = embed(model, token_ids, flags)
    shape = h.shape
    h = h.reshape(-1, shape[-1])
    gate_boost = gate_boost.reshape(-1)
    # one concept gate, shared by every layer
    gate = None if cfg.gate_mode == GATE_OFF else GateParams(params["gate.w"], params["gate.b"])
    caches = {"flags": flags, "gate": gate, "layers": []}

    for layer in range(cfg.layers):
        attn_out, attn_cache = _attention_fwd(h.reshape(shape), params, layer, cfg,
                                              score_boost, key_bias)
        h1, ln1_cache = _layernorm_fwd(
            h + attn_out.reshape(h.shape),
            params[f"layer{layer}.ln1.gamma"], params[f"layer{layer}.ln1.beta"]
        )
        if gate is not None:
            gated, gate_cache = gating.gate_forward(h1, gate_boost, gate, skip=cfg.residual_skip)
        else:
            gated, gate_cache = h1, None
        u = gated @ params[f"layer{layer}.ffn.w1"] + params[f"layer{layer}.ffn.b1"]
        act, gelu_cache = _gelu_fwd(u)
        ffn_out = act @ params[f"layer{layer}.ffn.w2"] + params[f"layer{layer}.ffn.b2"]
        h, ln2_cache = _layernorm_fwd(
            gated + ffn_out, params[f"layer{layer}.ln2.gamma"], params[f"layer{layer}.ln2.beta"]
        )
        if return_caches:  # else each layer's activations are freed as the next runs
            caches["layers"].append(
                dict(attn=attn_cache, ln1=ln1_cache, gate=gate_cache,
                     gelu=gelu_cache, gated=gated, ln2=ln2_cache)
            )
    h = h.reshape(shape)
    if return_caches:
        return h, caches
    return h


def encoder_backward(model: EncoderModel, dh: np.ndarray, caches: dict) -> dict[str, np.ndarray]:
    """Backpropagate dL/dh through the stack; returns grads for adaptable params."""
    cfg = model.config
    params = model.params
    grads: dict[str, np.ndarray] = {}
    gate = caches["gate"]

    for layer in reversed(range(cfg.layers)):
        c = caches["layers"][layer]
        dsum2 = _layernorm_bwd(dh, c["ln2"])
        dact = dsum2 @ params[f"layer{layer}.ffn.w2"].T
        du = _gelu_bwd(dact, c["gelu"])
        dgated = dsum2 + du @ params[f"layer{layer}.ffn.w1"].T
        if gate is not None:
            ggrads = gating.gate_backward(dgated, c["gate"], gate)
            if "gate.w" in grads:  # the shared gate's gradient sums over layers
                grads["gate.w"] += ggrads.dw
                grads["gate.b"] += ggrads.db
            else:
                grads["gate.w"], grads["gate.b"] = ggrads.dw, ggrads.db
            dh1 = ggrads.dx
        else:
            dh1 = dgated
        dsum1 = _layernorm_bwd(dh1, c["ln1"])
        dh = dsum1 + _attention_bwd(dsum1, c["attn"], params, cfg, grads)

    dv = dh[caches["flags"]].sum(axis=0)
    grads["embed.domain_projection"] = np.outer(dv, params["embed.domain_vector"])
    grads["embed.domain_vector"] = params["embed.domain_projection"].T @ dv
    return grads


# ---------------------------------------------------------------------------
# span heads, loss, prediction
# ---------------------------------------------------------------------------

def span_logits(model: EncoderModel, hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = model.params
    start = hidden @ p["heads.start.weight"] + p["heads.start.bias"]
    end = hidden @ p["heads.end.weight"] + p["heads.end.bias"]
    return start, end


def qa_forward(model: EncoderModel, example: TokenizedExample):
    """Encode an example and produce start/end logits."""
    hidden = encoder_forward(model, example.token_ids, example.boost)
    start, end = span_logits(model, hidden)
    return start, end, hidden


def _head_loss(logits: np.ndarray, gold: int):
    """A span head's cross-entropy at index ``gold`` and its logits' gradient,
    softmax minus one-hot, from one shifted exp."""
    z = logits - logits.max()
    e = np.exp(z)
    total = e.sum()
    grad = e / total
    grad[gold] -= 1.0
    return np.log(total) - z[gold], grad


def _span_loss_and_grads(start_logits, end_logits, gold: tuple[int, int]):
    """``span_loss`` and the gradients of the start and end logits."""
    ys, ye = gold
    n = len(start_logits)
    if not (0 <= ys < n and 0 <= ye < n and ys <= ye):
        raise ValueError(f"invalid gold span {gold} for length {n}")
    loss_start, dstart = _head_loss(start_logits, ys)
    loss_end, dend = _head_loss(end_logits, ye)
    return float(loss_start + loss_end), dstart, dend


def span_loss(start_logits: np.ndarray, end_logits: np.ndarray,
              gold: tuple[int, int]) -> float:
    """Summed cross-entropies of the start and end positions."""
    return _span_loss_and_grads(start_logits, end_logits, gold)[0]


def qa_loss_and_grads(
    model: EncoderModel,
    example: TokenizedExample,
    trainable_groups: tuple[str, ...] = ADAPTABLE_GROUPS,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for every parameter in ``trainable_groups``."""
    if example.gold_span is None:
        raise ValueError("example has no gold span")
    hidden, caches = encoder_forward(model, example.token_ids, example.boost,
                                     return_caches=True)
    start, end = span_logits(model, hidden)
    loss, dstart, dend = _span_loss_and_grads(start, end, example.gold_span)

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
    (row-major argmax order).  Only the answer band is scored: row s, column k
    of the (L, max_answer_len) score array is the span (s, s + k).
    """
    n = len(start_logits)
    if len(end_logits) != n or len(example) != n:
        raise ValueError("logit length does not match the example")
    in_context = example.segment_flags == SEG_CONTEXT
    tail = np.zeros(max_answer_len - 1, dtype=end_logits.dtype)  # np.pad: 10x slower
    ends = sliding_window_view(np.concatenate([end_logits, tail]), max_answer_len)
    context_padded = np.concatenate([in_context, tail.astype(bool)])
    valid = in_context[:, None] & sliding_window_view(context_padded, max_answer_len)
    if not valid.any():
        raise ValueError("no candidate span")
    masked = np.where(valid, start_logits[:, None] + ends, -np.inf)
    s, k = divmod(int(np.argmax(masked)), max_answer_len)
    return SpanPrediction(start=s, end=s + k, score=float(masked[s, k]))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: EncoderModel, path: str | Path) -> None:
    """Deterministic binary container: JSON header + raw float32 tensors.

    Layout: magic "CQAM", u32 format version, u64 header length, the sorted
    header JSON {config, seed, dictionary_version}, then each of the config's
    tensors in name order as row-major little-endian float32.  The config fixes
    every shape, so it is the whole layout.  Only the config's tensors are
    written (an ablated model may hold unused gate tensors).
    """
    header = json.dumps({"config": dataclasses.asdict(model.config), "seed": model.seed,
                         "dictionary_version": model.dictionary_version},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.uint32(CHECKPOINT_FORMAT).tobytes())
        fh.write(np.uint64(len(header)).tobytes())
        fh.write(header)
        for name in sorted(parameter_shapes(model.config)):
            fh.write(np.asarray(model.params[name], dtype="<f4", order="C").tobytes())


def load_checkpoint(path: str | Path) -> EncoderModel:
    """Read a ``save_checkpoint`` file.

    A truncated, malformed or inconsistent file raises ValueError naming the file
    and the header key at fault.  The header holds exactly the config, seed and
    dictionary version, and the body exactly the config's tensors, all finite.
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
    kinds = {"config": dict, "seed": int, "dictionary_version": str}
    for key, kind in kinds.items():
        if type(header.get(key)) is not kind:
            got = repr(header[key])[:60] if key in header else "nothing"
            raise ValueError(f"{path}: header {key!r} must be {kind.__name__}, got {got}")
    if header.keys() != kinds.keys():
        raise ValueError(f"{path}: unknown header key {min(header.keys() - kinds)!r}")
    try:
        config = read_config(ModelConfig(), header["config"], "config")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    body = raw[16 + hlen:]
    # each layer's four hidden x hidden projections take 16 hidden² bytes
    if 16 * config.hidden ** 2 * config.layers > len(body):
        raise ValueError(f"{path}: config has {config.layers} layers of hidden "
                         f"{config.hidden}, more than the {len(body)}-byte body holds")
    shapes = sorted(parameter_shapes(config).items())
    sizes = [math.prod(shape) for _, shape in shapes]
    if 4 * sum(sizes) != len(body):
        raise ValueError(f"{path}: the body has {len(body)} bytes, the config's "
                         f"tensors take {4 * sum(sizes)}")
    parts = np.split(np.frombuffer(body, dtype="<f4"), np.cumsum(sizes)[:-1])
    params = {name: part.reshape(shape).copy() for (name, shape), part in zip(shapes, parts)}
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
    return EncoderModel(config=config, params=params, seed=header["seed"],
                        dictionary_version=header["dictionary_version"])


def models_equal(a: EncoderModel, b: EncoderModel) -> bool:
    if a.config != b.config or set(a.params) != set(b.params):
        return False
    return all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

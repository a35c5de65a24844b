"""Miniature disentangled-attention encoder with LoRA adapters and span heads.

The backbone mirrors a pretrained-transformer fine-tuning setup structurally:
all base tensors (embeddings, attention projections, FFN, LayerNorm) are
frozen at their random initialization, and adaptation happens only through
low-rank adapters on the Q/K/V/O projections, the concept gate, the span
heads and the domain-embedding term.  A model's ``ParamTable`` holds those
adapted tensors as views into one flat array, which the optimizer updates
whole.  Every forward op has a matching
hand-written backward so gradients are exact and checkable against finite
differences.

Attention scores decompose additively into content-content, content-position
and position-content interactions over a clipped relative-position table,
scaled by 1/sqrt(3 * head_dim).  A concept-gated residual block sits between
each attention sub-layer and its FFN.

``encoder_forward`` and ``encoder_backward`` run a padded batch, token ids
(B, L): each row's real tokens first, then padding up to the longest row,
with the real length of each row given.  One example, token ids (L,), is a
batch of one.  Padded keys take a -inf score bias, so a real row attends to
its own tokens only.  The position-wise layers run on the B·L rows flattened
and the attention on (B, heads, L, L) scores; the backward sums a batch's
gradients over its rows.  ``evaluation.ROW_BUDGET`` caps B·L per inference
forward.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gating
from .gating import GateParams
from .tokenizer import DEFAULT_MAX_LEN, SEG_CONTEXT, TokenizedExample

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
CHECKPOINT_FORMAT = 3


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 2
    hidden: int = 32
    heads: int = 4
    max_len: int = DEFAULT_MAX_LEN
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
    """A config and its tensors, laid out when built: a plain dict is copied into a
    new ``ParamTable``; a table is kept, so models (``ablated_model``) share one."""
    config: ModelConfig
    params: dict[str, np.ndarray]
    seed: int = 0
    dictionary_version: str = ""

    def __post_init__(self):
        if not isinstance(self.params, ParamTable):
            self.params = ParamTable(self.params)


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
    shapes["heads.end.weight"] = (d,)
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
        by_group[param_group(name)] += math.prod(shape)
    trainable = sum(by_group[g] for g in ADAPTABLE_GROUPS)
    return {"by_group": by_group, "trainable": trainable, "frozen": by_group[GROUP_FROZEN]}


class Layout:
    """Where each adapted tensor sits in one flat array: group by group in
    ``ADAPTABLE_GROUPS`` order, in the given order within a group.

    ``names[i]`` spans ``bounds[i]:bounds[i + 1]`` of the array, in row-major
    order.  Parameters, their AdamW moments and their gradients all take this
    layout, so one slice reads a tensor's value, moments and gradient.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        rank = {group: i for i, group in enumerate(ADAPTABLE_GROUPS)}
        self._group = {name: group for name in shapes if (group := param_group(name)) in rank}
        self.names = tuple(sorted(self._group, key=lambda name: rank[self._group[name]]))
        self.shapes = tuple(tuple(shapes[name]) for name in self.names)
        self.bounds = np.cumsum([0, *(math.prod(shape) for shape in self.shapes)])
        self._slices = tuple(slice(int(a), int(b))
                             for a, b in zip(self.bounds[:-1], self.bounds[1:]))
        self._selections: dict[tuple[str, ...], tuple[slice, ...]] = {}

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each adapted tensor as a view into ``flat``."""
        return [flat[part].reshape(shape) for part, shape in zip(self._slices, self.shapes)]

    def select(self, groups) -> tuple[slice, ...]:
        """The stretches of the flat array that the adapted tensors of ``groups``
        fill, in layout order; adjacent tensors share one stretch."""
        groups = tuple(groups)
        if groups not in self._selections:
            unknown = set(groups) - set(ADAPTABLE_GROUPS)
            if unknown:
                raise ValueError(f"unknown trainable group {min(unknown)!r}")
            stretches: list[slice] = []
            for name, part in zip(self.names, self._slices):
                if self._group[name] in groups:
                    if stretches and stretches[-1].stop == part.start:
                        part = slice(stretches.pop().start, part.stop)
                    stretches.append(part)
            self._selections[groups] = tuple(stretches)
        return self._selections[groups]


class ParamTable(dict):
    """Every tensor of a model by name, the adapted ones laid out in one array.

    The tensors of ``ADAPTABLE_GROUPS`` are views into ``flat``, placed by
    ``layout``; the frozen ones stay separate arrays.  Readers index the table
    as a dict.  Write an adapted tensor in place (``params[name][...] = x``): an
    entry rebound to another array is detached from ``flat``, and
    ``training.optimizer_step`` refuses a table with a detached tensor.
    Building a table copies the adapted tensors of ``params`` into a new array.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        super().__init__(params)
        self.layout = Layout({name: np.shape(value) for name, value in params.items()})
        arrays = [np.asarray(params[name]) for name in self.layout.names]
        dtypes = sorted({a.dtype.name for a in arrays})
        if len(dtypes) > 1:
            raise ValueError(f"adapted tensors must share one dtype, got {' and '.join(dtypes)}")
        self.flat = np.concatenate(arrays, axis=None)
        self._views = tuple(self.layout.views(self.flat))
        for name, view in zip(self.layout.names, self._views):
            self[name] = view

    def __reduce__(self):  # a copy or an unpickled table lays out its own array
        return type(self), (dict(self),)

    def detached(self) -> str | None:
        """The first adapted name whose entry is no longer its view into ``flat``."""
        if all(map(operator.is_, map(self.get, self.layout.names), self._views)):
            return None
        return next(name for name, view in zip(self.layout.names, self._views)
                    if self.get(name) is not view)


def _init_tensor(name: str, shape: tuple[int, ...], rng: np.random.Generator, dtype):
    if name.endswith(".gamma"):
        return np.ones(shape, dtype=dtype)
    if name.endswith((".bias", ".beta", ".b1", ".b2", ".lora_b", "gate.b")):
        return np.zeros(shape, dtype=dtype)
    return (rng.standard_normal(shape) * INIT_SCALE).astype(dtype)


def init_params(config: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """Scaled-normal init (gain 0.02); zeros for biases and LoRA B; ones for LN gains."""
    return {name: _init_tensor(name, shape, rng, dtype)
            for name, shape in parameter_shapes(config).items()}


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
    mean = np.full((x.shape[-1], 1), 1.0 / x.shape[-1], x.dtype)  # row means: one BLAS product
    xc = x - x @ mean
    var = (xc * xc) @ mean
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    dxhat = dy * gamma
    mean = np.full((dxhat.shape[-1], 1), 1.0 / dxhat.shape[-1], dxhat.dtype)
    return inv * (dxhat - dxhat @ mean - xhat * ((dxhat * xhat) @ mean))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Polynomial coefficients, highest degree first.  float32: the clamped odd/even
# rational erf(x) = x P(x²) / Q(x²) on [-4, 4] that Eigen and XLA use; erf(±4)
# rounds to ±1 in float32, and the largest error is 4.2e-7.
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)
_erf64 = np.vectorize(math.erf, otypes=[np.float64])


def _polyval(coeffs, z):
    """Horner's rule in z's dtype, updating one new array in place."""
    out = z * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= z
        out += c
    return out


def _erf(x):
    """The error function of a float32 or float64 array, in its dtype.

    float32 input, which every command-line run uses, takes the clamped
    rational above; float64 input, which the finite-difference tests use,
    takes ``math.erf`` per element.
    """
    if x.dtype == np.float32:
        x = np.clip(x, -4.0, 4.0)
        x2 = x * x
        out = _polyval(_ERF32_P, x2)
        out *= x
        out /= _polyval(_ERF32_Q, x2)
        return out
    return _erf64(x)


def _gelu_fwd(u):
    phi = _erf(u * (1.0 / _SQRT2))
    phi += 1.0
    phi *= 0.5
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


def _run_starts(runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``reduceat`` starts of ``_rel_runs``'s runs over the L² scores, and
    which runs are nonempty.  reduceat wants every start below L² and gives an
    empty run one cell, not 0: the starts are clipped and the empty runs are to
    be zeroed.  The clip is exact: at m >= 1 only the runs after the last row's
    diagonal bin, itself one cell, start at L²; at m = 0 none does."""
    ends = np.cumsum(runs)  # each row's runs sum to L, so the last end is L²
    return np.minimum(ends - runs, ends[-1] - 1), runs > 0


def _split_heads(x, heads):
    """(..., L, d) -> (..., heads, L, d / heads)."""
    return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-2, -3)


def _merge_heads(x):
    """(..., heads, L, dh) -> (..., L, heads * dh)."""
    return x.swapaxes(-2, -3).reshape(*x.shape[:-3], x.shape[-2], -1)


def _batch_rows(x):
    """(B, heads, L, k) -> (heads, B·L, k): each head's rows over the whole batch."""
    return x.swapaxes(0, 1).reshape(x.shape[1], -1, x.shape[3])


def _merge_rows(xh, rh):
    """The rows of xh (B, heads, L, dh), then of rh (heads, P, dh), heads merged:
    (B·L + P, heads * dh), in the row order of ``_attention_fwd``'s projections."""
    rows = np.concatenate([xh.swapaxes(1, 2).reshape(-1, *rh.shape[::2]), rh.swapaxes(0, 1)])
    return rows.reshape(len(rows), -1)


def _attn_params(params, layer, proj):
    pre = f"layer{layer}.attn.{proj}."
    return params[pre + "weight"], params[pre + "bias"], \
        params[pre + "lora_a"], params[pre + "lora_b"]


def _attention_fwd(h, params, layer, config: ModelConfig, runs, score_boost=None,
                   key_bias=None):
    """Disentangled self-attention over a batch h (B, L, d); one example is a
    batch of one.

    ``runs`` is ``_rel_runs(L, config.max_rel_distance)``; it depends on L
    alone, so one set serves every layer and every row of a padded batch.
    ``score_boost`` (B, L) multiplies each key's scores; ``key_bias`` (B, L)
    is added to them, -inf on a batch's padded keys.  The relative-position
    rows (P, d) are projected once and shared by every row of the batch.

    The cache holds the query rows already scaled by 1/sqrt(3 dh) and, in place
    of the probabilities, the unnormalized e = exp(s - rowmax) with 1/rowsum(e):
    the softmax is normalized on the (L, dh) context, not on the (L, L) scores.
    """
    nh, dh = config.heads, config.head_dim
    scale = config.lora_scale
    batch, seq_len, d = h.shape
    n = batch * seq_len  # rows over the whole batch
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
    # every score term holds one query row, content or relative: scaling the
    # (L + P) query rows by 1/sqrt(3 dh) scales the (L, L) scores
    q[:n] += bq
    q *= 1.0 / math.sqrt(3.0 * dh)
    q, qr = q[:n].reshape(h.shape), q[n:]
    k, kr = (k[:n] + bk).reshape(h.shape), k[n:]
    v = (v + bv).reshape(h.shape)

    qh, kh, vh = _split_heads(q, nh), _split_heads(k, nh), _split_heads(v, nh)
    qrh, krh = _split_heads(qr, nh), _split_heads(kr, nh)

    # s = c2c + c2p + p2c, already scaled; the relative terms are their bins
    # repeated along rows (c2p) or columns (p2c)
    s = qh @ kh.swapaxes(-1, -2)                                          # (B, nh, L, L)
    a_c2p = (qh @ krh.swapaxes(-1, -2)).reshape(batch, nh, -1)            # (B, nh, L·P)
    s += np.repeat(a_c2p, runs, axis=-1).reshape(s.shape)
    a_p2c = (qrh @ kh.swapaxes(-1, -2)).swapaxes(-1, -2).reshape(batch, nh, -1)
    s += np.repeat(a_p2c, runs, axis=-1).reshape(s.shape).swapaxes(-1, -2)
    if score_boost is not None:
        s *= score_boost[:, None, None, :]
    if key_bias is not None:
        s += key_bias[:, None, None, :]
    # softmax(s) @ v = (e @ v) / r with e = exp(s - rowmax), built in place in s,
    # and the row sums r = e @ ones a BLAS product
    s -= s.max(axis=-1, keepdims=True)
    e = np.exp(s, out=s)
    r_inv = 1.0 / (e @ np.ones(seq_len, e.dtype))                         # (B, nh, L)
    ctx = e @ vh
    ctx *= r_inv[..., None]
    ctx = _merge_heads(ctx).reshape(n, d)
    out, co = _lin_fwd(ctx, wo, ao, bbo, scale)
    out += bo

    return out.reshape(h.shape), (qh, kh, vh, qrh, krh, e, r_inv, cq, ck, cv, co)


def _attention_bwd(dout, cache, params, layer, config: ModelConfig, run_starts, score_boost):
    """(dh, the (lora_a, lora_b) gradients of q, k, v and o) of a batch: dout
    and dh are the B·L rows (B·L, d) of the forward's output and input, as the
    position-wise layers hold them, and the gradients sum over the batch.
    ``run_starts`` is ``_run_starts`` of the runs the forward took, and
    ``score_boost`` the boost it took."""
    nh, dh = config.heads, config.head_dim
    scale = config.lora_scale
    qh, kh, vh, qrh, krh, e, r_inv, cq, ck, cv, co = cache
    batch, _, seq_len, _ = qh.shape
    n = batch * seq_len

    wq, _, aq, bbq = _attn_params(params, layer, "q")
    wk, _, ak, bbk = _attn_params(params, layer, "k")
    wv, _, av, bbv = _attn_params(params, layer, "v")
    wo, _, ao, bbo = _attn_params(params, layer, "o")

    dctx2, dao, dbbo = _lin_bwd(dout, wo, ao, bbo, scale, co)

    # the softmax adjoint from e and r = 1 / r_inv, with prob = e / r:
    # ds = prob * (dctx vᵀ - D) = e * (g vᵀ - D / r), g = dctx / r, where
    # D = rowsum(dctx * ctx) per head, from the (B·L, d) context the o cache holds
    dd = (dctx2 * co[0]).reshape(batch, seq_len, nh, dh) @ np.ones(dh, e.dtype)
    dd = dd.swapaxes(-1, -2)                                              # (B, nh, L)
    dd *= r_inv
    g = dctx2.reshape(batch, seq_len, nh, dh).swapaxes(1, 2) * r_inv[..., None]
    ds = g @ vh.swapaxes(-1, -2)
    dvh = e.swapaxes(-1, -2) @ g
    ds -= dd[..., None]
    ds *= e
    if score_boost is not None:
        ds *= score_boost[:, None, None, :]

    # content-content
    dqh = ds @ kh
    dkh = ds.swapaxes(-1, -2) @ qh
    # the adjoint of the forward's repeat: each bin's gradient is the sum of its
    # run, over each (L, L) block of ds row-major for c2p and transposed for p2c
    starts, nonempty = run_starts
    da_c2p = np.add.reduceat(ds.reshape(batch * nh, -1), starts, axis=-1) * nonempty
    ds_t = np.ascontiguousarray(ds.swapaxes(-1, -2)).reshape(batch * nh, -1)
    da_p2c = np.add.reduceat(ds_t, starts, axis=-1) * nonempty
    da_c2p = da_c2p.reshape(batch, nh, seq_len, -1)   # (B, nh, L, P)
    da_p2c = da_p2c.reshape(batch, nh, seq_len, -1)   # (B, nh, L, P), bins of columns
    dqh += da_c2p @ krh
    dkh += da_p2c @ qrh
    # every row of the batch reads the same relative rows, so their gradients
    # contract over the rows of the whole batch
    dkrh = _batch_rows(da_c2p).swapaxes(-1, -2) @ _batch_rows(qh)        # (nh, P, dh)
    dqrh = _batch_rows(da_p2c).swapaxes(-1, -2) @ _batch_rows(kh)

    # the relative table is frozen: its rows feed only the LoRA gradients
    dq = _merge_rows(dqh, dqrh)
    dq *= 1.0 / math.sqrt(3.0 * dh)  # the forward's score scale, on the query rows
    dk = _merge_rows(dkh, dkrh)
    dh_q, daq, dbbq = _lin_bwd(dq, wq, aq, bbq, scale, cq)
    dh_k, dak, dbbk = _lin_bwd(dk, wk, ak, bbk, scale, ck)
    dh_v, dav, dbbv = _lin_bwd(_merge_heads(dvh).reshape(n, -1), wv, av, bbv, scale, cv)
    return (dh_q[:n] + dh_k[:n] + dh_v,
            ((daq, dbbq), (dak, dbbk), (dav, dbbv), (dao, dbbo)))


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
    """Run the full encoder stack on one example, token ids and boosts (L,),
    or on a padded batch (B, L); returns the final hidden states (L, d) or
    (B, L, d), and with ``return_caches`` the caches ``encoder_backward``
    reads: (flags, gate, runs, score_boost, layers), each layer's (attn, ln1,
    gate, gelu, ln2).  The attention cache holds the scaled query rows and the
    softmax as e = exp(s - rowmax) and 1/rowsum(e), with no normalized
    (B, heads, L, L) probabilities.  Every boost must be finite and >= 1, in
    every boost mode.

    Per layer: disentangled attention -> residual + LayerNorm -> concept gate
    (by gate/boost mode) -> FFN -> residual + LayerNorm.

    One example runs as a batch of one.  In a padded batch, row b holds its
    ``lengths[b]`` real tokens then padding (any in-range id, boost 1).
    Padded keys are masked out of every softmax, so a real row's states equal
    its own forward's up to float rounding; a padded position's states mean
    nothing.  ``lengths`` None means no padding.  The position-wise layers run
    on the B·L rows flattened.
    """
    cfg = model.config
    params = model.params
    token_ids = np.asarray(token_ids)
    boost = np.asarray(boost, dtype=params["embed.token_table"].dtype)
    if token_ids.ndim not in (1, 2) or boost.shape != token_ids.shape:
        raise ValueError(f"boost vector length does not match token count: "
                         f"boost {boost.shape}, ids {token_ids.shape}")
    if not (1.0 <= boost.min(initial=1.0) and boost.max(initial=1.0) < np.inf):  # NaN fails
        raise ValueError("boost values must be finite and >= 1.0")
    key_bias = _key_bias(lengths, token_ids.shape, boost.dtype)  # lengths need (B, L) ids
    out_shape = (*token_ids.shape, cfg.hidden)
    token_ids = token_ids.reshape(-1, token_ids.shape[-1])  # one example: a batch of one
    boost = boost.reshape(token_ids.shape)
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
    layers = []
    runs = _rel_runs(shape[1], cfg.max_rel_distance)

    for layer in range(cfg.layers):
        attn_out, attn_cache = _attention_fwd(h.reshape(shape), params, layer, cfg, runs,
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
            layers.append((attn_cache, ln1_cache, gate_cache, gelu_cache, ln2_cache))
    h = h.reshape(out_shape)
    if return_caches:
        return h, (flags, gate, runs, score_boost, layers)
    return h


def encoder_backward(model: EncoderModel, dh: np.ndarray, caches) -> dict[str, np.ndarray]:
    """Backpropagate dL/dh, shaped like ``encoder_forward``'s output, through the
    stack; returns grads for adaptable params, summed over a batch's rows: the
    gate's, each layer's LoRA pairs from the last layer down, the domain term's."""
    cfg = model.config
    params = model.params
    grads: dict[str, np.ndarray] = {}
    flags, gate, runs, score_boost, layers = caches
    flags = flags.reshape(-1)
    dh = dh.reshape(flags.size, -1)  # the position-wise layers' B·L rows
    run_starts = _run_starts(runs)  # L alone fixes them, so every layer shares them

    for layer in reversed(range(cfg.layers)):
        attn_cache, ln1_cache, gate_cache, gelu_cache, ln2_cache = layers[layer]
        dsum2 = _layernorm_bwd(dh, ln2_cache)
        dact = dsum2 @ params[f"layer{layer}.ffn.w2"].T
        du = _gelu_bwd(dact, gelu_cache)
        dgated = dsum2 + du @ params[f"layer{layer}.ffn.w1"].T
        if gate is not None:
            dh1, dw, db = gating.gate_backward(dgated, gate_cache, gate)
            if "gate.w" in grads:  # the shared gate's gradient sums over layers
                grads["gate.w"] += dw
                grads["gate.b"] += db
            else:
                grads["gate.w"], grads["gate.b"] = dw, db
        else:
            dh1 = dgated
        dsum1 = _layernorm_bwd(dh1, ln1_cache)
        dx, lora = _attention_bwd(dsum1, attn_cache, params, layer, cfg, run_starts,
                                  score_boost)
        dh = dsum1 + dx
        for proj, (da, dbb) in zip("qkvo", lora):
            grads[f"layer{layer}.attn.{proj}.lora_a"] = da
            grads[f"layer{layer}.attn.{proj}.lora_b"] = dbb

    dv = dh[flags].sum(axis=0)
    grads["embed.domain_projection"] = np.outer(dv, params["embed.domain_vector"])
    grads["embed.domain_vector"] = params["embed.domain_projection"].T @ dv
    return grads


# ---------------------------------------------------------------------------
# span heads, loss, prediction
# ---------------------------------------------------------------------------

def span_logits(model: EncoderModel, hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = model.params
    return hidden @ p["heads.start.weight"], hidden @ p["heads.end.weight"]


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
    """The summed cross-entropies of the start and end positions, and the
    gradients of the start and end logits."""
    ys, ye = gold
    n = len(start_logits)
    if not (0 <= ys < n and 0 <= ye < n and ys <= ye):
        raise ValueError(f"invalid gold span {gold} for length {n}")
    loss_start, dstart = _head_loss(start_logits, ys)
    loss_end, dend = _head_loss(end_logits, ye)
    return float(loss_start + loss_end), dstart, dend


def qa_loss_and_grads(model: EncoderModel, example: TokenizedExample,
                      into: np.ndarray | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for every adapted parameter, added into ``into``.

    ``into`` is laid out like ``model.params.flat``, with its shape and dtype
    (a new zero array when None); each gradient is added into its tensor's
    slice, so passing one array to each call sums a batch.  Returns the loss
    and every adapted tensor's name -> its view of ``into``.
    """
    if example.gold_span is None:
        raise ValueError("example has no gold span")
    p, flat = model.params, model.params.flat
    into = np.zeros_like(flat) if into is None else into
    if not isinstance(into, np.ndarray) or (into.shape, into.dtype) != (flat.shape, flat.dtype):
        raise ValueError(f"into must be a {flat.dtype} array of shape {flat.shape} like "
                         f"params.flat, got {getattr(into, 'dtype', type(into))} {np.shape(into)}")
    hidden, caches = encoder_forward(model, example.token_ids, example.boost,
                                     return_caches=True)
    start, end = span_logits(model, hidden)
    loss, dstart, dend = _span_loss_and_grads(start, end, example.gold_span)

    grads = dict(zip(p.layout.names, p.layout.views(into)))
    grads["heads.start.weight"] += hidden.T @ dstart
    grads["heads.end.weight"] += hidden.T @ dend
    dh = np.outer(dstart, p["heads.start.weight"]) + np.outer(dend, p["heads.end.weight"])
    for name, grad in encoder_backward(model, dh, caches).items():
        grads[name] += grad
    return loss, grads


def _band(padded: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The (rows, width) view of contiguous 1-D ``padded`` whose row s is
    ``padded[s:s + width]``; ``padded`` needs rows + width - 1 entries."""
    step = padded.strides[0]
    return np.ndarray((rows, width), padded.dtype, padded, strides=(step, step))


@dataclass(frozen=True)
class SpanPrediction:
    start: int
    end: int
    score: float


def predict_span(
    start_logits: np.ndarray,
    end_logits: np.ndarray,
    example: TokenizedExample,
    max_answer_len: int,
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
    if not in_context.any():  # the band's k = 0 column is in_context itself
        raise ValueError("no candidate span")
    # strided views, not sliding_window_view: its checks cost a third of a decode
    tail = np.zeros(max_answer_len - 1, dtype=end_logits.dtype)  # np.pad: 10x slower
    ends = _band(np.concatenate([end_logits, tail]), n, max_answer_len)
    context_band = _band(np.concatenate([in_context, tail.astype(bool)]), n, max_answer_len)
    masked = np.where(in_context[:, None] & context_band, start_logits[:, None] + ends, -np.inf)
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
    shapes = parameter_shapes(config)
    names = sorted(shapes)  # the body's order
    ends = np.cumsum([math.prod(shapes[name]) for name in names])
    if 4 * ends[-1] != len(body):
        raise ValueError(f"{path}: the body has {len(body)} bytes, the config's "
                         f"tensors take {4 * ends[-1]}")
    values = np.frombuffer(body, dtype="<f4")
    finite = np.isfinite(values)
    if not finite.all():
        name = names[int(np.searchsorted(ends, np.argmin(finite), side="right"))]
        raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
    parts = dict(zip(names, np.split(values.copy(), ends[:-1])))
    # in build_model's order, so a loaded model has a built one's layout
    params = {name: parts[name].reshape(shape) for name, shape in shapes.items()}
    return EncoderModel(config=config, params=params, seed=header["seed"],
                        dictionary_version=header["dictionary_version"])

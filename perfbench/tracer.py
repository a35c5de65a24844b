"""Outside-in span tracer for the conceptqa layers, and the per-layer metrics.

The tracer wraps every public function defined in a layer module and
rebinds the wrapper in every ``conceptqa`` namespace that holds the same
function object, so calls through a by-name import (``evaluation`` imports
``encoder_forward``; the package re-exports most of ``model``) are caught as
well as calls through the module attribute.  Spans stay in memory as
``[name, start_ns, end_ns, parent_index, size]`` lists until the next
install.  Nothing inside the program is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

PACKAGE = "conceptqa"
LAYERS = ("cli", "data", "tokenizer", "model", "gating", "training",
          "evaluation", "metrics")

# Percentile ladder for tail latency: the highest rung with at least ten
# samples beyond it is reported.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _encoder_size(args, kwargs) -> tuple[int, int]:
    """(L, layers x heads) of an ``encoder_forward`` call."""
    model = args[0] if args else kwargs["model"]
    ids = args[1] if len(args) > 1 else kwargs["token_ids"]
    return (len(ids), model.config.layers * model.config.heads)


class Tracer:
    """Install with ``with tracer:``; spans of the block are in ``tracer.spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.n_bindings = 0  # namespace bindings patched by the last install
        self._wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size_hook = _encoder_size if name == "model.encoder_forward" else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            size = size_hook(args, kwargs) if size_hook else None
            spans.append([name, clock(), 0, stack[-1] if stack else -1, size])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def __enter__(self) -> "Tracer":
        self.spans.clear()
        self._stack.clear()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, obj))
        self.n_bindings = len(self._patches)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans
# ---------------------------------------------------------------------------

def tail(values_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder rung with >= 10 samples beyond it."""
    n = len(values_ms)
    rung = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            rung = p
    return rung, float(np.percentile(values_ms, rung)) if n else 0.0


class SpanIndex:
    """Totals over one pass's spans: calls, inclusive and self seconds."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self.self_ns = [s[2] - s[1] - c for s, c in zip(spans, child)]
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self.by_name.get(name, ())) / 1e9

    def self_s(self, name: str) -> float:
        return sum(self.self_ns[i] for i in self.by_name.get(name, ())) / 1e9

    def durations_ms(self, name: str) -> list[float]:
        return [(self.spans[i][2] - self.spans[i][1]) / 1e6
                for i in self.by_name.get(name, ())]

    def ancestors(self, i: int):
        p = self.spans[i][3]
        while p >= 0:
            yield self.spans[p][0]
            p = self.spans[p][3]

    def under(self, name: str, ancestor: str, not_under: str | None = None) -> list[int]:
        out = []
        for i in self.by_name.get(name, ()):
            names = set(self.ancestors(i))
            if ancestor in names and (not_under is None or not_under not in names):
                out.append(i)
        return out

    def top_self(self, k: int = 8) -> list[tuple[str, float]]:
        totals = {name: self.self_s(name) for name in self.by_name}
        return sorted(totals.items(), key=lambda kv: -kv[1])[:k]

    def tree(self, root: str, depth: int = 2) -> list[tuple[int, str, float]]:
        """Call tree below ``root`` merged by call path, to ``depth`` levels:
        (level, name, inclusive seconds), largest first among siblings."""
        totals: dict[tuple[str, ...], float] = {}
        for i, s in enumerate(self.spans):
            path = [s[0], *self.ancestors(i)][::-1]
            if root in path and len(path) - path.index(root) <= depth + 1:
                key = tuple(path[path.index(root):])
                totals[key] = totals.get(key, 0.0) + (s[2] - s[1]) / 1e9

        def walk(prefix):
            kids = sorted((k for k in totals if k[:-1] == prefix), key=lambda k: -totals[k])
            for k in kids:
                yield len(k) - 1, k[-1], totals[k]
                yield from walk(k)

        return list(walk((root,)))


def layer_metrics(idx: SpanIndex, n_test: int) -> tuple[dict[str, float], dict[str, str]]:
    """The per-layer metrics of one pass, plus notes naming the tail rungs."""
    m: dict[str, float] = {}
    notes: dict[str, str] = {}
    for cmd in ("cmd_train", "cmd_eval", "cmd_predict"):
        m[f"cli.{cmd}.self_s"] = idx.self_s(f"cli.{cmd}")
    for name in ("data.encode_dataset", "data.load_dataset", "tokenizer.train_vocab",
                 "tokenizer.encode_qa", "tokenizer.build_boost_vector",
                 "model.load_checkpoint", "model.save_checkpoint",
                 "evaluation.predict_all", "evaluation.measure_forward_latency",
                 "metrics.embed_score"):
        m[f"{name}.s"] = idx.total_s(name)
    m["tokenizer.encode_qa.calls"] = idx.calls("tokenizer.encode_qa")

    fwd = "model.encoder_forward"
    sizes = [idx.spans[i][4] for i in idx.by_name.get(fwd, ())]
    m[f"{fwd}.calls"] = len(sizes)
    m[f"{fwd}.tokens"] = sum(L for L, _ in sizes)
    m[f"{fwd}.attn_cells"] = sum(lh * L * L for L, lh in sizes)
    for name in (fwd, "model.encoder_backward"):
        m[f"{name}.self_s"] = idx.self_s(name)
        durations = idx.durations_ms(name)
        m[f"{name}.ms_p50"] = statistics.median(durations) if durations else 0.0
        rung, value = tail(durations)
        m[f"{name}.ms_tail"] = value
        notes[f"{name}.ms_tail"] = f"p{rung:g} of {len(durations)} calls"
    m["model.encoder_backward.calls"] = idx.calls("model.encoder_backward")
    m["model.qa_loss_and_grads.self_s"] = idx.self_s("model.qa_loss_and_grads")
    m["model.predict_span.calls"] = idx.calls("model.predict_span")
    m["model.predict_span.self_s"] = idx.self_s("model.predict_span")

    for name in ("gating.gate_forward", "gating.gate_backward"):
        m[f"{name}.calls"] = idx.calls(name)
        m[f"{name}.self_s"] = idx.self_s(name)

    m["training.train_two_stage.self_s"] = idx.self_s("training.train_two_stage")
    m["training.optimizer_step.calls"] = idx.calls("training.optimizer_step")
    m["training.optimizer_step.self_s"] = idx.self_s("training.optimizer_step")
    val = idx.under("model.qa_forward", "training.train_two_stage",
                    not_under="model.qa_loss_and_grads")
    m["training.validation_forwards"] = len(val)
    m["training.validation_s"] = sum(idx.spans[i][2] - idx.spans[i][1] for i in val) / 1e9

    m["evaluation.evaluate.self_s"] = idx.self_s("evaluation.evaluate")
    m["evaluation.forwards_per_example"] = len(idx.under(fwd, "cli.cmd_eval")) / n_test
    m["metrics.embed_forwards"] = len(idx.under(fwd, "metrics.embed_score"))
    m["metrics.text_s"] = sum(idx.total_s(f"metrics.{n}")
                              for n in ("token_f1", "bleu", "rouge_l"))
    return m, notes

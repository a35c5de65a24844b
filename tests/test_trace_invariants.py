"""The call-count invariants the benchmark's traced mode checks.

``perfbench/run.py --trace 1`` fails a pass unless, over the pass, training
calls ``qa_loss_and_grads`` once per example per step and every
``encoder_forward`` call (one example or a padded batch) calls
``gating.gate_forward`` once per layer.  These tests pin both with counters.
"""

import itertools

import numpy as np

from conceptqa import evaluation, gating, training
from conceptqa import model as M


def _counting(calls: list, fn):
    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapped


def test_one_loss_and_grads_call_per_example_per_step(memorized, monkeypatch):
    model, encoded, _, _ = memorized
    model = M.EncoderModel(config=model.config,
                           params={k: v.copy() for k, v in model.params.items()},
                           seed=model.seed)
    cfg = training.TrainConfig(learning_rate=1e-3, warmup_steps=1, effective_batch=3, seed=5)
    calls = []
    monkeypatch.setattr(M, "qa_loss_and_grads", _counting(calls, M.qa_loss_and_grads))
    training.train_epochs_simple(model, encoded, cfg, max_steps=7)
    usable = [enc for enc in encoded if enc.example.gold_span is not None]
    steps = itertools.islice(training._steps(usable, cfg, 7), 7)
    expect = [id(enc.example) for _, _, batch in steps for enc in batch]
    assert [id(args[1]) for args in calls] == expect


def test_gate_forward_calls_are_layers_times_encoder_forward_calls(memorized, monkeypatch):
    model, encoded, vocab, dictionary = memorized
    forwards, gates = [], []
    forward = _counting(forwards, M.encoder_forward)
    monkeypatch.setattr(M, "encoder_forward", forward)
    monkeypatch.setattr(evaluation, "encoder_forward", forward)
    monkeypatch.setattr(gating, "gate_forward", _counting(gates, gating.gate_forward))
    evaluation.evaluate(model, encoded, vocab=vocab, dictionary=dictionary)
    assert any(np.ndim(args[1]) == 2 for args in forwards)  # batched calls among them
    assert len(gates) == model.config.layers * len(forwards)

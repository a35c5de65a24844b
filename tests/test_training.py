import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conceptqa import model as model_mod
from conceptqa.data import encode_dataset
from conceptqa.dictionary import builtin_dictionary
from conceptqa.synthetic import generate_records
from conceptqa.tokenizer import align_answer_span, encode_qa
from conceptqa.training import (
    StageConfig,
    SynonymTable,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    augment_synonym,
    default_stages,
    init_optimizer_state,
    lr_schedule,
    optimizer_step,
    train_epochs_simple,
    train_two_stage,
)


class TestLrSchedule:
    def test_warmup_endpoints(self):
        cfg = TrainConfig(warmup_steps=500)
        assert lr_schedule(0, cfg, 10_000) == 0.0
        assert lr_schedule(500, cfg, 10_000) == pytest.approx(2e-5)

    def test_linear_decay_midpoint(self):
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=100)
        total = 1100
        # halfway through the decay window
        assert lr_schedule(600, cfg, total) == pytest.approx(5e-4)
        assert lr_schedule(total, cfg, total) == 0.0

    def test_warmup_is_linear(self):
        cfg = TrainConfig(learning_rate=4e-4, warmup_steps=200)
        assert lr_schedule(50, cfg, 1000) == pytest.approx(1e-4)

    def test_underflow(self):
        cfg = TrainConfig(warmup_steps=500)
        with pytest.raises(ValueError, match="schedule underflow"):
            lr_schedule(0, cfg, 400)

    def test_step_bounds(self):
        cfg = TrainConfig(warmup_steps=10)
        with pytest.raises(ValueError):
            lr_schedule(-1, cfg, 100)
        with pytest.raises(ValueError):
            lr_schedule(101, cfg, 100)


# the optimizer updates the adapted tensors of a ParamTable; W and Q are two of them
W, Q = "heads.start.weight", "layer0.attn.q.lora_a"


def _table(values) -> model_mod.ParamTable:
    return model_mod.ParamTable({W: np.array(values)})


def _reference_adamw(params, grads, state, cfg, lr):
    """AdamW tensor by tensor, each tensor's moments made with its first
    gradient: the per-name optimizer the flat one replaced."""
    state["step"] += 1
    t = state["step"]
    bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    for name, g in grads.items():
        p = params[name]
        if name not in state["m"]:
            state["m"][name], state["v"][name] = np.zeros_like(p), np.zeros_like(p)
        m, v = state["m"][name], state["v"][name]
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
        p -= lr * (update + cfg.weight_decay * p)


class TestOptimizerStep:
    def test_zero_grads_zero_decay_is_fixed_point(self):
        cfg = TrainConfig(weight_decay=0.0)
        params = _table([1.0, -2.0, 3.0])
        before = params[W].copy()
        state = init_optimizer_state(params)
        optimizer_step(params, {W: np.zeros(3)}, state, cfg, lr=1e-3)
        np.testing.assert_array_equal(params[W], before)

    def test_decoupled_decay_shrinks_params(self):
        cfg = TrainConfig(weight_decay=0.01)
        params = _table([1.0, -2.0])
        state = init_optimizer_state(params)
        optimizer_step(params, {W: np.zeros(2)}, state, cfg, lr=1e-3)
        np.testing.assert_allclose(params[W],
                                   np.array([1.0, -2.0]) * (1 - 1e-3 * 0.01), rtol=1e-12)

    def test_ten_step_scalar_trajectory_matches_hand_oracle(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
        params = _table([0.5])
        state = init_optimizer_state(params)
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(10)

        # independent scalar AdamW
        p, m, v = 0.5, 0.0, 0.0
        b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 0.1, 0.01
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p)
            optimizer_step(params, {W: np.array([g])}, state, cfg, lr=lr)
            assert params[W][0] == pytest.approx(p, abs=1e-14)

    def test_nan_gradient_aborts(self):
        cfg = TrainConfig()
        params = _table([1.0, 1.0])
        state = init_optimizer_state(params)
        before = params[W].copy()
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            optimizer_step(params, {W: np.array([1.0, np.nan])}, state, cfg, lr=1e-3)
        np.testing.assert_array_equal(params[W], before)

    def test_moments_are_made_once_per_tensor(self, monkeypatch):
        # the moments are two flat arrays, the size of the adapted-parameter
        # array, made with the first step and then updated in place; no step
        # makes a zero array per tensor or one it drops
        rng = np.random.default_rng(1)
        params = model_mod.ParamTable({"layer0.attn.q.lora_a": rng.standard_normal((2, 2)),
                                       W: rng.standard_normal(3)})
        grads = [{k: rng.standard_normal(v.shape) for k, v in params.items()}
                 for _ in range(3)]
        made = []
        zeros_like = np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda a: made.append(a.shape) or zeros_like(a))
        state = init_optimizer_state({})
        optimizer_step(params, grads[0], state, TrainConfig(), lr=1e-3)
        first = state["m"], state["v"]
        for g in grads[1:]:
            optimizer_step(params, g, state, TrainConfig(), lr=1e-3)
        assert made == [(7,), (7,)]
        assert state["m"] is first[0] and state["v"] is first[1]
        assert params.flat.shape == (7,) and state["step"] == 3

    def test_unknown_param(self):
        with pytest.raises(KeyError):
            optimizer_step(_table([1.0]), {"q": np.ones(1)},
                           init_optimizer_state({}), TrainConfig(), lr=1e-3)

    def test_frozen_param_is_unknown(self):
        params = model_mod.ParamTable({W: np.ones(1), "embed.token_table": np.ones((2, 1))})
        with pytest.raises(KeyError, match="gradient for unknown parameter 'embed.token_table'"):
            optimizer_step(params, {W: np.ones(1), "embed.token_table": np.ones((2, 1))},
                           init_optimizer_state({}), TrainConfig(), lr=1e-3)

    def test_a_group_needs_all_its_gradients(self):
        params = model_mod.ParamTable({W: np.ones(1), "heads.end.weight": np.ones(1)})
        with pytest.raises(ValueError, match="no gradient for 'heads.end.weight'"):
            optimizer_step(params, {W: np.ones(1)}, init_optimizer_state({}), TrainConfig(),
                           lr=1e-3)

    @pytest.mark.parametrize("wrong, message", [
        ({W: (2, 2)}, "'heads.start.weight' has shape (2, 2), its tensor (4,)"),
        ({Q: (2, 4)}, "'layer0.attn.q.lora_a' has shape (2, 4), its tensor (4, 2)"),
        ({W: (3,), Q: (9,)}, "'layer0.attn.q.lora_a' has shape (9,), its tensor (4, 2)"),
    ], ids=["same size", "transposed", "sizes that cancel"])
    def test_a_gradient_of_another_shape_is_refused(self, wrong, message):
        # the dict is laid out by concatenation, so a wrong shape would shift or
        # reshape gradients silently; it is refused before anything moves
        params = model_mod.ParamTable({Q: np.ones((4, 2)), W: np.ones(4)})
        grads = {name: np.ones(wrong.get(name, value.shape)) for name, value in params.items()}
        state = init_optimizer_state(params)
        with pytest.raises(ValueError, match=f"^gradient for {re.escape(message)}$"):
            optimizer_step(params, grads, state, TrainConfig(), lr=1e-3)
        assert params.flat.tolist() == [1.0] * 12 and state["step"] == 0

    def test_flat_adamw_matches_the_per_name_reference_bit_for_bit(self):
        # 120 steps of stage one's groups, then 100 of all four, on a float32
        # model: every tensor, and every moment the reference made, is
        # bit-identical; untrained groups keep their values and zero moments
        cfg = model_mod.ModelConfig(layers=2, hidden=16, heads=2, vocab_size=40, lora_rank=2)
        model = model_mod.build_model(cfg, seed=3)
        params = model.params
        reference = {k: v.copy() for k, v in params.items()}
        before = {k: v.copy() for k, v in params.items()}
        tcfg = TrainConfig(weight_decay=0.01)
        state, ref_state = init_optimizer_state(params), {"step": 0, "m": {}, "v": {}}
        rng = np.random.default_rng(4)
        layout = params.layout

        def run(groups, steps):
            names = [k for k in layout.names if model_mod.param_group(k) in groups]
            for _ in range(steps):
                grads = {k: (rng.standard_normal(params[k].shape) * 0.1).astype(np.float32)
                         for k in names}
                lr = float(rng.uniform(1e-4, 1e-2))
                # a gradient dict names every adapted tensor; groups picks the trained ones
                every = {k: grads.get(k, np.zeros_like(params[k])) for k in layout.names}
                optimizer_step(params, every, state, tcfg, lr=lr, groups=groups)
                _reference_adamw(reference, grads, ref_state, tcfg, lr)

        run(("lora", "heads"), 120)
        m, v = dict(zip(layout.names, layout.views(state["m"]))), \
            dict(zip(layout.names, layout.views(state["v"])))
        for k in layout.names:
            if model_mod.param_group(k) in ("gates", "embed_domain"):
                assert params[k].tobytes() == before[k].tobytes(), k
                assert not m[k].any() and not v[k].any(), k
                assert k not in ref_state["m"]
        run(model_mod.ADAPTABLE_GROUPS, 100)
        assert state["step"] == ref_state["step"] == 220
        for k, value in reference.items():
            assert params[k].dtype == value.dtype == np.float32
            assert params[k].tobytes() == value.tobytes(), k
        for k in layout.names:
            assert m[k].tobytes() == ref_state["m"][k].tobytes(), k
            assert v[k].tobytes() == ref_state["v"][k].tobytes(), k

    def test_a_non_finite_gradient_names_its_tensor(self):
        # the first non-finite value in layout order names the tensor; nothing moves
        cfg = model_mod.ModelConfig(layers=2, hidden=8, heads=2, vocab_size=20, lora_rank=2)
        params = model_mod.build_model(cfg, seed=0).params
        grads = {k: np.zeros_like(params[k]) for k in params.layout.names}
        grads["embed.domain_vector"][1] = np.nan
        grads["layer1.attn.v.lora_b"][0, 1] = np.inf
        before = params.flat.copy()
        state = init_optimizer_state(params)
        with pytest.raises(FloatingPointError,
                           match=r"^non-finite gradient for 'layer1\.attn\.v\.lora_b'; "
                                 r"step aborted$"):
            optimizer_step(params, grads, state, TrainConfig(), lr=1e-3)
        assert params.flat.tobytes() == before.tobytes()
        assert state["step"] == 0 and state["m"] is None

    def test_a_rebound_entry_is_refused(self):
        # the table refuses the store; the step then updates the entry it kept
        params = model_mod.ParamTable({W: np.ones(2), "heads.end.weight": np.ones(2)})
        replaced = np.full(2, 5.0)
        before = params.flat.copy()
        with pytest.raises(TypeError, match=r"^params\['heads\.start\.weight'\] cannot be "
                                            r"rebound; write into it in place$"):
            params[W] = replaced
        assert params[W].base is params.flat and params.flat.tobytes() == before.tobytes()
        optimizer_step(params, {W: np.ones(2), "heads.end.weight": np.ones(2)},
                       init_optimizer_state({}), TrainConfig(), lr=1e-3)
        assert replaced.tolist() == [5.0, 5.0]
        assert (params[W] < 1.0).all() and params[W].base is params.flat

    def test_params_must_be_a_table(self):
        with pytest.raises(TypeError, match="params must be a ParamTable"):
            optimizer_step({W: np.ones(1)}, {W: np.ones(1)}, init_optimizer_state({}),
                           TrainConfig(), lr=1e-3)


class TestAugmentSynonym:
    RECORD = {
        "id": "r1",
        "question": "what was spoken of",
        "context": "the students wrote quietly . salim spoke of patience with conviction .",
        "answer_text": "patience",
        "answer_char_start": 44,
    }

    def test_record_offset_is_valid(self):
        ctx = self.RECORD["context"]
        s = self.RECORD["answer_char_start"]
        assert ctx[s:s + len("patience")] == "patience"

    def test_empty_table_is_identity(self, builtin_dict):
        out = augment_synonym(self.RECORD, SynonymTable({}), builtin_dict, 1.0, seed=0)
        assert out == self.RECORD

    def test_concept_terms_never_replaced(self):
        record = dict(self.RECORD)
        record["context"] = "prophet spoke of patience with conviction ."
        record["answer_char_start"] = record["context"].index("patience")
        # a hostile table that targets a concept term is rejected outright
        table = SynonymTable({"prophet": ["teacher"]})
        with pytest.raises(ValueError, match="concept term"):
            table.validate_against(builtin_dictionary())
        # and even unvalidated, the augmenter skips dictionary members
        out = augment_synonym(record, table, builtin_dictionary(), 1.0, seed=0)
        assert "prophet" in out["context"]

    def test_answer_words_never_replaced(self, builtin_dict):
        table = SynonymTable({"patience": ["endurance"]})
        out = augment_synonym(self.RECORD, table, builtin_dict, 1.0, seed=0)
        s = out["answer_char_start"]
        assert out["context"][s:s + len("patience")] == "patience"

    def test_offsets_recomputed_after_earlier_edit(self, builtin_dict):
        table = SynonymTable({"students": ["apprentices"]})  # 3 chars longer
        out = augment_synonym(self.RECORD, table, builtin_dict, 1.0, seed=0)
        assert out["answer_char_start"] == self.RECORD["answer_char_start"] + 3
        s = out["answer_char_start"]
        assert out["context"][s:s + len("patience")] == "patience"

    def test_replacement_rate_binomial_bound(self, builtin_dict):
        words = " ".join(f"pad{i}" for i in range(1000))
        record = {
            "id": "r2", "question": "q",
            "context": f"{words} salim spoke of mercy",
            "answer_text": "mercy", "answer_char_start": None,
        }
        record["answer_char_start"] = record["context"].index("mercy")
        table = SynonymTable({f"pad{i}": [f"swap{i}"] for i in range(1000)})
        out = augment_synonym(record, table, builtin_dict, rate=0.5, seed=123)
        replaced = sum(1 for w in out["context"].split() if w.startswith("swap"))
        assert 450 <= replaced <= 550

    def test_augmented_records_stay_alignable(self, builtin_dict, tiny_vocab, synonym_table):
        table = SynonymTable(synonym_table)
        fixture = generate_records(12, seed=31, target_context_words=40)
        for i, rec in enumerate(fixture.records):
            out = augment_synonym(rec.to_dict(), table, builtin_dict, 0.7, seed=i)
            ex = encode_qa(out["question"], out["context"], tiny_vocab)
            span = align_answer_span(out["context"], out["answer_text"],
                                     out["answer_char_start"], ex)
            assert span is not None

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_synonym_file_loads_or_raises_value_error(self, synonym_table,
                                                              mutate_json, data):
        payload = json.loads(json.dumps(synonym_table))
        for _ in range(data.draw(st.integers(1, 3))):
            payload = mutate_json(data, payload)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "synonyms.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            try:
                table = SynonymTable.load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
            else:
                assert all(type(alt) is str for alts in table.table.values() for alt in alts)

    def test_keys_that_normalize_alike_are_rejected(self):
        with pytest.raises(ValueError, match="^synonym keys 'Gathering' and 'gathering' "
                                             "both normalize to 'gathering'$"):
            SynonymTable({"Gathering": ["assembly"], "gathering": ["meeting"]})

    def test_rate_validated(self, builtin_dict):
        with pytest.raises(ValueError, match="rate"):
            augment_synonym(self.RECORD, SynonymTable({}), builtin_dict, 1.5, 0)


@pytest.fixture(scope="module")
def training_setup():
    from conceptqa import synthetic, tokenizer as tok
    fixture = generate_records(20, seed=41)
    vocab = tok.train_vocab(synthetic.corpus_texts(fixture), 256)
    dictionary = builtin_dictionary()
    encoded, _ = encode_dataset(fixture.records, vocab, dictionary)
    return encoded[:16], encoded[16:], vocab


class TestTrainTwoStage:
    def _model(self, vocab, seed=0):
        cfg = model_mod.ModelConfig(layers=1, hidden=16, heads=2, vocab_size=len(vocab),
                                    lora_rank=2)
        return model_mod.build_model(cfg, seed=seed)

    def test_patience_stops_after_three_flat_evals(self, training_setup):
        train, val, vocab = training_setup
        model = self._model(vocab)
        # a vanishing learning rate freezes validation EM, so the first eval
        # sets the best and the next three exhaust the patience budget
        cfg = TrainConfig(learning_rate=1e-12, warmup_steps=1, patience=3, seed=0)
        stages = [StageConfig("adaptation", 10, False, ("lora", "heads"))]
        _, history = train_two_stage(model, train, val, cfg, stages, vocab=vocab)
        assert len(history.records) == 4
        assert history.best_step == history.records[0]["step"]

    def test_stage_one_leaves_gates_bitwise_at_init(self, training_setup):
        # the domain term too: stage one trains the lora and heads groups only
        train, val, vocab = training_setup
        model = self._model(vocab)
        kept = ("gate.w", "gate.b", "embed.domain_projection", "embed.domain_vector")
        before = {k: model.params[k].copy() for k in kept}
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=1, patience=2, seed=0)
        stages = [StageConfig("adaptation", 2, False, ("lora", "heads"))]
        model, _ = train_two_stage(model, train, val, cfg, stages, vocab=vocab)
        for k in kept:
            assert model.params[k].tobytes() == before[k].tobytes(), k

    def test_a_step_moves_only_its_groups_and_their_moments(self, training_setup):
        # every adapted gradient reaches the step, the gate's and the domain
        # term's nonzero, but only the lora and heads stretches and moments move
        from conceptqa import training
        train, _, vocab = training_setup
        model = self._model(vocab)
        _, grads = model_mod.qa_loss_and_grads(model, train[0].example)
        assert all(grads[k].any() for k in ("gate.w", "embed.domain_vector"))
        before = model.params.flat.copy()
        state = init_optimizer_state({})
        training._train_step(model, 1, 1e-3, train[:4], TrainConfig(), state, ("lora", "heads"))
        layout, flat = model.params.layout, model.params.flat
        for group in model_mod.ADAPTABLE_GROUPS:
            parts = layout.select((group,))
            moved = any(flat[part].tobytes() != before[part].tobytes() for part in parts)
            moments = any(state[k][part].any() for k in "mv" for part in parts)
            assert moved == moments == (group in ("lora", "heads")), group

    def test_stage_one_ignores_the_boost(self, training_setup, models_equal):
        # the boost-off stage is the no_icd model: all-ones boosts train it identically
        train, val, vocab = training_setup
        flat = [dataclasses.replace(enc, example=dataclasses.replace(
            enc.example, boost=np.ones(len(enc.example)))) for enc in train]
        assert any((enc.example.boost != 1.0).any() for enc in train)
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=1, patience=2, seed=0)
        stages = [StageConfig("adaptation", 2, False, ("lora", "heads"))]
        m1, h1 = train_two_stage(self._model(vocab), train, val, cfg, stages, vocab=vocab)
        m2, h2 = train_two_stage(self._model(vocab), flat, val, cfg, stages, vocab=vocab)
        assert h1.records == h2.records
        assert models_equal(m1, m2)

    def test_full_determinism(self, training_setup, models_equal):
        train, val, vocab = training_setup
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=2, patience=3, seed=7)
        stages = [StageConfig("adaptation", 2, False, ("lora", "heads")),
                  StageConfig("specialization", 2, True,
                              ("lora", "gates", "heads", "embed_domain"))]
        m1, h1 = train_two_stage(self._model(vocab, 7), train, val, cfg, stages,
                                 vocab=vocab)
        m2, h2 = train_two_stage(self._model(vocab, 7), train, val, cfg, stages,
                                 vocab=vocab)
        assert h1.records == h2.records
        assert models_equal(m1, m2)

    def test_best_checkpoint_dominates_history(self, training_setup):
        train, val, vocab = training_setup
        cfg = TrainConfig(learning_rate=5e-3, warmup_steps=2, patience=2, seed=0)
        stages = [dataclasses.replace(s, epochs=2) for s in default_stages()]
        _, history = train_two_stage(self._model(vocab), train, val, cfg, stages,
                                     vocab=vocab)
        assert history.best_em == max(r["em"] for r in history.records)

    def test_loss_decreases_under_training(self, training_setup):
        train, val, vocab = training_setup
        cfg = TrainConfig(learning_rate=5e-3, warmup_steps=2, patience=10, seed=0)
        stages = [StageConfig("adaptation", 4, False, ("lora", "heads"))]
        _, history = train_two_stage(self._model(vocab), train, val, cfg, stages,
                                     vocab=vocab)
        assert history.records[-1]["loss"] < history.records[0]["loss"]

    def test_empty_split_rejected(self, training_setup):
        train, val, vocab = training_setup
        with pytest.raises(ValueError, match="empty split"):
            train_two_stage(self._model(vocab), [], val, TrainConfig(), default_stages(),
                            vocab=vocab)

    def test_stage_config_validation(self):
        with pytest.raises(ValueError):
            StageConfig("adaptation", 5, True, ("lora",))
        with pytest.raises(ValueError):
            StageConfig("specialization", 5, False, ("lora",))
        with pytest.raises(ValueError, match="unknown trainable group"):
            StageConfig("adaptation", 5, False, ("bogus",))
        with pytest.raises(ValueError, match="^trainable must name at least one group, got none$"):
            StageConfig("adaptation", 5, False, ())

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs must be >= 0, got -3"):
            StageConfig("adaptation", -3, False, ("lora",))
        assert StageConfig("adaptation", 0, False, ("lora",)).epochs == 0

    def test_step_averages_the_batch_gradients_in_order(self, training_setup, monkeypatch):
        # the step hands the optimizer one flat array in the parameter layout
        # whose every tensor is ((g1 + g2) + g3) / 3, bit for bit
        from conceptqa import training
        train, _, vocab = training_setup
        model = self._model(vocab)
        batch = train[:3]
        per_example = [model_mod.qa_loss_and_grads(model, enc.example) for enc in batch]
        expected = {}
        for k in per_example[0][1]:
            total = per_example[0][1][k]
            for _, grads in per_example[1:]:
                total = total + grads[k]
            expected[k] = total / len(batch)
        seen = []
        monkeypatch.setattr(training, "optimizer_step",
                            lambda params, grads, *args, **kwargs: seen.append((grads, kwargs)))
        losses = training._train_step(model, 1, 1e-3, batch, TrainConfig(),
                                      init_optimizer_state({}), model_mod.ADAPTABLE_GROUPS)
        assert losses == [loss for loss, _ in per_example]
        [(flat, kwargs)] = seen
        assert kwargs["groups"] == model_mod.ADAPTABLE_GROUPS
        layout = model.params.layout
        assert flat.shape == model.params.flat.shape
        assert set(layout.names) == expected.keys()
        for k, value in zip(layout.names, layout.views(flat)):
            assert value.dtype == expected[k].dtype
            assert value.tobytes() == expected[k].tobytes(), k

    def test_a_hand_built_model_trains_like_a_built_one(self, training_setup):
        # separate arrays are laid out by the training entry point and train to
        # the same bytes; the caller's arrays are copied, not trained
        train, _, vocab = training_setup
        built = self._model(vocab, seed=2)
        separate = {k: v.copy() for k, v in built.params.items()}
        hand = model_mod.EncoderModel(config=built.config, params=separate, seed=2)
        cfg = TrainConfig(learning_rate=5e-3, warmup_steps=2, seed=1)
        train_epochs_simple(built, train, cfg, max_steps=6)
        train_epochs_simple(hand, train, cfg, max_steps=6)
        assert isinstance(hand.params, model_mod.ParamTable) and hand.params is not separate
        assert hand.params.flat.tobytes() == built.params.flat.tobytes()
        assert all(hand.params[k].tobytes() == built.params[k].tobytes() for k in built.params)
        assert separate["heads.start.weight"].tobytes() != built.params["heads.start.weight"].tobytes()

    def test_a_non_finite_gradient_names_its_tensor_and_step(self, training_setup, monkeypatch):
        train, _, vocab = training_setup
        real = model_mod.qa_loss_and_grads
        calls = []

        def poisoned(model, example, **kwargs):
            calls.append(1)
            loss, grads = real(model, example, **kwargs)
            if len(calls) == 10:  # step 3, second example
                grads["layer0.attn.o.lora_a"][1, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(model_mod, "qa_loss_and_grads", poisoned)
        cfg = TrainConfig(learning_rate=5e-3, warmup_steps=2, seed=0)
        with pytest.raises(FloatingPointError, match=r"^non-finite gradient for "
                                                     r"'layer0\.attn\.o\.lora_a'; step aborted "
                                                     r"at step 3$"):
            train_epochs_simple(self._model(vocab), train, cfg, max_steps=5)

    def test_divergence_restores_the_best_parameters_in_place(self, training_setup,
                                                              monkeypatch):
        # 16 examples in steps of 4: step 4 ends the first epoch and is the best
        # so far, step 5 moves the parameters, step 6 gets a NaN gradient
        train, val, vocab = training_setup
        model = self._model(vocab)
        table = model.params
        real = model_mod.qa_loss_and_grads
        calls, best = [], {}

        def poisoned(model, example, **kwargs):
            calls.append(1)
            if len(calls) == 17:
                best.update({k: v.copy() for k, v in model.params.items()})
            loss, grads = real(model, example, **kwargs)
            if len(calls) == 21:
                grads["heads.end.weight"][...] = np.nan  # the views are the step's sum
            return loss, grads

        monkeypatch.setattr(model_mod, "qa_loss_and_grads", poisoned)
        cfg = TrainConfig(learning_rate=5e-3, warmup_steps=2, patience=5, seed=0)
        stages = [StageConfig("adaptation", 3, False, ("lora", "heads"))]
        with pytest.raises(TrainingDiverged, match="'heads.end.weight'; step aborted at step 6; "
                                                   "kept the parameters of step 4") as info:
            train_two_stage(model, train, val, cfg, stages, vocab=vocab)
        assert info.value.model is model and model.params is table
        assert all(table[k].base is table.flat for k in table.layout.names)
        assert table.keys() == best.keys()
        for k, value in best.items():
            assert table[k].tobytes() == value.tobytes(), k

    def test_simple_loop_overflow_names_the_step(self, training_setup):
        train, _, vocab = training_setup
        cfg = TrainConfig(learning_rate=1e30, warmup_steps=2, seed=0)
        with pytest.raises(FloatingPointError,
                           match=r"encountered in \w+ at step \d+$") as info:
            train_epochs_simple(self._model(vocab), train, cfg, max_steps=6)
        assert not isinstance(info.value, TrainingDiverged)

    def test_history_steps_strictly_increasing(self):
        history = TrainHistory()
        history.append(5, 1.0, 10.0, 12.0, 1e-4)
        with pytest.raises(ValueError, match="strictly increasing"):
            history.append(5, 0.9, 11.0, 12.0, 1e-4)

    def test_history_csv(self, tmp_path):
        history = TrainHistory()
        history.append(1, 2.5, 10.0, 11.0, 3e-4)
        history.append(2, 2.0, 12.0, 13.0, 2e-4)
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,loss,em,f1,lr"
        assert len(lines) == 3

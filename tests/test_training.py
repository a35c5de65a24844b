import dataclasses
import json
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


class TestOptimizerStep:
    def test_zero_grads_zero_decay_is_fixed_point(self):
        cfg = TrainConfig(weight_decay=0.0)
        params = {"w": np.array([1.0, -2.0, 3.0])}
        before = params["w"].copy()
        state = init_optimizer_state(params)
        optimizer_step(params, {"w": np.zeros(3)}, state, cfg, lr=1e-3)
        np.testing.assert_array_equal(params["w"], before)

    def test_decoupled_decay_shrinks_params(self):
        cfg = TrainConfig(weight_decay=0.01)
        params = {"w": np.array([1.0, -2.0])}
        state = init_optimizer_state(params)
        optimizer_step(params, {"w": np.zeros(2)}, state, cfg, lr=1e-3)
        np.testing.assert_allclose(params["w"],
                                   np.array([1.0, -2.0]) * (1 - 1e-3 * 0.01), rtol=1e-12)

    def test_ten_step_scalar_trajectory_matches_hand_oracle(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
        params = {"w": np.array([0.5])}
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
            optimizer_step(params, {"w": np.array([g])}, state, cfg, lr=lr)
            assert params["w"][0] == pytest.approx(p, abs=1e-14)

    def test_nan_gradient_aborts(self):
        cfg = TrainConfig()
        params = {"w": np.ones(2)}
        state = init_optimizer_state(params)
        before = params["w"].copy()
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            optimizer_step(params, {"w": np.array([1.0, np.nan])}, state, cfg)
        np.testing.assert_array_equal(params["w"], before)

    def test_moments_are_made_once_per_tensor(self, monkeypatch):
        # a tensor's moments start at zero with its first gradient and are
        # then updated in place; no step makes a zero array it drops
        rng = np.random.default_rng(1)
        params = {"a": rng.standard_normal(3), "b": rng.standard_normal((2, 2))}
        grads = [{k: rng.standard_normal(v.shape) for k, v in params.items()}
                 for _ in range(3)]
        made = []
        zeros_like = np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda a: made.append(a.shape) or zeros_like(a))
        state = init_optimizer_state({})
        optimizer_step(params, grads[0], state, TrainConfig())
        first = {k: (state["m"][k], state["v"][k]) for k in params}
        for g in grads[1:]:
            optimizer_step(params, g, state, TrainConfig())
        assert made == [(3,), (3,), (2, 2), (2, 2)]
        assert all(state["m"][k] is m and state["v"][k] is v for k, (m, v) in first.items())

    def test_unknown_param(self):
        with pytest.raises(KeyError):
            optimizer_step({"w": np.ones(1)}, {"q": np.ones(1)},
                           init_optimizer_state({}), TrainConfig())


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
        train, val, vocab = training_setup
        model = self._model(vocab)
        gate_w = model.params["gate.w"].copy()
        gate_b = model.params["gate.b"].copy()
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=1, patience=2, seed=0)
        stages = [StageConfig("adaptation", 2, False, ("lora", "heads"))]
        model, _ = train_two_stage(model, train, val, cfg, stages, vocab=vocab)
        assert model.params["gate.w"].tobytes() == gate_w.tobytes()
        assert model.params["gate.b"].tobytes() == gate_b.tobytes()

    def test_stage_one_ignores_the_boost(self, training_setup):
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
        assert model_mod.models_equal(m1, m2)

    def test_full_determinism(self, training_setup):
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
        assert model_mod.models_equal(m1, m2)

    def test_best_checkpoint_dominates_history(self, training_setup):
        train, val, vocab = training_setup
        cfg = TrainConfig(learning_rate=5e-3, warmup_steps=2, patience=2, seed=0)
        stages = default_stages(stage1_epochs=2, stage2_epochs=2)
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
            train_two_stage(self._model(vocab), [], val, TrainConfig(), vocab=vocab)

    def test_stage_config_validation(self):
        with pytest.raises(ValueError):
            StageConfig("adaptation", 5, True, ("lora",))
        with pytest.raises(ValueError):
            StageConfig("specialization", 5, False, ("lora",))
        with pytest.raises(ValueError, match="unknown trainable group"):
            StageConfig("adaptation", 5, False, ("bogus",))

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs must be >= 0, got -3"):
            StageConfig("adaptation", -3, False, ("lora",))
        assert StageConfig("adaptation", 0, False, ("lora",)).epochs == 0

    def test_step_averages_the_batch_gradients_in_order(self, training_setup, monkeypatch):
        # the batch mean is ((g1 + g2) + g3) / 3 per tensor, bit for bit
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
        seen = {}
        monkeypatch.setattr(training, "optimizer_step",
                            lambda params, grads, *args, **kwargs: seen.update(grads))
        losses = training._train_step(model, 1, 1e-3, batch, TrainConfig(),
                                      init_optimizer_state({}), model_mod.ADAPTABLE_GROUPS)
        assert losses == [loss for loss, _ in per_example]
        assert seen.keys() == expected.keys()
        for k, value in expected.items():
            assert seen[k].dtype == value.dtype
            assert seen[k].tobytes() == value.tobytes(), k

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

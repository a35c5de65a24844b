import dataclasses
from collections import Counter

import numpy as np
import pytest

from conceptqa.dictionary import ConceptDictionary, ConceptEntry, boost_factor, empty_dictionary
from conceptqa.evaluation import (
    ABLATION_VARIANTS,
    FULL,
    NO_GATING,
    NO_ICD,
    NO_RESIDUAL,
    MetricReport,
    ablated_model,
    apply_ablation,
    evaluate,
    format_report_table,
    latency_ratio,
    predict_all,
)
from conceptqa import evaluation, metrics
from conceptqa import model as M
from conceptqa.model import encoder_forward
from conceptqa.tokenizer import build_boost_vector


def count_forwarded_rows(monkeypatch) -> Counter:
    """Counter of the real token-id rows that go through ``encoder_forward``
    from here on, one example or each row of a padded batch."""
    rows = Counter()
    forward = M.encoder_forward

    def counting(model, token_ids, boost, return_caches=False, lengths=None):
        ids = np.atleast_2d(token_ids)
        for row, n in zip(ids, [ids.shape[1]] * len(ids) if lengths is None else lengths):
            rows[tuple(row[:n])] += 1
        return forward(model, token_ids, boost, return_caches, lengths)

    monkeypatch.setattr(M, "encoder_forward", counting)
    monkeypatch.setattr(evaluation, "encoder_forward", counting)
    return rows


def embedded_answer_rows(report, vocab) -> Counter:
    """The packed ids of each unique non-empty normalized answer of ``report``,
    predicted or gold, once each."""
    answers = {tuple(metrics.normalize_answer(text)) for p in report.predictions
               for text in (p["pred_text"], p["gold_text"])} - {()}
    return Counter(tuple(vocab.pack(vocab.encode_words(list(words))[0])) for words in answers)


class TestAblationMapping:
    def test_variant_configs(self, tiny_model):
        cfg = tiny_model.config
        assert apply_ablation(cfg, FULL) == cfg
        assert apply_ablation(cfg, NO_GATING).gate_mode == "off"
        assert apply_ablation(cfg, NO_ICD).boost_mode == "off"
        assert apply_ablation(cfg, NO_RESIDUAL).residual_skip is False
        with pytest.raises(ValueError, match="unknown ablation"):
            apply_ablation(cfg, "half_gating")

    def test_ablated_model_shares_parameters(self, tiny_model):
        m = ablated_model(tiny_model, NO_GATING)
        assert m.params is tiny_model.params

    def test_no_icd_equals_full_with_empty_dictionary(self, tiny_model, tiny_encoded):
        ex = tiny_encoded[0].example
        boost_empty = build_boost_vector(ex, empty_dictionary())
        assert boost_empty.tobytes() == np.ones(len(ex)).tobytes()
        h_no_icd = encoder_forward(ablated_model(tiny_model, NO_ICD),
                                   ex.token_ids, ex.boost)
        h_empty = encoder_forward(tiny_model, ex.token_ids, boost_empty)
        np.testing.assert_allclose(h_no_icd, h_empty, atol=1e-9)


class TestEvaluate:
    def test_memorized_model_tops_out(self, memorized):
        model, encoded, vocab, dictionary = memorized
        report = evaluate(model, encoded, vocab=vocab, dictionary=dictionary)
        assert report.em == 100.0
        assert report.f1 == 100.0
        assert report.rouge_l == pytest.approx(1.0)
        assert report.embed_score == pytest.approx(1.0)
        assert report.n_examples == len(encoded)

    def test_deterministic_except_latency(self, memorized):
        model, encoded, vocab, dictionary = memorized
        a = evaluate(model, encoded, vocab=vocab, dictionary=dictionary)
        b = evaluate(model, encoded, vocab=vocab, dictionary=dictionary)
        da, db = a.to_dict(), b.to_dict()
        da.pop("mean_latency_ms")
        db.pop("mean_latency_ms")
        assert da == db

    def test_concept_em_subset(self, memorized):
        model, encoded, vocab, dictionary = memorized
        report = evaluate(model, encoded, vocab=vocab, dictionary=dictionary)
        # synthetic gold answers contain no dictionary terms
        assert report.concept_em is None

    def test_concept_em_is_the_em_of_the_flagged_examples(self, memorized):
        model, encoded, vocab, _ = memorized
        # examples 0-3 get a gold answer that is no word of their context, so
        # EM differs between examples; the dictionary flags 2, 3 and 4 only
        data = [dataclasses.replace(e, gold_texts=[f"absent{i}"]) if i < 4 else e
                for i, e in enumerate(encoded)]
        flagged = {2, 3, 4}
        terms = {metrics.normalize_answer(data[i].gold_texts[0])[0] for i in flagged}
        dictionary = ConceptDictionary(
            {t: ConceptEntry(t, 0.5, boost_factor(0.5)) for t in terms}, version="t")
        assert not any(w in dictionary.entries for i, e in enumerate(data) if i not in flagged
                       for w in metrics.normalize_answer(e.gold_texts[0]))
        report = evaluate(model, data, vocab=vocab, dictionary=dictionary)
        ems = [metrics.best_em_f1(p["pred_text"], e.gold_texts)[0]
               for p, e in zip(report.predictions, data)]
        assert sorted(set(ems[i] for i in flagged)) == [0.0, 1.0]
        assert report.concept_em == 100.0 * float(np.mean([ems[i] for i in sorted(flagged)]))
        assert report.concept_em != report.em

    def test_empty_dataset_error(self, memorized):
        model, _, vocab, dictionary = memorized
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate(model, [], vocab=vocab, dictionary=dictionary)

    def test_predictions_have_required_fields(self, memorized):
        model, encoded, vocab, _ = memorized
        preds = predict_all(model, encoded, vocab)
        assert set(preds[0]) == {"id", "pred_text", "gold_text", "start", "end"}
        assert preds[0]["pred_text"] == preds[0]["gold_text"]


class TestLatency:
    def test_one_prediction_pass_sets_latency(self, memorized, monkeypatch):
        # each example is forwarded exactly once, in one batched prediction pass;
        # the only other rows are the embedding score's answers
        model, encoded, vocab, dictionary = memorized
        rows = count_forwarded_rows(monkeypatch)
        report = evaluate(model, encoded, vocab=vocab, dictionary=dictionary)
        assert rows == Counter(tuple(enc.example.token_ids) for enc in encoded) + \
            embedded_answer_rows(report, vocab)
        assert report.mean_latency_ms > 0
        assert report.predictions == predict_all(model, encoded, vocab)

    def test_gate_overhead_is_modest(self, memorized):
        model, encoded, _, _ = memorized
        ratio = latency_ratio(model, encoded[:4], FULL, NO_GATING, repeats=3)
        assert ratio < 1.5  # loose smoke bound; the acceptance suite pins 1.15


class TestBatchedInference:
    @pytest.mark.parametrize("rows_at_longest", [None, 3, 0])
    def test_predictions_in_input_order_match_single_forwards(
            self, tiny_model, tiny_encoded, tiny_vocab, monkeypatch, rows_at_longest):
        # the default bound (several sub-batches), a row budget of 3 rows at
        # the longest length, and one below any row's L (each row alone)
        order = np.random.default_rng(3).permutation(len(tiny_encoded))
        shuffled = [tiny_encoded[i] for i in order]
        longest = max(len(enc.example) for enc in shuffled)
        assert len({len(enc.example) for enc in shuffled}) > 1
        if rows_at_longest is not None:
            monkeypatch.setattr(evaluation, "ROW_BUDGET", max(1, rows_at_longest * longest))
        expect = []
        for enc in shuffled:
            start, end, _ = M.qa_forward(tiny_model, enc.example)
            pred = M.predict_span(start, end, enc.example, tiny_model.config.max_answer_len)
            expect.append((enc.id, pred.start, pred.end))
        got = predict_all(tiny_model, shuffled, tiny_vocab)
        assert [(p["id"], p["start"], p["end"]) for p in got] == expect

    def test_evaluate_embeds_each_unique_answer_once(self, memorized, monkeypatch):
        model, encoded, vocab, dictionary = memorized
        rows = count_forwarded_rows(monkeypatch)
        report = evaluate(model, encoded, vocab=vocab, dictionary=dictionary)
        # the memorized model predicts every gold text: each answer repeats
        embedded = embedded_answer_rows(report, vocab)
        assert len(embedded) < 2 * len(encoded)
        assert rows == Counter(tuple(enc.example.token_ids) for enc in encoded) + embedded
        per_call = metrics.embed_score([(p["pred_text"], p["gold_text"])
                                        for p in report.predictions],
                                       lambda tokens: evaluation._embed_token_lists(
                                           model, vocab, [tokens])[0])
        assert report.embed_score == pytest.approx(per_call, abs=1e-6)


class TestReportFormat:
    def _report(self, variant):
        return MetricReport(em=97.85, f1=95.12, bleu=0.9355, rouge_l=0.9705,
                            embed_score=0.9790, mean_latency_ms=1.42,
                            n_examples=10, variant=variant)

    def test_ablation_table_columns(self):
        table = format_report_table([self._report(v) for v in ABLATION_VARIANTS],
                                    ablation_style=True)
        header = table.splitlines()[0]
        assert "EM" in header and "F1" in header and "EmbedScore" in header
        assert "BLEU" not in header
        assert len(table.splitlines()) == 2 + len(ABLATION_VARIANTS)

    def test_full_table_columns(self):
        table = format_report_table([self._report(FULL)])
        header = table.splitlines()[0]
        for col in ("EM (%)", "F1 (%)", "BLEU (%)", "ROUGE-L (%)", "EmbedScore (%)",
                    "Time (ms)"):
            assert col in header

    def test_report_json_round_trip(self, tmp_path):
        import json
        report = self._report(FULL)
        path = tmp_path / "report.json"
        report.to_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["em"] == 97.85
        assert loaded["variant"] == "full"


class TestModelEmbedder:
    def test_produces_one_vector_per_token(self, memorized):
        model, _, vocab, _ = memorized
        out = evaluation._embed_token_lists(model, vocab, [["patience", "mercy", "gathering"]])[0]
        assert out.shape == (3, model.config.hidden)
        assert np.isfinite(out).all()

    def test_multi_piece_words_pool(self, memorized):
        model, _, vocab, _ = memorized
        out = evaluation._embed_token_lists(model, vocab, [["steadfastness"]])[0]  # several pieces
        assert out.shape == (1, model.config.hidden)

    def test_a_list_that_fits_is_one_sequence(self, memorized):
        # one [CLS] ... [SEP] row, its pieces' states pooled per word
        model, _, vocab, _ = memorized
        tokens = ["patience", "mercy", "gathering", "steadfastness"]
        ids, counts = vocab.encode_words(tokens)
        h = encoder_forward(model, vocab.pack(ids), np.ones(len(ids) + 2))[1:-1]
        counts = np.asarray(counts)
        expected = np.add.reduceat(h, np.cumsum(counts) - counts) / counts[:, None]
        out = evaluation._embed_token_lists(model, vocab, [tokens])[0]
        assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()

    def test_a_list_past_the_window_is_one_sequence_per_window(self, tiny_vocab):
        # max_len 8 holds 6 pieces: mercy 3, patience 4, the 1, abracadabra 9, a 1
        cfg = M.ModelConfig(layers=1, hidden=8, heads=2, lora_rank=2, max_len=8,
                            vocab_size=len(tiny_vocab))
        model = M.build_model(cfg, seed=0)
        tokens = ["mercy", "patience", "the", "abracadabra", "a", "mercy"]
        windows = evaluation._windows(*tiny_vocab.encode_words(tokens), 6)
        assert [counts for _, counts in windows] == [[3], [4, 1], [6], [1, 3]]
        # the long word keeps its first 6 pieces
        assert windows[2][0] == tiny_vocab.encode_words(["abracadabra"])[0][:6]
        out = evaluation._embed_token_lists(model, tiny_vocab, [tokens])[0]
        assert out.shape == (len(tokens), 8)
        groups = [["mercy"], ["patience", "the"], ["abracadabra"], ["a", "mercy"]]
        assert out.tobytes() == np.concatenate(
            evaluation._embed_token_lists(model, tiny_vocab, groups)).tobytes()

import decimal
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conceptqa.dictionary import (
    ConceptEntry,
    DictionaryError,
    boost_factor,
    build_dictionary,
    compute_importance,
    empty_dictionary,
    load_dictionary,
    load_weights,
    save_dictionary,
)

# the curated 12-entry fixture, importance score and published boost factor
FIXTURE_ROWS = [
    ("allah", 1.000, 3.00),
    ("messenger", 0.705, 2.41),
    ("hadith", 0.550, 2.10),
    ("prophet", 0.370, 1.74),
    ("prayer", 0.150, 1.30),
    ("umar", 0.105, 1.21),
    ("muslim", 0.045, 1.09),
    ("ali", 0.035, 1.07),
    ("muhammad", 0.035, 1.07),
    ("paradise", 0.030, 1.06),
    ("faith", 0.025, 1.05),
    ("islam", 0.020, 1.04),
]


class TestBoostFactor:
    @pytest.mark.parametrize("importance,expected", [(1.000, 3.00), (0.370, 1.74), (0.0, 1.00)])
    def test_known_values(self, importance, expected):
        assert boost_factor(importance) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError, match="importance out of range"):
            boost_factor(bad)


class TestComputeImportance:
    def test_single_term_is_one(self):
        assert compute_importance({"allah": 500}) == {"allah": 1.0}

    def test_log_ratio(self):
        scores = compute_importance({"a": 9, "b": 99})
        assert scores["b"] == 1.0
        assert scores["a"] == pytest.approx(0.5, abs=1e-12)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            compute_importance({})

    def test_count_below_one(self):
        with pytest.raises(ValueError, match="counts must be >= 1"):
            compute_importance({"x": 0})

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            compute_importance({"x": 5}, weights={"x": 1.5})

    def test_matches_high_precision_oracle(self):
        # independent recomputation with 50-digit decimal logarithms
        freqs = {f"t{i}": (i + 1) ** 2 + 3 * i for i in range(12)}
        weights = {f"t{i}": 0.8 + 0.4 * i / 12 for i in range(12)}
        scores = compute_importance(freqs, weights)

        decimal.getcontext().prec = 50
        log_max = max(decimal.Decimal(c + 1).ln() for c in freqs.values())
        for term, count in freqs.items():
            raw = decimal.Decimal(count + 1).ln() / log_max * decimal.Decimal(weights[term])
            expected = min(1.0, max(0.0, float(raw)))
            assert abs(scores[term] - expected) < 1e-12

    def test_clamp_count_reported(self, caplog):
        compute_importance({"a": 99, "b": 99}, weights={"a": 1.2, "b": 1.1})
        assert "clamped to [0, 1] for 2 term(s)" in caplog.text

    @given(st.floats(min_value=0.8, max_value=1.2))
    def test_uniform_weight_argmax_clamps(self, c):
        freqs = {"x": 3, "y": 17, "z": 8}
        scores = compute_importance(freqs, weights={t: c for t in freqs})
        assert scores["y"] == pytest.approx(min(c, 1.0), abs=1e-12)

    @given(st.dictionaries(st.sampled_from(["p", "q", "r", "s"]),
                           st.integers(min_value=1, max_value=10_000),
                           min_size=2))
    def test_monotone_in_frequency(self, freqs):
        scores = compute_importance(freqs)
        ranked = sorted(freqs, key=freqs.get)
        for lo, hi in zip(ranked, ranked[1:]):
            assert scores[lo] <= scores[hi] + 1e-12


class TestBuildDictionary:
    def test_argmax_term_gets_full_boost(self):
        corpus = ["allah allah allah guidance", "allah spoke", "quiet evening"]
        d = build_dictionary(corpus, ["allah", "guidance"])
        assert d.entries["allah"].boost_factor == pytest.approx(3.0)
        assert d.entries["allah"].corpus_frequency == pytest.approx(2 / 3)

    def test_full_dictionary_matches_scalar_oracle(self):
        terms = [f"term{i}" for i in range(12)]
        corpus = []
        for i, t in enumerate(terms):
            corpus.extend([f"{t} " * (2 * i + 1)] * (i + 1))
        d = build_dictionary(corpus, terms)

        counts = {t: (2 * i + 1) * (i + 1) for i, t in enumerate(terms)}
        log_max = max(math.log(c + 1) for c in counts.values())
        for i, t in enumerate(terms):
            expected_is = min(1.0, math.log(counts[t] + 1) / log_max)
            entry = d.entries[t]
            assert entry.importance_score == pytest.approx(expected_is, abs=1e-12)
            assert entry.boost_factor == pytest.approx(2 * expected_is + 1, abs=1e-12)
            assert entry.corpus_frequency == pytest.approx((i + 1) / len(corpus))

    def test_unseen_term_is_neutral_with_warning(self):
        d = build_dictionary(["some words here"], ["words", "ghost"])
        assert d.entries["ghost"].boost_factor == 1.0
        assert d.entries["ghost"].importance_score == 0.0
        assert any("ghost" in w for w in d.build_warnings)

    def test_bf_invariant_exact(self):
        d = build_dictionary(["alpha beta beta gamma gamma gamma"], ["alpha", "beta", "gamma"])
        for entry in d.entries.values():
            assert entry.boost_factor == 2.0 * entry.importance_score + 1.0

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            build_dictionary([], ["x"])
        with pytest.raises(ValueError):
            build_dictionary(["doc"], [])

    def test_term_of_other_than_one_word_is_rejected(self):
        # the corpus holds "the prophet", but boost_of could never match it
        for term in ("the prophet", "prayer-time", "!!!"):
            with pytest.raises(DictionaryError, match=f"term {term!r} normalizes to"):
                build_dictionary(["the prophet said pray at prayer time"], [term, "prayer"])

    def test_case_insensitive_matching(self):
        d = build_dictionary(["Allah ALLAH allah"], ["Allah"])
        assert d.entries["allah"].importance_score == 1.0


class TestSerialization:
    def test_round_trip_identity(self, tmp_path, builtin_dict):
        path = tmp_path / "icd.json"
        save_dictionary(builtin_dict, path)
        loaded = load_dictionary(path)
        assert loaded == builtin_dict

    def test_builtin_fixture_valid(self, builtin_dict):
        assert len(builtin_dict) == 12
        builtin_dict.validate()
        for term, importance, boost in FIXTURE_ROWS:
            entry = builtin_dict.entries[term]
            assert entry.importance_score == pytest.approx(importance)
            assert entry.boost_factor == pytest.approx(boost)
            assert abs(entry.boost_factor - boost_factor(entry.importance_score)) <= 0.005

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "x",\n  "entries": [}', encoding="utf-8")
        with pytest.raises(DictionaryError, match="line 2"):
            load_dictionary(path)

    def test_invariant_violation_names_term(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "version": "t",
            "entries": [{"term": "allah", "importance_score": 1.0, "boost_factor": 2.5,
                         "category": "", "corpus_frequency": 0.5}],
        }), encoding="utf-8")
        with pytest.raises(DictionaryError, match="allah"):
            load_dictionary(path)

    def test_duplicate_term_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        entry = {"term": "faith", "importance_score": 0.025, "boost_factor": 1.05,
                 "category": "", "corpus_frequency": 0.1}
        path.write_text(json.dumps({"version": "t", "entries": [entry, entry]}),
                        encoding="utf-8")
        with pytest.raises(DictionaryError, match="duplicate"):
            load_dictionary(path)

    def test_empty_dictionary_round_trip(self, tmp_path):
        path = tmp_path / "empty.json"
        save_dictionary(empty_dictionary(), path)
        assert len(load_dictionary(path)) == 0


class TestMutatedFiles:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_dictionary_loads_or_raises_value_error(self, builtin_dict, mutate_json,
                                                            data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "icd.json"
            save_dictionary(builtin_dict, path)
            payload = json.loads(path.read_text(encoding="utf-8"))
            for _ in range(data.draw(st.integers(1, 3))):
                payload = mutate_json(data, payload)
            path.write_text(json.dumps(payload), encoding="utf-8")
            try:
                loaded = load_dictionary(path)
            except ValueError as exc:
                assert isinstance(exc, DictionaryError)
                assert str(exc).startswith(f"{path}: ")
            else:
                loaded.validate()
                assert type(loaded.version) is str
                for entry in loaded.entries.values():
                    assert type(entry.term) is str and type(entry.category) is str

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_weights_load_or_raise_value_error(self, mutate_json, data):
        payload = {"allah": 1.2, "prophet": 0.9, "hadith": 1}
        for _ in range(data.draw(st.integers(1, 3))):
            payload = mutate_json(data, payload)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "weights.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            try:
                weights = load_weights(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
            else:
                assert all(type(w) in (int, float) for w in weights.values())


class TestLookup:
    def test_boost_of_unknown_is_neutral(self, builtin_dict):
        assert builtin_dict.boost_of("carpet") == 1.0

    def test_entry_validation(self):
        with pytest.raises(DictionaryError):
            ConceptEntry("x", importance_score=0.5, boost_factor=2.5).validate()
        with pytest.raises(DictionaryError):
            ConceptEntry("x", importance_score=1.2, boost_factor=3.0).validate()

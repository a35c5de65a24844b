import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conceptqa import synthetic
from conceptqa.data import (
    DatasetFile,
    DatasetRecord,
    dump_encoded_jsonl,
    encode_dataset,
    ingest_squad,
    load_dataset,
    save_dataset,
    split_dataset,
)


def squad_payload():
    return {
        "version": "1.1",
        "data": [{
            "title": "t",
            "paragraphs": [
                {
                    "context": "salim spoke of patience with conviction .",
                    "qas": [
                        {"id": "q1", "question": "what was spoken of",
                         "answers": [{"text": "patience", "answer_start": 15}]},
                        {"id": "q2", "question": "who spoke",
                         "answers": [{"text": "salim", "answer_start": 0},
                                     {"text": "salim", "answer_start": 0}]},
                    ],
                },
                {
                    "context": "the prophet spoke of mercy .",
                    "qas": [
                        {"id": "q3", "question": "what was spoken of",
                         "answers": [{"text": "mercy", "answer_start": 21}]},
                    ],
                },
            ],
        }],
    }


class TestIngest:
    def test_flattens_all_questions(self, tmp_path):
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(squad_payload()), encoding="utf-8")
        dataset = ingest_squad(path)
        assert len(dataset) == 3
        assert [r.id for r in dataset.records] == ["q1", "q2", "q3"]
        assert dataset.records[1].all_answers == ["salim", "salim"]
        assert dataset.content_hash

    def test_bad_offset_rejected_run_continues(self, tmp_path):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = 14
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        dataset = ingest_squad(path)
        assert len(dataset) == 2
        assert dataset.rejected[0]["id"] == "q1"
        # nothing dropped silently
        assert len(dataset.records) + len(dataset.rejected) == 3

    def test_malformed_json_fatal(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="parse error"):
            ingest_squad(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["qas"][1]["id"] = "q1"
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        dataset = ingest_squad(path)
        assert any(r["reason"] == "duplicate id" for r in dataset.rejected)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["data"][0]["paragraphs"][0].pop("context"),
         "data[0].paragraphs[0]: missing 'context'"),
        (lambda p: p["data"][0]["paragraphs"][0]["qas"][1].pop("id"),
         "data[0].paragraphs[0].qas[1]: missing 'id'"),
        (lambda p: p["data"][0]["paragraphs"][1]["qas"][0].pop("question"),
         "data[0].paragraphs[1].qas[0]: missing 'question'"),
        (lambda p: p["data"][0]["paragraphs"][0]["qas"][0].update(answers=5),
         "data[0].paragraphs[0].qas[0].answers: expected array or null, got integer"),
        (lambda p: p.update(data={}), "data: expected array, got object"),
        (lambda p: p.pop("data"), "top level: missing 'data'"),
    ])
    def test_malformed_layout_names_the_location(self, tmp_path, edit, message):
        payload = squad_payload()
        edit(payload)
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            ingest_squad(path)
        assert str(info.value) == f"{path}: {message}"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_file_ingests_or_raises_value_error(self, mutate_json, data):
        payload = squad_payload()
        for _ in range(data.draw(st.integers(1, 3))):
            payload = mutate_json(data, payload)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "squad.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            try:
                dataset = ingest_squad(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
            else:
                for r in dataset.records:
                    assert r.context[r.answer_char_start:][:len(r.answer_text)] \
                        == r.answer_text
                    assert all(type(a) is str for a in r.all_answers)
                out = Path(tmp) / "flat.json"
                save_dataset(dataset, out)
                assert load_dataset(out).records == dataset.records

    def test_round_trip_dataset_file(self, tmp_path):
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(squad_payload()), encoding="utf-8")
        dataset = ingest_squad(path)
        out = tmp_path / "flat.json"
        save_dataset(dataset, out)
        loaded = load_dataset(out)
        assert loaded.records == dataset.records
        assert loaded.content_hash == dataset.content_hash


class TestSplit:
    def _dataset(self, n):
        records = [DatasetRecord(str(i), "q", "c value", "value", 2) for i in range(n)]
        return DatasetFile(records=records)

    def test_eighty_ten_ten(self):
        train, val, test = split_dataset(self._dataset(100), seed=0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_table_sizes_at_full_scale(self):
        train, val, test = split_dataset(self._dataset(42_591), seed=0)
        assert (len(train), len(val), len(test)) == (34_073, 4_259, 4_259)

    def test_partition_disjoint_and_covering(self):
        dataset = self._dataset(53)
        train, val, test = split_dataset(dataset, seed=3)
        ids = [r.id for r in train + val + test]
        assert sorted(ids, key=int) == [r.id for r in dataset.records]
        assert len(set(ids)) == 53

    def test_deterministic_in_seed(self):
        d = self._dataset(40)
        a = split_dataset(d, seed=5)
        b = split_dataset(d, seed=5)
        c = split_dataset(d, seed=6)
        assert [r.id for r in a[0]] == [r.id for r in b[0]]
        assert [r.id for r in a[0]] != [r.id for r in c[0]]

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split_dataset(self._dataset(10), ratios=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError, match="at least 3"):
            split_dataset(self._dataset(2))


class TestEncodeDataset:
    def test_counts_absent_spans(self, tiny_vocab, builtin_dict):
        records = [DatasetRecord(
            "long", "what was spoken of",
            " ".join(["gathering"] * 800) + " salim spoke of patience",
            "patience", None)]
        records[0].answer_char_start = records[0].context.index("patience")
        encoded, stats = encode_dataset(records, tiny_vocab, builtin_dict, max_len=64)
        assert stats["n_absent_spans"] == 1
        assert encoded[0].example.gold_span is None
        assert encoded[0].example.truncated

    def test_jsonl_round_trip(self, tmp_path, tiny_encoded):
        path = tmp_path / "encoded.jsonl"
        dump_encoded_jsonl(tiny_encoded, path)
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(loaded) == len(tiny_encoded)
        for a, b in zip(loaded, tiny_encoded):
            assert a["id"] == b.id
            assert a["gold_texts"] == b.gold_texts
            np.testing.assert_array_equal(a["token_ids"], b.example.token_ids)
            np.testing.assert_array_equal(a["boost"], b.example.boost)
            assert tuple(a["gold_span"]) == b.example.gold_span
            assert a["words"] == b.example.words


class TestSyntheticFixture:
    def test_answers_at_stated_offsets(self):
        fixture = synthetic.generate_records(50, seed=13)
        for r in fixture.records:
            assert r.context[r.answer_char_start:
                             r.answer_char_start + len(r.answer_text)] == r.answer_text

    def test_exactly_one_concept_agent(self):
        fixture = synthetic.generate_records(50, seed=13)
        concepts = set(synthetic.CONCEPT_AGENTS)
        for r in fixture.records:
            slot_agents = [w for w in r.context.split() if w in concepts]
            assert len(slot_agents) == 1

    def test_deterministic(self):
        a = synthetic.generate_records(10, seed=4)
        b = synthetic.generate_records(10, seed=4)
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]

    def test_targets_corpus_length_statistics(self):
        fixture = synthetic.generate_records(
            300, seed=5, target_context_words=77.5, target_question_words=15.1)
        stats = fixture.stats()
        assert abs(stats["mean_context_words"] - 77.5) < 3.0
        assert abs(stats["mean_question_words"] - 15.1) < 1.5

    def test_squad_payload_ingests_cleanly(self, tmp_path):
        fixture = synthetic.generate_records(20, seed=6)
        path = tmp_path / "synth.json"
        synthetic.write_squad(fixture, path)
        dataset = ingest_squad(path)
        assert len(dataset) == 20
        assert not dataset.rejected

    def test_cued_question_names_the_concept(self):
        fixture = synthetic.generate_records(20, seed=8, question_style="cued")
        concepts = set(synthetic.CONCEPT_AGENTS)
        for r in fixture.records:
            assert any(w in concepts for w in r.question.split())

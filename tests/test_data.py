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
from conceptqa.tokenizer import SPECIALS, Vocab


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

    @pytest.mark.parametrize("question, answer, start, reason", [
        ("???", "patience", 15, "question is empty"),
        ("what was spoken of", ".", 40,
         "span mismatch: answer does not overlap any context word"),
        # context[-12:-2] reads the answer, but encoding wants a real offset
        ("what was spoken of", "conviction", -12, "offset -12 does not match answer text"),
    ])
    def test_unencodable_record_rejected_with_reason(self, tmp_path, question, answer, start,
                                                     reason):
        payload = squad_payload()
        qa = payload["data"][0]["paragraphs"][0]["qas"][0]
        qa["question"] = question
        qa["answers"] = [{"text": answer, "answer_start": start}]
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        dataset = ingest_squad(path)
        assert [r.id for r in dataset.records] == ["q2", "q3"]
        assert dataset.rejected == [{"id": "q1", "reason": reason}]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ingest_accepts_exactly_what_encodes(self, builtin_dict, data):
        words = st.sampled_from(["salim", "spoke", ".", "...", "(mercy)", "a/b", "-",
                                 "ṣaḥīḥ", "ʿ", "’", "x.y"])
        gaps = st.sampled_from([" ", "  ", "\n", "\t "])
        tokens = data.draw(st.lists(st.tuples(words, gaps), min_size=1, max_size=8))
        context = data.draw(st.sampled_from(["", " "])) + "".join(w + g for w, g in tokens)
        start = data.draw(st.integers(0, len(context)), label="start")
        end = data.draw(st.integers(start, len(context)), label="end")
        question = data.draw(st.sampled_from(["who spoke", "???", "ʿ", "what of (mercy)"]))
        answer = context[start:end]
        payload = {"data": [{"paragraphs": [{"context": context, "qas": [
            {"id": "q", "question": question,
             "answers": [{"text": answer, "answer_start": start}]}]}]}]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "squad.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            dataset = ingest_squad(path)
        record = DatasetRecord("q", question, context, answer, start, [answer])
        try:
            encode_dataset([record], Vocab(pieces=list(SPECIALS)), builtin_dict)
        except ValueError as exc:
            assert dataset.rejected == [{"id": "q", "reason": str(exc).split(": ", 1)[1]}]
        else:
            assert dataset.records == [record] and not dataset.rejected

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


    @pytest.mark.parametrize("question, start, message", [
        ("???", 4, "record 'r1': question is empty"),
        ("what q", 5, "record 'r1': span mismatch: context at offset 5 does not read "
                      "'messenger'"),
    ])
    def test_bad_record_named_in_error(self, builtin_dict, question, start, message):
        records = [DatasetRecord("r0", "q", "the said", "said", 4),
                   DatasetRecord("r1", question, "The messenger said.", "messenger", start)]
        with pytest.raises(ValueError) as exc:
            encode_dataset(records, WRITER_VOCAB, builtin_dict)
        assert str(exc.value) == message


WRITER_VOCAB = Vocab(pieces=list(SPECIALS) + ["q", "what", "mess", "##enger", "the", "said"])
WRITER_RECORDS = [
    DatasetRecord("r1", "What q?", "The messenger said.", "messenger", 4,
                  ["messenger", "the messenger"]),
    DatasetRecord("r2", "q", "said the the messenger", "messenger", 13),
]


def test_writers_bytes(tmp_path, builtin_dict):
    # max_len 8 truncates both contexts: r1 keeps its answer, r2 loses "##enger"
    encoded, stats = encode_dataset(WRITER_RECORDS, WRITER_VOCAB, builtin_dict, max_len=8)
    assert stats == {"n_examples": 2, "n_absent_spans": 1}
    dump_encoded_jsonl(encoded, tmp_path / "encoded.jsonl")
    assert (tmp_path / "encoded.jsonl").read_bytes() == (
        b'{"boost": [1.0, 1.0, 1.0, 1.0, 1.0, 1.705, 1.705, 1.0], '
        b'"context_word_spans": [[0, 3], [4, 13], [14, 19]], "gold_span": [5, 6], '
        b'"gold_texts": ["messenger", "the messenger"], "id": "r1", "n_question_words": 2, '
        b'"segment_flags": [0, 1, 1, 0, 2, 2, 2, 0], "token_ids": [2, 5, 4, 3, 8, 6, 7, 3], '
        b'"truncated": true, "word_index": [-1, 0, 1, -1, 2, 3, 3, -1], '
        b'"word_piece_counts": [1, 1, 1, 2, 1], "words": ["what", "q", "the", "messenger", '
        b'"said"]}\n'
        b'{"boost": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.41, 1.0], '
        b'"context_word_spans": [[0, 4], [5, 8], [9, 12], [13, 22]], "gold_span": null, '
        b'"gold_texts": ["messenger"], "id": "r2", "n_question_words": 1, '
        b'"segment_flags": [0, 1, 0, 2, 2, 2, 2, 0], "token_ids": [2, 4, 3, 9, 8, 8, 6, 3], '
        b'"truncated": true, "word_index": [-1, 0, -1, 1, 2, 3, 4, -1], '
        b'"word_piece_counts": [1, 1, 1, 1, 2], "words": ["q", "said", "the", "the", '
        b'"messenger"]}\n')

    save_dataset(DatasetFile(WRITER_RECORDS, "raw.json", "abc",
                             [{"id": "r0", "reason": "no answers"}]), tmp_path / "flat.json")
    assert (tmp_path / "flat.json").read_bytes() == (
        b'{\n "provenance": {\n  "source_path": "raw.json",\n  "content_hash": "abc"\n },\n'
        b' "rejected": [\n  {\n   "id": "r0",\n   "reason": "no answers"\n  }\n ],\n'
        b' "records": [\n'
        b'  {\n   "id": "r1",\n   "question": "What q?",\n'
        b'   "context": "The messenger said.",\n   "answer_text": "messenger",\n'
        b'   "answer_char_start": 4,\n'
        b'   "all_answers": [\n    "messenger",\n    "the messenger"\n   ]\n  },\n'
        b'  {\n   "id": "r2",\n   "question": "q",\n'
        b'   "context": "said the the messenger",\n   "answer_text": "messenger",\n'
        b'   "answer_char_start": 13,\n   "all_answers": []\n  }\n'
        b' ]\n}\n')


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

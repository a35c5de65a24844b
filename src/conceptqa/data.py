"""Dataset ingestion, splitting and encoding.

Input follows the common extractive-QA JSON layout
(data -> paragraphs -> {context, qas: [{id, question, answers}]}); records
are flattened and every answer offset is validated against the context.
Encoded examples serialize as line-delimited JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dictionary import ConceptDictionary
from .text import _field, _items, read_json_object
from .tokenizer import (
    DEFAULT_MAX_LEN,
    TokenizedExample,
    Vocab,
    align_answer_span,
    build_boost_vector,
    check_answer_words,
    encode_qa,
    question_words,
)


@dataclass
class DatasetRecord:
    id: str
    question: str
    context: str
    answer_text: str
    answer_char_start: int
    all_answers: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetRecord":
        return cls(
            id=str(d["id"]),
            question=d["question"],
            context=d["context"],
            answer_text=d["answer_text"],
            answer_char_start=int(d["answer_char_start"]),
            all_answers=list(d.get("all_answers") or [d["answer_text"]]),
        )


@dataclass
class DatasetFile:
    records: list[DatasetRecord]
    source_path: str = ""
    content_hash: str = ""
    rejected: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def stats(self) -> dict:
        ctx = [len(r.context.split()) for r in self.records]
        qs = [len(r.question.split()) for r in self.records]
        return {
            "n_records": len(self.records),
            "n_rejected": len(self.rejected),
            "mean_context_words": float(np.mean(ctx)) if ctx else 0.0,
            "mean_question_words": float(np.mean(qs)) if qs else 0.0,
        }


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ingest_squad(path: str | Path) -> DatasetFile:
    """Flatten a v1.1-style QA JSON file into validated records.

    Records whose first answer does not occur at its stated offset, whose
    question normalizes to no word, or whose answer overlaps no context word
    are rejected (id and reason recorded), never silently dropped; accepted plus
    rejected counts always equal the input count.  A file that does not have
    the layout raises ValueError naming the location, e.g.
    ``data[0].paragraphs[0].qas[1]: missing 'id'``.
    """
    path = Path(path)
    records, rejected = read_json_object(path, _flatten_squad)
    return DatasetFile(
        records=records,
        source_path=str(path),
        content_hash=sha256_file(path),
        rejected=rejected,
    )


def _flatten_squad(payload: dict) -> tuple[list[DatasetRecord], list[dict]]:
    records: list[DatasetRecord] = []
    rejected: list[dict] = []
    seen_ids: set[str] = set()
    for art_at, article in _items(_field(payload, "data", (list,), ""), dict, "data"):
        paragraphs = _field(article, "paragraphs", (list,), art_at, [])
        for para_at, para in _items(paragraphs, dict, f"{art_at}.paragraphs"):
            context = _field(para, "context", (str,), para_at)
            for qa_at, qa in _items(_field(para, "qas", (list,), para_at, []), dict,
                                    f"{para_at}.qas"):
                qa_id = str(_field(qa, "id", (str, int), qa_at))
                question = _field(qa, "question", (str,), qa_at)
                answers = _field(qa, "answers", (list, type(None)), qa_at, None) or []
                texts = [_field(a, "text", (str,), at)
                         for at, a in _items(answers, dict, f"{qa_at}.answers")]
                if qa_id in seen_ids:
                    rejected.append({"id": qa_id, "reason": "duplicate id"})
                    continue
                seen_ids.add(qa_id)
                if not answers:
                    rejected.append({"id": qa_id, "reason": "no answers"})
                    continue
                text = texts[0]
                start = _field(answers[0], "answer_start", (int,), f"{qa_at}.answers[0]")
                if start < 0 or context[start:start + len(text)] != text:
                    rejected.append(
                        {"id": qa_id, "reason": f"offset {start} does not match answer text"}
                    )
                    continue
                try:  # what encode_qa and align_answer_span would reject
                    question_words(question)
                    check_answer_words(context, start, start + len(text))
                except ValueError as exc:
                    rejected.append({"id": qa_id, "reason": str(exc)})
                    continue
                records.append(DatasetRecord(
                    id=qa_id,
                    question=question,
                    context=context,
                    answer_text=text,
                    answer_char_start=start,
                    all_answers=texts,
                ))
    return records, rejected


def save_dataset(data: DatasetFile, path: str | Path) -> None:
    payload = {
        "provenance": {"source_path": data.source_path, "content_hash": data.content_hash},
        "rejected": data.rejected,
        "records": [r.to_dict() for r in data.records],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


_RECORD_FIELDS = (("id", (str,)), ("question", (str,)), ("context", (str,)),
                  ("answer_text", (str,)), ("answer_char_start", (int,)))


def load_dataset(path: str | Path) -> DatasetFile:
    """Read a ``save_dataset`` file; a malformed one raises ValueError naming the location."""
    return read_json_object(Path(path), _dataset_from_payload)


def _dataset_from_payload(payload: dict) -> DatasetFile:
    prov = _field(payload, "provenance", (dict,), "", {})
    records = []
    for at, rec in _items(_field(payload, "records", (list,), ""), dict, "records"):
        for key, kinds in _RECORD_FIELDS:
            _field(rec, key, kinds, at)
        answers = _field(rec, "all_answers", (list, type(None)), at, None) or []
        list(_items(answers, str, f"{at}.all_answers"))
        records.append(DatasetRecord.from_dict(rec))
    return DatasetFile(
        records=records,
        source_path=_field(prov, "source_path", (str,), "provenance", ""),
        content_hash=_field(prov, "content_hash", (str,), "provenance", ""),
        rejected=_field(payload, "rejected", (list,), "", []),
    )


@dataclass(frozen=True)
class SplitConfig:
    """The ``split`` settings: (train, val, test) ratios and the permutation seed."""
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3 or not all(type(r) in (int, float) and r >= 0
                                            for r in self.ratios):
            raise ValueError(f"ratios must be 3 numbers >= 0, got {list(self.ratios)}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios {list(self.ratios)} do not sum to 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def split_dataset(
    data: DatasetFile,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[DatasetRecord], list[DatasetRecord], list[DatasetRecord]]:
    """Deterministic disjoint train/val/test split.

    Validation and test get the floor of their shares; the remainder goes to
    train (100 records at 0.8/0.1/0.1 split 80/10/10).
    """
    SplitConfig(ratios, seed)  # the checks of the split settings
    n = len(data.records)
    if n < 3:
        raise ValueError("need at least 3 records to split")
    n_val = int(n * ratios[1])
    n_test = int(n * ratios[2])
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = perm[:n_val]
    test_idx = perm[n_val:n_val + n_test]
    train_idx = perm[n_val + n_test:]
    pick = lambda idx: [data.records[i] for i in idx]
    return pick(train_idx), pick(val_idx), pick(test_idx)


@dataclass
class EncodedExample:
    id: str
    example: TokenizedExample
    gold_texts: list[str]


def encode_dataset(
    records: list[DatasetRecord],
    vocab: Vocab,
    dictionary: ConceptDictionary,
    max_len: int = DEFAULT_MAX_LEN,
) -> tuple[list[EncodedExample], dict]:
    """Tokenize, align gold spans and attach boost vectors.

    Returns the encoded examples plus counters; examples whose answer was
    truncated away keep gold_span=None and are counted.
    """
    encoded: list[EncodedExample] = []
    n_absent = 0
    for rec in records:
        try:
            ex = encode_qa(rec.question, rec.context, vocab, max_len=max_len)
            span = align_answer_span(rec.context, rec.answer_text, rec.answer_char_start, ex)
        except ValueError as exc:
            raise ValueError(f"record {rec.id!r}: {exc}") from None
        if span is None:
            n_absent += 1
        ex.gold_span = span
        ex.boost = build_boost_vector(ex, dictionary)
        encoded.append(EncodedExample(
            id=rec.id,
            example=ex,
            gold_texts=rec.all_answers or [rec.answer_text],
        ))
    return encoded, {"n_examples": len(encoded), "n_absent_spans": n_absent}


def dump_encoded_jsonl(encoded: list[EncodedExample], path: str | Path) -> None:
    """One JSON object per line; segment flags 0=special, 1=question, 2=context."""
    with open(path, "w", encoding="utf-8") as fh:
        for enc in encoded:
            row = {f.name: getattr(enc.example, f.name)
                   for f in dataclasses.fields(enc.example)}
            fh.write(json.dumps({**row, "id": enc.id, "gold_texts": enc.gold_texts},
                                sort_keys=True, default=np.ndarray.tolist) + "\n")

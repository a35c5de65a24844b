"""Dataset ingestion, splitting and encoding.

Input follows the common extractive-QA JSON layout
(data -> paragraphs -> {context, qas: [{id, question, answers}]}); records
are flattened and every answer offset is validated against the context.
Encoded examples serialize as line-delimited JSON.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dictionary import ConceptDictionary
from .tokenizer import (
    DEFAULT_MAX_LEN,
    TokenizedExample,
    Vocab,
    align_answer_span,
    build_boost_vector,
    encode_qa,
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
        return {
            "id": self.id,
            "question": self.question,
            "context": self.context,
            "answer_text": self.answer_text,
            "answer_char_start": self.answer_char_start,
            "all_answers": self.all_answers,
        }

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


_REQUIRED = object()
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _field(node: dict, key: str, kinds: tuple[type, ...], where: str, default=_REQUIRED):
    """``node[key]`` if its JSON type is one of ``kinds``; ``default`` if it is absent.

    Anything else raises ValueError naming ``where``, the location of ``node``
    ("" for the top level).
    """
    if key not in node:
        if default is _REQUIRED:
            raise ValueError(f"{where or 'top level'}: missing {key!r}")
        return default
    value = node[key]
    if type(value) not in kinds:
        raise ValueError(f"{where + '.' if where else ''}{key}: expected "
                         f"{' or '.join(_JSON_NAMES[k] for k in kinds)}, "
                         f"got {_JSON_NAMES[type(value)]}")
    return value


def _items(items: list, kind: type, where: str):
    """(location, item) for each item of a JSON array that must hold ``kind``s."""
    for n, item in enumerate(items):
        if type(item) is not kind:
            raise ValueError(f"{where}[{n}]: expected {_JSON_NAMES[kind]}, "
                             f"got {_JSON_NAMES[type(item)]}")
        yield f"{where}[{n}]", item


def _read_json_object(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if type(payload) is not dict:
        raise ValueError(f"{path}: expected a JSON object, got {_JSON_NAMES[type(payload)]}")
    return payload


def ingest_squad(path: str | Path) -> DatasetFile:
    """Flatten a v1.1-style QA JSON file into validated records.

    Records whose first answer does not occur at its stated offset are
    rejected (id and reason recorded), never silently dropped; accepted plus
    rejected counts always equal the input count.  A file that does not have
    the layout raises ValueError naming the location, e.g.
    ``data[0].paragraphs[0].qas[1]: missing 'id'``.
    """
    path = Path(path)
    payload = _read_json_object(path)
    try:
        records, rejected = _flatten_squad(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
                if context[start:start + len(text)] != text:
                    rejected.append(
                        {"id": qa_id, "reason": f"offset {start} does not match answer text"}
                    )
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
    payload = _read_json_object(Path(path))
    try:
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
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def split_dataset(
    data: DatasetFile,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[DatasetRecord], list[DatasetRecord], list[DatasetRecord]]:
    """Deterministic disjoint train/val/test split.

    Validation and test get the floor of their shares; the remainder goes to
    train (100 records at 0.8/0.1/0.1 split 80/10/10).
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios {ratios} do not sum to 1")
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
        ex = encode_qa(rec.question, rec.context, vocab, max_len=max_len)
        span = align_answer_span(rec.context, rec.answer_text, rec.answer_char_start, ex)
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
            ex = enc.example
            fh.write(json.dumps({
                "id": enc.id,
                "token_ids": ex.token_ids.tolist(),
                "segment_flags": ex.segment_flags.tolist(),
                "word_index": ex.word_index.tolist(),
                "boost": [float(b) for b in ex.boost],
                "gold_span": list(ex.gold_span) if ex.gold_span else None,
                "truncated": ex.truncated,
                "words": ex.words,
                "n_question_words": ex.n_question_words,
                "context_word_spans": ex.context_word_spans,
                "word_piece_counts": ex.word_piece_counts,
                "gold_texts": enc.gold_texts,
            }, sort_keys=True) + "\n")


def load_encoded_jsonl(path: str | Path) -> list[EncodedExample]:
    out: list[EncodedExample] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            ex = TokenizedExample(
                token_ids=np.asarray(d["token_ids"], dtype=np.int32),
                segment_flags=np.asarray(d["segment_flags"], dtype=np.int8),
                word_index=np.asarray(d["word_index"], dtype=np.int32),
                boost=np.asarray(d["boost"], dtype=np.float64),
                gold_span=tuple(d["gold_span"]) if d["gold_span"] else None,
                truncated=d["truncated"],
                words=d["words"],
                n_question_words=d["n_question_words"],
                context_word_spans=[tuple(s) for s in d["context_word_spans"]],
                word_piece_counts=d["word_piece_counts"],
            )
            out.append(EncodedExample(id=d["id"], example=ex, gold_texts=d["gold_texts"]))
    return out

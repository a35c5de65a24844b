"""``conceptqa data encode`` writes the same bytes as the commit that pinned them.

A hand-written record set, vocabulary and dictionary go through the CLI, and
the sha256 of the JSONL it writes is compared with ``ENCODE_SHA256``.  The
records hold punctuation, transliterated diacritics, tokens that normalize to
several words ("one/two") or none ("ʿ", "--"), repeated raw tokens, words
that split into several pieces or into [UNK], and contexts cut by a small
``--max-len``, one of them past its answer.  Nothing here runs model math or
draws random numbers, so the digest moves only when encoding does.

A change that alters encoding on purpose prints the new digest with
``python tests/test_encode_golden.py`` and records the old and new digests
in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from conceptqa.cli import main

ENCODE_SHA256 = "7a3b5935d6eec2c4d9b301bfaddbafee37be89a24f90c1d03e6c7e5743b93a9b"

MAX_LEN = 40

CONTEXTS = [
    "The Messenger (ṣallā Allāh ʿalayhi) said: one/two prayers -- at Ṣaḥīḥ "
    "al-Bukhārī, and the Messenger said it again; the messenger's word.",
    "Abū Hurayra narrated: “Allah's Messenger said, ‘Faith has sixty-odd "
    "branches, and Ḥayāʾ is a branch of faith.’” ʿ ... Abū Hurayra / narrated",
    "zzz qqq xyz zzz, the prophet's hadith; hadith hadith? HADITH!",
    "A long context cut at max-len: the the the the the the the the the the "
    "the the the the the the the the the the the the the the the the the the "
    "answer lies past the cut here.",
]

QUESTIONS = [
    "What did the Messenger say?",
    "Who narrated the ḥadīth?",
    "Which word repeats?",
    "Where is it?",
]

ANSWERS = ["one/two prayers", "Abū Hurayra", "hadith; hadith", "past the cut"]

PIECES = (["[PAD]", "[UNK]", "[CLS]", "[SEP]"]
          + list("abcdefghijklmnoprstuwy")
          + ["##" + c for c in "abcdefghijklmnoprstuwy"]
          + ["the", "messenger", "said", "allah", "hadith", "prophet", "##ith",
             "##enger", "narrated", "faith", "one", "two"])

ENTRIES = [
    {"term": "allah", "importance_score": 1.0, "boost_factor": 3.0},
    {"term": "messenger", "importance_score": 0.705, "boost_factor": 2.41},
    {"term": "hadith", "importance_score": 0.55, "boost_factor": 2.1},
    {"term": "faith", "importance_score": 0.0, "boost_factor": 1.0},
]


def write_inputs(root: Path) -> None:
    records = [{"id": f"r{i}", "question": q, "context": c, "answer_text": a,
                "answer_char_start": c.index(a), "all_answers": [a]}
               for i, (q, c, a) in enumerate(zip(QUESTIONS, CONTEXTS, ANSWERS))]
    for name, payload in (("data.json", {"records": records}),
                          ("vocab.json", {"pieces": PIECES}),
                          ("dict.json", {"version": "golden-1", "entries": ENTRIES})):
        (root / name).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def encode_digest(root: Path) -> str:
    write_inputs(root)
    out = root / "encoded.jsonl"
    assert main(["data", "encode", "--in", str(root / "data.json"),
                 "--vocab", str(root / "vocab.json"), "--dict", str(root / "dict.json"),
                 "--out", str(out), "--max-len", str(MAX_LEN)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_the_fixture_reaches_every_case(tmp_path):
    assert encode_digest(tmp_path)
    rows = [json.loads(line) for line in (tmp_path / "encoded.jsonl").read_text("utf-8")
            .splitlines()]
    assert any(r["truncated"] and r["gold_span"] is None for r in rows)
    assert any(r["truncated"] and r["gold_span"] is not None for r in rows)
    assert any(b > 1.0 for r in rows for b in r["boost"])
    assert any(n > 1 for r in rows for n in r["word_piece_counts"])
    assert any(1 in r["token_ids"] for r in rows)  # [UNK]
    assert any(a == b for r in rows  # two words of one raw token: "one/two"
               for a, b in zip(r["context_word_spans"], r["context_word_spans"][1:]))


def test_encode_output_matches_the_pinned_digest(tmp_path):
    assert encode_digest(tmp_path) == ENCODE_SHA256


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digest = encode_digest(Path(tmp))
    print(digest)

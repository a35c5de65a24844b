"""``normalize_words`` is the one normalizer, and it runs once per word.

Its words and ``normalize_text``'s string equal the two-regex reference in
``text_reference.py`` on text drawn from every whitespace code point up to
U+3000, punctuation, the transliteration keys, combining marks and word
characters.  Boost vectors of encoded examples read the tokenizer's already
normalized words without normalizing them again.  ``text.RAW_TOKEN`` is the
one raw-token pattern.  ``write_json`` writes exactly ``json.dumps`` and one
newline, in UTF-8.
"""

import json
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import text_reference as ref
from conceptqa import dictionary, text, tokenizer
from conceptqa.tokenizer import build_boost_vector

WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]
CHARS = sorted({*WHITESPACE, *string.punctuation, "\u2014", "\u00ab", "\u00bf", "\u2026",
                "\u00ad", *text.TRANSLITERATION, "\u0130", "\u03a3", "\u00df",
                "\u0300", "\u0301", "\u0307", "\u0327", *string.digits, "\u0663", "_",
                "a", "Z", "\u00e9", "\u0639"})


def test_alphabet_holds_the_rare_whitespace():
    for ch in "\u001c\u001d\u001e\u001f\u0085\u00a0\u2028\u2029\u3000":
        assert ch in CHARS


@settings(max_examples=1000, deadline=None)
@given(st.text(st.sampled_from(CHARS), max_size=40))
def test_normalizer_matches_two_regex_reference(raw):
    words = text.normalize_words(raw)
    assert words == ref.normalize_words(raw)
    assert text.normalize_text(raw) == ref.normalize_text(raw)


def test_build_boost_vector_does_not_normalize(tiny_encoded, builtin_dict, monkeypatch):
    calls = []
    for module in (text, dictionary, tokenizer):
        for name in ("normalize_text", "normalize_words"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda raw, real=real: calls.append(raw) or real(raw))
    boosted = 0
    for enc in tiny_encoded:
        boost = build_boost_vector(enc.example, builtin_dict)
        assert boost.tobytes() == enc.example.boost.tobytes()
        boosted += int((boost > 1.0).any())
    assert boosted > 0
    assert calls == []


def test_one_raw_token_pattern():
    # words_with_spans and the tokenizer's raw-token pass read text.RAW_TOKEN;
    # no other module spells the pattern
    package = Path(text.__file__).parent
    spelled = [path.name for path in sorted(package.glob("*.py"))
               if r'r"\S+"' in path.read_text(encoding="utf-8")]
    assert spelled == ["text.py"]
    assert tokenizer.RAW_TOKEN is text.RAW_TOKEN


@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize("indent", [0, 1, 2])
def test_write_json_writes_dumps_and_one_newline(tmp_path, indent, sort_keys):
    payload = {"\u1e63a\u1e25\u012b\u1e25": ["\u02bfilm", 1.5, None, True],
               "a": {"z": "\u0639", "b": 2}, "": []}
    path = tmp_path / "out.json"
    text.write_json(path, payload, indent, sort_keys=sort_keys)
    want = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
    assert text.read_json_object(path, dict) == payload

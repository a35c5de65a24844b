"""The two-regex normalizer that ``text.normalize_words`` replaced, kept as a reference.

``test_text.py`` checks that ``normalize_words`` and ``normalize_text`` give
the same words and strings as these two functions.  The old code collapsed
each whitespace run with a second regex and stripped the ends; the new one
splits on whitespace, which tests the same code points as the regex ``\\s``.
"""

import re

from conceptqa.text import TRANSLITERATION

_TRANSLIT_TABLE = str.maketrans(TRANSLITERATION)
_PUNCT_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    text = text.lower().translate(_TRANSLIT_TABLE)
    text = _PUNCT_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def normalize_words(text: str) -> list[str]:
    norm = normalize_text(text)
    return norm.split(" ") if norm else []

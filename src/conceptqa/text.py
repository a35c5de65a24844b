"""Text normalization and the JSON-object file reader, shared across the package.

Normalization is deliberately simple and deterministic: lowercase, map a small
transliteration table (so e.g. "Ṣaḥīḥ" and "sahih" compare equal), strip
punctuation, collapse whitespace.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

# Minimal transliteration fixture for romanized classical-Arabic spellings.
# Keys are single characters; values are plain ASCII replacements.
TRANSLITERATION = {
    "ā": "a",  # ā
    "ī": "i",  # ī
    "ū": "u",  # ū
    "ṣ": "s",  # ṣ
    "Ṣ": "s",  # Ṣ
    "ḥ": "h",  # ḥ
    "Ḥ": "h",  # Ḥ
    "ḍ": "d",  # ḍ
    "ṭ": "t",  # ṭ
    "ẓ": "z",  # ẓ
    "ġ": "g",  # ġ
    "ʿ": "",   # ʿ (ayn)
    "ʾ": "",   # ʾ (hamza)
    "‘": "",
    "’": "",
}

_TRANSLIT_TABLE = str.maketrans(TRANSLITERATION)
_PUNCT_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase, transliterate, strip punctuation and collapse whitespace."""
    text = text.lower().translate(_TRANSLIT_TABLE)
    text = _PUNCT_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def normalize_words(text: str) -> list[str]:
    """Normalized word list of ``text`` (empty list for blank input)."""
    norm = normalize_text(text)
    return norm.split(" ") if norm else []


def words_with_spans(text: str) -> list[tuple[str, int, int]]:
    """Whitespace-delimited words of raw ``text`` with [start, end) char spans.

    Spans index the original string, so they stay valid for answer-offset
    bookkeeping even though the word content is later normalized.
    """
    return [(m.group(0), m.start(), m.end()) for m in re.finditer(r"\S+", text)]


JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
              float: "number", bool: "boolean", type(None): "null"}


def read_json_object(path: Path) -> dict:
    """The JSON object in file ``path``; anything else raises ValueError naming the file."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if type(payload) is not dict:
        raise ValueError(f"{path}: expected a JSON object, got {JSON_NAMES[type(payload)]}")
    return payload

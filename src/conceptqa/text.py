"""Text normalization, the reader of JSON input files and the writer of JSON
output files, shared across the package.

Normalization is deliberately simple and deterministic: lowercase, map a small
transliteration table (so e.g. "Ṣaḥīḥ" and "sahih" compare equal), turn
punctuation into spaces and split on whitespace.  ``normalize_words`` is the
one normalizer; ``normalize_text`` joins its words with single spaces.
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
# A raw token: a maximal run of non-whitespace, before any normalization.
RAW_TOKEN = re.compile(r"\S+")


def normalize_words(text: str) -> list[str]:
    """Lowercase, transliterate, turn punctuation into spaces and split on
    whitespace (empty list for blank input)."""
    return _PUNCT_RE.sub(" ", text.lower().translate(_TRANSLIT_TABLE)).split()


def normalize_text(text: str) -> str:
    """The words of ``normalize_words`` joined by single spaces."""
    return " ".join(normalize_words(text))


def words_with_spans(text: str) -> list[tuple[str, int, int]]:
    """Whitespace-delimited words of raw ``text`` with [start, end) char spans.

    Spans index the original string, so they stay valid for answer-offset
    bookkeeping even though the word content is later normalized.
    """
    return [(m.group(0), m.start(), m.end()) for m in RAW_TOKEN.finditer(text)]


JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
              float: "number", bool: "boolean", type(None): "null"}


def read_json_object(path: Path, parse, error: type[ValueError] = ValueError):
    """``parse`` of the JSON object in file ``path``.

    A file that is not JSON, holds anything but an object, or whose object
    ``parse`` rejects with ValueError raises ``error`` naming the file and the
    location, e.g. ``d.json: entries[0].term: expected string, got integer``.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if type(payload) is not dict:
            raise ValueError(f"expected a JSON object, got {JSON_NAMES[type(payload)]}")
        return parse(payload)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


def write_json(path, payload, indent: int, sort_keys: bool = False) -> None:
    """Write ``payload`` to file ``path`` as UTF-8 JSON ending in one newline,
    making the file's directory if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n",
                    encoding="utf-8")


_REQUIRED = object()


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
                         f"{' or '.join(JSON_NAMES[k] for k in kinds)}, "
                         f"got {JSON_NAMES[type(value)]}")
    return value


def _items(items: list, kind: type, where: str):
    """(location, item) for each item of a JSON array that must hold ``kind``s."""
    for n, item in enumerate(items):
        if type(item) is not kind:
            raise ValueError(f"{where}[{n}]: expected {JSON_NAMES[kind]}, "
                             f"got {JSON_NAMES[type(item)]}")
        yield f"{where}[{n}]", item

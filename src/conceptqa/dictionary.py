"""Concept dictionary: importance scores and attention boost factors.

A concept dictionary is a small, frozen table of single-word domain terms.
Each term carries an importance score IS in [0, 1] derived from log corpus
frequency times a scholarly weight, and a boost factor BF = 2 * IS + 1 in
[1, 3] that later scales token emphasis inside the encoder.  A curated 12-term fixture
ships with the package (``builtin_dictionary``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

from .text import _field, _items, normalize_text, normalize_words, read_json_object, write_json

log = logging.getLogger(__name__)

# Tolerance for the BF = 2*IS + 1 coupling when validating serialized files
# (values in files are typically rounded to two decimals).
BF_INVARIANT_TOL = 0.005

SCHOLAR_WEIGHT_RANGE = (0.8, 1.2)


class DictionaryError(ValueError):
    """Malformed dictionary file or violated dictionary invariant."""


@dataclass(frozen=True)
class ConceptEntry:
    term: str
    importance_score: float
    boost_factor: float
    category: str = ""
    corpus_frequency: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.importance_score <= 1.0:
            raise DictionaryError(
                f"term {self.term!r}: importance_score {self.importance_score} outside [0, 1]"
            )
        if not 1.0 <= self.boost_factor <= 3.0:
            raise DictionaryError(
                f"term {self.term!r}: boost_factor {self.boost_factor} outside [1, 3]"
            )
        expected = boost_factor(self.importance_score)
        if abs(self.boost_factor - expected) > BF_INVARIANT_TOL:
            raise DictionaryError(
                f"term {self.term!r}: boost_factor {self.boost_factor} inconsistent with "
                f"importance_score (expected {expected:.4f} +/- {BF_INVARIANT_TOL})"
            )


@dataclass
class ConceptDictionary:
    """Immutable-by-convention term table keyed by each term's one normalized word."""

    entries: dict[str, ConceptEntry]
    version: str = "unversioned"
    # Populated by build_dictionary for terms never seen in the corpus;
    # excluded from equality and from serialization.
    build_warnings: list[str] = field(default_factory=list, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    def boost_of(self, word: str) -> float:
        """Boost factor of an already normalized ``word`` (one of ``normalize_words``),
        1.0 when it is not in the dictionary."""
        entry = self.entries.get(word)
        return entry.boost_factor if entry is not None else 1.0

    def validate(self) -> None:
        for key, entry in self.entries.items():
            if _one_word(entry.term) != key:
                raise DictionaryError(f"entry key {key!r} does not match term {entry.term!r}")
            entry.validate()


def _one_word(term: str) -> str:
    """The one normalized word of ``term``; DictionaryError naming it otherwise."""
    words = normalize_words(term)
    if len(words) != 1:
        raise DictionaryError(f"term {term!r} normalizes to {len(words)} words, not one")
    return words[0]


def boost_factor(importance: float) -> float:
    """Linear map of an importance score into the [1.0, 3.0] boost range."""
    if not 0.0 <= importance <= 1.0:
        raise ValueError(f"importance out of range: {importance}")
    return 2.0 * importance + 1.0


def _check_weight(term: str, w: float) -> float:
    lo, hi = SCHOLAR_WEIGHT_RANGE
    if not lo <= w <= hi:
        raise ValueError(f"scholar weight for {term!r} is {w}, outside [{lo}, {hi}]")
    return w


def compute_importance(
    term_freqs: dict[str, int],
    weights: dict[str, float] | None = None,
) -> dict[str, float]:
    """Importance scores from raw occurrence counts and scholarly weights.

    IS(t) = log(f_t + 1) / max_j log(f_j + 1) * w(t), clamped to [0, 1].
    Missing weights default to 1.0.  The number of clamped terms is logged.
    """
    if not term_freqs:
        raise ValueError("empty corpus")
    weights = weights or {}
    for term, count in term_freqs.items():
        if count < 1:
            raise ValueError(f"term {term!r} has count {count}; counts must be >= 1")
    for term, w in weights.items():
        _check_weight(term, w)

    log_max = max(math.log(c + 1.0) for c in term_freqs.values())
    scores: dict[str, float] = {}
    clamped = 0
    for term, count in term_freqs.items():
        raw = math.log(count + 1.0) / log_max * weights.get(term, 1.0)
        if raw > 1.0 or raw < 0.0:
            clamped += 1
        scores[term] = min(1.0, max(0.0, raw))
    if clamped:
        log.warning("importance scores clamped to [0, 1] for %d term(s)", clamped)
    return scores


def build_dictionary(
    corpus: list[str],
    term_list: list[str],
    weights: dict[str, float] | None = None,
    version: str = "built",
) -> ConceptDictionary:
    """Build a dictionary from raw documents: one entry per requested term.

    Occurrence counts feed the importance score; document fraction is stored
    separately as corpus_frequency.  Terms absent from the whole corpus get a
    neutral entry (IS 0, BF 1.0) and a warning in ``build_warnings``.
    """
    if not term_list:
        raise ValueError("term_list is empty")
    if not corpus:
        raise ValueError("empty corpus")

    norm_terms = {}
    for term in term_list:
        key = _one_word(term)
        if key in norm_terms:
            raise DictionaryError(f"duplicate term after normalization: {term!r}")
        norm_terms[key] = term

    weights = {normalize_text(t): w for t, w in (weights or {}).items()}

    occurrences = {key: 0 for key in norm_terms}
    doc_hits = {key: 0 for key in norm_terms}
    for doc in corpus:
        seen = set()
        for w in normalize_words(doc):
            if w in occurrences:
                occurrences[w] += 1
                seen.add(w)
        for w in seen:
            doc_hits[w] += 1

    present = {k: c for k, c in occurrences.items() if c > 0}
    warnings: list[str] = []
    scores = compute_importance(present, weights) if present else {}

    entries: dict[str, ConceptEntry] = {}
    for key, surface in norm_terms.items():
        if key in scores:
            is_ = scores[key]
        else:
            is_ = 0.0
            warnings.append(f"term {surface!r} never observed in the corpus; boost set to 1.0")
        entries[key] = ConceptEntry(
            term=key,
            importance_score=is_,
            boost_factor=boost_factor(is_),
            category="",
            corpus_frequency=doc_hits[key] / len(corpus),
        )
    return ConceptDictionary(entries=entries, version=version, build_warnings=warnings)


def save_dictionary(dictionary: ConceptDictionary, path: str | Path) -> None:
    dictionary.validate()
    payload = {
        "version": dictionary.version,
        "entries": [asdict(e) for e in dictionary.entries.values()],
    }
    write_json(path, payload, indent=2)


def _dictionary_from_payload(payload: dict) -> ConceptDictionary:
    entries: dict[str, ConceptEntry] = {}
    for at, raw in _items(_field(payload, "entries", (list,), ""), dict, "entries"):
        entry = ConceptEntry(
            term=_field(raw, "term", (str,), at),
            importance_score=_field(raw, "importance_score", (int, float), at),
            boost_factor=_field(raw, "boost_factor", (int, float), at),
            category=_field(raw, "category", (str,), at, ""),
            corpus_frequency=_field(raw, "corpus_frequency", (int, float), at, 0.0),
        )
        key = normalize_text(entry.term)
        if key in entries:
            raise DictionaryError(f"duplicate term {entry.term!r}")
        entries[key] = entry
    d = ConceptDictionary(entries, _field(payload, "version", (str,), "", "unversioned"))
    d.validate()
    return d


def load_dictionary(path: str | Path) -> ConceptDictionary:
    """Load and validate a dictionary JSON file (BF invariant enforced)."""
    return read_json_object(Path(path), _dictionary_from_payload, DictionaryError)


def builtin_dictionary() -> ConceptDictionary:
    """The packaged 12-term fixture dictionary."""
    return read_json_object(resources.files("conceptqa.fixtures") / "concept_dictionary.json",
                            _dictionary_from_payload, DictionaryError)


def load_weights(path: str | Path) -> dict[str, float]:
    """Read a ``{"term": number}`` scholar-weight map; a malformed one, or a weight
    outside ``SCHOLAR_WEIGHT_RANGE``, raises ValueError naming the file."""
    return read_json_object(Path(path), lambda payload: {
        term: _check_weight(term, _field(payload, term, (int, float), "")) for term in payload})


def empty_dictionary(version: str = "empty") -> ConceptDictionary:
    return ConceptDictionary(entries={}, version=version)

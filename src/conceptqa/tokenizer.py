"""Subword tokenization, QA sequence packing and boost-vector construction.

The vocabulary is trained with greedy frequency merges (ties broken
lexicographically) and applied with longest-match-first matching, so a
word like "messenger" may split into several pieces marked with a "##"
continuation prefix.  Sequences are packed as

    [CLS] question pieces [SEP] context pieces [SEP]

with the context tail truncated first.  Each token carries the index of its
source word so that a word-level boost factor can be spread over its pieces.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dictionary import ConceptDictionary
from .text import normalize_words, read_json_object, words_with_spans

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIALS = (PAD, UNK, CLS, SEP)
CONT = "##"

# segment_flags values
SEG_SPECIAL = 0
SEG_QUESTION = 1
SEG_CONTEXT = 2

DEFAULT_MAX_LEN = 384


@dataclass
class Vocab:
    pieces: list[str]
    piece_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if type(self.pieces) is not list or not all(type(p) is str for p in self.pieces):
            raise ValueError("'pieces' must be an array of strings")
        self.piece_to_id = {p: i for i, p in enumerate(self.pieces)}
        if len(self.piece_to_id) != len(self.pieces):
            raise ValueError("duplicate pieces in vocabulary")
        for s in SPECIALS:
            if s not in self.piece_to_id:
                raise ValueError(f"special marker {s} missing from vocabulary")

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def cls_id(self) -> int:
        return self.piece_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self.piece_to_id[SEP]

    def encode_word(self, word: str) -> list[str]:
        """Longest-match-first subword split; [UNK] when the word is not coverable."""
        out: list[str] = []
        start = 0
        while start < len(word):
            for end in range(len(word), start, -1):
                piece = word[start:end] if start == 0 else CONT + word[start:end]
                if piece in self.piece_to_id:
                    break
            else:
                return [UNK]
            out.append(piece)
            start = end
        return out

    def encode_words(self, words: list[str]) -> tuple[list[int], list[int]]:
        """Piece ids of ``words`` in order, and the piece count of each word."""
        ids: list[int] = []
        counts: list[int] = []
        for word in words:
            pieces = self.encode_word(word)
            ids += self.pieces_to_ids(pieces)
            counts.append(len(pieces))
        return ids, counts

    def pack(self, *segments: list[int]) -> np.ndarray:
        """``[CLS] segment [SEP] segment [SEP] ...`` as int32 token ids."""
        ids = [self.cls_id]
        for segment in segments:
            ids += segment
            ids.append(self.sep_id)
        return np.asarray(ids, dtype=np.int32)

    def pieces_to_ids(self, pieces: list[str]) -> list[int]:
        return [self.piece_to_id[p] for p in pieces]

    def ids_to_pieces(self, ids) -> list[str]:
        return [self.pieces[i] for i in ids]

    def decode(self, ids) -> str:
        """Join pieces back into normalized text, dropping special markers."""
        words: list[str] = []
        for piece in self.ids_to_pieces(ids):
            if piece in SPECIALS:
                continue
            if piece.startswith(CONT) and words:
                words[-1] += piece[len(CONT):]
            else:
                words.append(piece[len(CONT):] if piece.startswith(CONT) else piece)
        return " ".join(words)


def save_vocab(vocab: Vocab, path) -> None:
    Path(path).write_text(json.dumps({"pieces": vocab.pieces}, indent=0) + "\n",
                          encoding="utf-8")


def load_vocab(path) -> Vocab:
    """Read a ``save_vocab`` file; a malformed one raises ValueError naming the file."""
    return read_json_object(Path(path), lambda payload: Vocab(pieces=payload.get("pieces")))


def train_vocab(corpus: list[str], target_size: int) -> Vocab:
    """Greedy frequency-merge vocabulary of exactly ``target_size`` pieces.

    Deterministic for a fixed corpus: the most frequent adjacent piece pair is
    merged each round, ties resolved by the lexicographically smallest pair.
    """
    if not corpus:
        raise ValueError("empty corpus")

    word_freqs = Counter()
    for doc in corpus:
        word_freqs.update(normalize_words(doc))
    if not word_freqs:
        raise ValueError("corpus contains no words after normalization")

    base: set[str] = set()
    splits: dict[str, list[str]] = {}
    for word in word_freqs:
        symbols = [word[0]] + [CONT + ch for ch in word[1:]]
        splits[word] = symbols
        base.update(symbols)

    pieces = list(SPECIALS) + sorted(base)
    if target_size < len(pieces):
        raise ValueError(
            f"target_size {target_size} below minimum {len(pieces)} "
            f"({len(base)} base pieces + {len(SPECIALS)} specials)"
        )
    known = set(pieces)

    while len(pieces) < target_size:
        pair_counts = Counter()
        for word, symbols in splits.items():
            freq = word_freqs[word]
            for a, b in zip(symbols, symbols[1:]):
                pair_counts[(a, b)] += freq
        if not pair_counts:
            raise ValueError(
                f"target_size {target_size} unreachable: vocabulary saturated at {len(pieces)}"
            )
        best_count = max(pair_counts.values())
        a, b = min(p for p, c in pair_counts.items() if c == best_count)
        merged = a + (b[len(CONT):] if b.startswith(CONT) else b)
        for word, symbols in splits.items():
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == a and symbols[i + 1] == b:
                    symbols[i:i + 2] = [merged]
                else:
                    i += 1
        if merged not in known:
            known.add(merged)
            pieces.append(merged)

    return Vocab(pieces=pieces)


@dataclass
class TokenizedExample:
    """A packed QA sequence plus the alignment bookkeeping around it.

    ``words`` holds the normalized source words (question first, then
    context); ``word_index`` maps each token to its entry there, -1 for
    special markers.  ``context_word_spans`` keeps raw character spans so
    answer offsets survive normalization.
    """

    token_ids: np.ndarray
    segment_flags: np.ndarray
    word_index: np.ndarray
    boost: np.ndarray
    gold_span: tuple[int, int] | None = None
    truncated: bool = False
    words: list[str] = field(default_factory=list)
    n_question_words: int = 0
    context_word_spans: list[tuple[int, int]] = field(default_factory=list)
    word_piece_counts: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.token_ids)

    def span_text(self, vocab: Vocab, span: tuple[int, int]) -> str:
        """Detokenized text of an inclusive token span."""
        s, e = span
        return vocab.decode(self.token_ids[s:e + 1])


def _fragments(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Normalized word fragments of raw text with the raw span they came from.

    A raw whitespace token can normalize to zero fragments (pure punctuation)
    or several ("one/two"); every fragment inherits the raw token's span.
    """
    words: list[str] = []
    spans: list[tuple[int, int]] = []
    for raw, start, end in words_with_spans(text):
        for frag in normalize_words(raw):
            words.append(frag)
            spans.append((start, end))
    return words, spans


def question_words(question: str) -> list[str]:
    """Normalized words of ``question``; ValueError when it has none."""
    words = normalize_words(question)
    if not words:
        raise ValueError("question is empty")
    return words


def answer_words(spans: list[tuple[int, int]], start: int, end: int) -> list[int]:
    """Indices of the word ``spans`` that overlap the answer's characters
    [start, end); ValueError when none does."""
    overlapped = [i for i, (s, e) in enumerate(spans) if s < end and e > start]
    if not overlapped:
        raise ValueError("span mismatch: answer does not overlap any context word")
    return overlapped


def check_answer_words(context: str, start: int, end: int) -> None:
    """``answer_words`` over the context words of ``encode_qa``, reading only the
    raw words that touch [start, end)."""
    left, right = start, end
    while left > 0 and not context[left - 1].isspace():
        left -= 1
    while right < len(context) and not context[right].isspace():
        right += 1
    answer_words(_fragments(context[left:right])[1], start - left, end - left)


def encode_qa(
    question: str,
    context: str,
    vocab: Vocab,
    max_len: int = DEFAULT_MAX_LEN,
) -> TokenizedExample:
    """Pack a question/context pair into one fixed-budget token sequence.

    The question is kept whole (it may use at most ``max_len // 2`` slots
    including [CLS] and its [SEP]); the context is truncated from the tail
    when the total would exceed ``max_len``.
    """
    q_words = question_words(question)
    c_words, c_spans = _fragments(context)

    q_ids, q_counts = vocab.encode_words(q_words)
    if 1 + len(q_ids) + 1 > max_len // 2:
        raise ValueError(
            f"question too long: {len(q_ids)} pieces exceed the {max_len // 2}-slot budget"
        )
    c_ids, c_counts = vocab.encode_words(c_words)
    budget = max_len - len(q_ids) - 3  # slots left for context pieces
    truncated = len(c_ids) > budget
    c_ids = c_ids[:budget]

    n_q, n_c = len(q_ids), len(c_ids)
    counts = q_counts + c_counts
    owners = np.repeat(np.arange(len(counts), dtype=np.int32), counts)[:n_q + n_c]
    segments = np.array([SEG_SPECIAL, SEG_QUESTION, SEG_SPECIAL, SEG_CONTEXT, SEG_SPECIAL],
                        dtype=np.int8)
    return TokenizedExample(
        token_ids=vocab.pack(q_ids, c_ids),
        segment_flags=np.repeat(segments, [1, n_q, 1, n_c, 1]),
        word_index=np.insert(owners, [0, n_q, n_q + n_c], -1),
        boost=np.ones(n_q + n_c + 3, dtype=np.float64),
        gold_span=None,
        truncated=truncated,
        words=q_words + c_words,
        n_question_words=len(q_words),
        context_word_spans=c_spans,
        word_piece_counts=counts,
    )


def align_answer_span(
    context: str,
    answer_text: str,
    answer_char_start: int,
    example: TokenizedExample,
) -> tuple[int, int] | None:
    """Inclusive token span covering the answer, or None if truncated away.

    The answer must actually occur at the stated character offset.  A span
    that is only partially inside the packed sequence counts as absent: the
    caller never gets a silently clipped span.
    """
    end_char = answer_char_start + len(answer_text)
    if context[answer_char_start:end_char] != answer_text:
        raise ValueError(
            f"span mismatch: context at offset {answer_char_start} does not read {answer_text!r}"
        )

    overlapped = answer_words(example.context_word_spans, answer_char_start, end_char)
    # The answer's words are a run and truncation only cuts the tail, so the
    # span is whole exactly when its last word kept all of its pieces.
    first, last = (example.n_question_words + i for i in (overlapped[0], overlapped[-1]))
    in_last = np.flatnonzero(example.word_index == last)
    if in_last.size != example.word_piece_counts[last]:
        return None
    return int(np.argmax(example.word_index == first)), int(in_last[-1])


def build_boost_vector(example: TokenizedExample, dictionary: ConceptDictionary) -> np.ndarray:
    """Per-token boost vector: the word-level boost increment spread evenly.

    A word with boost factor BF contributes M_i = 1 + (BF - 1) / n to each of
    its n pieces in the sequence; non-dictionary words and special markers
    stay at the neutral 1.0.
    """
    owners = example.word_index
    counts = np.bincount(owners[owners >= 0], minlength=len(example.words)).tolist()
    per_word = [1.0 + (dictionary.boost_of(word) - 1.0) / n if n else 1.0
                for word, n in zip(example.words, counts)]
    return np.array(per_word + [1.0])[owners]  # the trailing 1.0 serves the markers' -1

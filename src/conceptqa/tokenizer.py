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

import heapq
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dictionary import ConceptDictionary
from .text import RAW_TOKEN, normalize_words, read_json_object, write_json

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIALS = (PAD, UNK, CLS, SEP)
CONT = "##"

# segment_flags values
SEG_SPECIAL = 0
SEG_QUESTION = 1
SEG_CONTEXT = 2

DEFAULT_MAX_LEN = 384

# Most entries each of a Vocab's two encode memos keeps (distinct words; distinct
# raw tokens); later new ones are split or normalized each time they occur.
ENCODE_MEMO_SIZE = 1 << 16


@dataclass
class Vocab:
    pieces: list[str]
    piece_to_id: dict[str, int] = field(init=False)
    # word -> piece ids, filled by encode_words; not part of the vocabulary
    _memo: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False,
                                               default_factory=dict)
    # raw context token -> its normalized words, filled by encode_qa; not part
    # of the vocabulary either
    _fragment_memo: dict[str, tuple[str, ...]] = field(init=False, repr=False,
                                                        compare=False, default_factory=dict)

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
        """Piece ids of ``words`` in order, and the piece count of each word.

        Each distinct word is split once: its ids go into the memo, up to
        ``ENCODE_MEMO_SIZE`` words.
        """
        ids: list[int] = []
        counts: list[int] = []
        memo = self._memo
        for word in words:
            word_ids = memo.get(word)
            if word_ids is None:
                word_ids = tuple(self.pieces_to_ids(self.encode_word(word)))
                if len(memo) < ENCODE_MEMO_SIZE:
                    memo[word] = word_ids
            ids += word_ids
            counts.append(len(word_ids))
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
    write_json(path, {"pieces": vocab.pieces}, indent=0)


def load_vocab(path) -> Vocab:
    """Read a ``save_vocab`` file; a malformed one raises ValueError naming the file."""
    return read_json_object(Path(path), lambda payload: Vocab(pieces=payload.get("pieces")))


def train_vocab(corpus: list[str], target_size: int) -> Vocab:
    """Greedy frequency-merge vocabulary of exactly ``target_size`` pieces.

    Deterministic for a fixed corpus: the most frequent adjacent piece pair is
    merged each round, ties resolved by the lexicographically smallest pair
    ``(a, b)``.  Pair counts are kept incrementally (BPE, Sennrich et al., 2016):
    a pair -> frequency-weighted count map, a pair -> words index and a heap of
    ``(-count, pair)`` whose entries are dropped on pop once their count is
    stale.  A merge rewrites only the words its pair's index names, each left
    to right without overlap, and moves only the counts of the pairs those
    words lose or gain.
    """
    if not corpus:
        raise ValueError("empty corpus")

    word_freqs = Counter()
    for doc in corpus:
        word_freqs.update(normalize_words(doc))
    if not word_freqs:
        raise ValueError("corpus contains no words after normalization")

    base: set[str] = set()
    splits: list[list[str]] = []
    freqs: list[int] = []
    counts: dict[tuple[str, str], int] = {}
    index: dict[tuple[str, str], set[int]] = {}
    for w, (word, freq) in enumerate(word_freqs.items()):
        symbols = [word[0]] + [CONT + ch for ch in word[1:]]
        splits.append(symbols)
        freqs.append(freq)
        base.update(symbols)
        for pair in zip(symbols, symbols[1:]):
            counts[pair] = counts.get(pair, 0) + freq
            index.setdefault(pair, set()).add(w)

    pieces = list(SPECIALS) + sorted(base)
    if target_size < len(pieces):
        raise ValueError(
            f"target_size {target_size} below minimum {len(pieces)} "
            f"({len(base)} base pieces + {len(SPECIALS)} specials)"
        )
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)

    while len(pieces) < target_size:
        while heap and counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)  # stale: the pair's count has moved since
        if not heap:
            raise ValueError(
                f"target_size {target_size} unreachable: vocabulary saturated at {len(pieces)}"
            )
        a, b = heapq.heappop(heap)[1]
        merged = a + (b[len(CONT):] if b.startswith(CONT) else b)
        # the index may name words that have since lost the pair: they merge nothing
        delta: dict[tuple[str, str], int] = {}
        for w in index.pop((a, b)):
            symbols, freq = splits[w], freqs[w]
            for pair in zip(symbols, symbols[1:]):
                delta[pair] = delta.get(pair, 0) - freq
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == a and symbols[i + 1] == b:
                    symbols[i:i + 2] = [merged]
                else:
                    i += 1
            for pair in zip(symbols, symbols[1:]):
                delta[pair] = delta.get(pair, 0) + freq
                index.setdefault(pair, set()).add(w)
        for pair, d in delta.items():
            if d:
                c = counts[pair] = counts.get(pair, 0) + d
                if c:
                    heapq.heappush(heap, (-c, pair))
                else:
                    del counts[pair]
        # A new piece: the scan splits a stretch of a word that no symbol crosses
        # as it splits that string alone (a merged symbol never equals its left
        # part), so every word holding the string merged in the step that first
        # made it and no later pair spells it.  ``Vocab`` rejects duplicates.
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


def _fragments(text: str, memo: dict[str, tuple[str, ...]] | None = None,
               ) -> tuple[list[str], list[tuple[int, int]]]:
    """Normalized word fragments of raw text with the raw span they came from.

    A raw whitespace token can normalize to zero fragments (pure punctuation)
    or several ("one/two"); every fragment inherits the raw token's span.
    Each distinct raw token is normalized once; its fragments are kept in
    ``memo`` (a fresh dict when None), up to ``ENCODE_MEMO_SIZE`` tokens.
    """
    memo = {} if memo is None else memo
    words: list[str] = []
    spans: list[tuple[int, int]] = []
    for m in RAW_TOKEN.finditer(text):
        raw = m.group()
        frags = memo.get(raw)
        if frags is None:
            frags = tuple(normalize_words(raw))
            if len(memo) < ENCODE_MEMO_SIZE:
                memo[raw] = frags
        if len(frags) == 1:  # most raw tokens
            words.append(frags[0])
            spans.append(m.span())
        elif frags:
            words += frags
            spans += [m.span()] * len(frags)
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
    c_words, c_spans = _fragments(context, vocab._fragment_memo)

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
    owners, words = example.word_index, example.words
    entries = dictionary.entries
    counts = np.bincount(owners[owners >= 0], minlength=len(words)).tolist()
    per_word = [1.0] * (len(words) + 1)  # the last 1.0 serves the markers' -1
    for i, word in enumerate(words):
        if word in entries and counts[i]:
            per_word[i] = 1.0 + (dictionary.boost_of(word) - 1.0) / counts[i]
    return np.array(per_word)[owners]

"""The append-loop encoder and the full-rescan merge loop that ``tokenizer.py``
replaced, kept as references.

``test_tokenizer_reference.py`` checks that the slicing encoder in
``conceptqa.tokenizer`` gives the same bytes, dtypes and values as the four
encoder functions here, which split raw text with their own ``_fragments``
(one ``normalize_words`` call per raw token, no memo), and that the
incremental ``train_vocab`` returns the same pieces, or raises the same error,
as the one here, on random corpora.
They are deliberately written the long way: one piece at a time, one mask per
word, every pair recounted in every word each merge round.
"""

from collections import Counter

import numpy as np

from conceptqa.text import normalize_words, words_with_spans
from conceptqa.tokenizer import (
    CLS,
    CONT,
    SEG_CONTEXT,
    SEG_QUESTION,
    SEG_SPECIAL,
    SEP,
    SPECIALS,
    UNK,
    TokenizedExample,
    Vocab,
)


def _fragments(text):
    words, spans = [], []
    for raw, start, end in words_with_spans(text):
        for frag in normalize_words(raw):
            words.append(frag)
            spans.append((start, end))
    return words, spans


def encode_word(vocab, word):
    chars = list(word)
    out = []
    start = 0
    while start < len(chars):
        end = len(chars)
        piece = None
        while start < end:
            cand = "".join(chars[start:end])
            if start > 0:
                cand = CONT + cand
            if cand in vocab.piece_to_id:
                piece = cand
                break
            end -= 1
        if piece is None:
            return [UNK]
        out.append(piece)
        start = end
    return out


def encode_qa(question, context, vocab, max_len):
    q_words = normalize_words(question)
    if not q_words:
        raise ValueError("question is empty")
    c_words, c_spans = _fragments(context)

    q_pieces = [encode_word(vocab, w) for w in q_words]
    c_pieces = [encode_word(vocab, w) for w in c_words]
    n_q_pieces = sum(len(p) for p in q_pieces)
    if 1 + n_q_pieces + 1 > max_len // 2:
        raise ValueError(
            f"question too long: {n_q_pieces} pieces exceed the {max_len // 2}-slot budget"
        )

    tokens = [CLS]
    flags = [SEG_SPECIAL]
    widx = [-1]
    for wi, pieces in enumerate(q_pieces):
        for p in pieces:
            tokens.append(p)
            flags.append(SEG_QUESTION)
            widx.append(wi)
    tokens.append(SEP)
    flags.append(SEG_SPECIAL)
    widx.append(-1)

    budget = max_len - len(tokens) - 1
    truncated = False
    used = 0
    for wi, pieces in enumerate(c_pieces):
        for p in pieces:
            if used == budget:
                truncated = True
                break
            tokens.append(p)
            flags.append(SEG_CONTEXT)
            widx.append(len(q_words) + wi)
            used += 1
        if truncated:
            break
    tokens.append(SEP)
    flags.append(SEG_SPECIAL)
    widx.append(-1)

    ids = np.asarray(vocab.pieces_to_ids(tokens), dtype=np.int32)
    return TokenizedExample(
        token_ids=ids,
        segment_flags=np.asarray(flags, dtype=np.int8),
        word_index=np.asarray(widx, dtype=np.int32),
        boost=np.ones(len(ids), dtype=np.float64),
        gold_span=None,
        truncated=truncated,
        words=q_words + c_words,
        n_question_words=len(q_words),
        context_word_spans=c_spans,
        word_piece_counts=[len(p) for p in q_pieces] + [len(p) for p in c_pieces],
    )


def align_answer_span(context, answer_text, answer_char_start, example):
    end_char = answer_char_start + len(answer_text)
    if context[answer_char_start:end_char] != answer_text:
        raise ValueError(
            f"span mismatch: context at offset {answer_char_start} does not read {answer_text!r}"
        )

    overlapped = [
        i for i, (s, e) in enumerate(example.context_word_spans)
        if s < end_char and e > answer_char_start
    ]
    if not overlapped:
        raise ValueError("span mismatch: answer does not overlap any context word")

    wanted = {example.n_question_words + i for i in overlapped}
    positions = np.flatnonzero(np.isin(example.word_index, list(wanted)))
    if positions.size == 0:
        return None
    present = set(example.word_index[positions].tolist())
    if present != wanted:
        return None
    last_word = max(wanted)
    n_present = int(np.sum(example.word_index == last_word))
    if n_present != example.word_piece_counts[last_word]:
        return None
    return int(positions[0]), int(positions[-1])


def build_boost_vector(example, dictionary):
    values = np.ones(len(example), dtype=np.float64)
    widx = example.word_index
    for wi in np.unique(widx):
        if wi < 0:
            continue
        bf = dictionary.boost_of(example.words[wi])
        if bf == 1.0:
            continue
        mask = widx == wi
        values[mask] = 1.0 + (bf - 1.0) / np.count_nonzero(mask)
    return values


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

"""The append-loop encoder that ``tokenizer.py`` replaced, kept as a reference.

``test_tokenizer_reference.py`` checks that the slicing encoder in
``conceptqa.tokenizer`` gives the same bytes, dtypes and values as these four
functions on random corpora.  They are deliberately written the long way:
one piece at a time, one mask per word.
"""

import numpy as np

from conceptqa.text import normalize_words
from conceptqa.tokenizer import (
    CLS,
    CONT,
    SEG_CONTEXT,
    SEG_QUESTION,
    SEG_SPECIAL,
    SEP,
    UNK,
    TokenizedExample,
    _fragments,
)


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

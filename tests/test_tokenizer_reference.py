"""The slicing encoder and the incremental ``train_vocab`` match their
references byte for byte.

Random vocabularies (random pieces plus a random set of single letters, so
words split into several pieces or fall back to [UNK]), random questions over
a small alphabet, random contexts whose raw tokens also hold punctuation and
transliterated characters, normalize to several words or none, and repeat
(so a vocabulary's raw-token memo is both missed and hit, cold and warm, and
bounded at 0, 3 or its full size), and ``max_len`` from "question too long"
to "no truncation" drive ``encode_word``, ``encode_qa``, ``align_answer_span``
and ``build_boost_vector`` through both implementations.  Random corpora over
two letters drive both ``train_vocab`` implementations through repeated
symbols, count ties and target sizes from below the minimum to past
saturation; synthetic corpora check whole ``vocab.json`` files.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import tokenizer_reference as ref
from conceptqa import synthetic, tokenizer
from conceptqa.dictionary import ConceptDictionary, ConceptEntry
from conceptqa.text import TRANSLITERATION, normalize_words
from conceptqa.tokenizer import (
    CONT,
    SPECIALS,
    TokenizedExample,
    Vocab,
    align_answer_span,
    build_boost_vector,
    encode_qa,
    save_vocab,
    train_vocab,
)

ALPHABET = "abcde"
WORD = st.text(ALPHABET, min_size=1, max_size=6)
# a raw context token: a word, several words ("one/two"), none ("ʿ", "."), or
# letters mixed with transliterated characters and punctuation
RAW_TOKEN = st.one_of(
    WORD, st.tuples(WORD, WORD).map("/".join), st.sampled_from([".", "ʿ", "--", "(a)"]),
    st.text(ALPHABET + "AĀ" + "".join(TRANSLITERATION) + ".,;/'-", min_size=1, max_size=6))


def assert_same_example(got: TokenizedExample, want: TokenizedExample) -> None:
    for f in dataclasses.fields(TokenizedExample):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert (type(a), a) == (type(b), b), f.name
            if isinstance(b, list):
                assert [type(x) for x in a] == [type(x) for x in b], f.name


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def vocabularies(draw):
    pieces = draw(st.lists(st.one_of(WORD, WORD.map(lambda w: CONT + w)),
                           max_size=40, unique=True))
    # with every letter as a piece, words split into several pieces instead of [UNK]
    letters = draw(st.sets(st.sampled_from(ALPHABET)))
    pieces += [p for c in sorted(letters) for p in (c, CONT + c) if p not in pieces]
    return Vocab(pieces=list(SPECIALS) + pieces)


@st.composite
def dictionaries(draw, words):
    terms = draw(st.lists(st.sampled_from(sorted(set(words))), unique=True)) if words else []
    entries = {}
    for term in terms:
        score = draw(st.sampled_from([0.0, 0.02, 0.37, 0.5, 0.999, 1.0]))
        entries[term] = ConceptEntry(term, score, 2.0 * score + 1.0)
    return ConceptDictionary(entries, version="random")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_encoder_matches_reference(data):
    vocab = data.draw(vocabularies())
    pool = data.draw(st.lists(RAW_TOKEN, min_size=1, max_size=8))  # tokens that repeat
    tokens = data.draw(st.lists(st.one_of(st.sampled_from(pool), RAW_TOKEN),
                                min_size=0, max_size=50))
    context = " ".join(tokens)
    question = " ".join(data.draw(st.lists(WORD, min_size=0, max_size=4)))
    max_len = data.draw(st.integers(1, 140))
    memo_size = data.draw(st.sampled_from([0, 3, tokenizer.ENCODE_MEMO_SIZE]))

    for word in normalize_words(f"{question} {context}"):
        assert vocab.encode_word(word) == ref.encode_word(vocab, word)

    want = outcome(ref.encode_qa, question, context, vocab, max_len)
    with mock.patch.object(tokenizer, "ENCODE_MEMO_SIZE", memo_size):
        got = outcome(encode_qa, question, context, vocab, max_len)
        warm = outcome(encode_qa, question, context, vocab, max_len)  # from the memo
    assert len(vocab._fragment_memo) <= memo_size
    if not isinstance(want, TokenizedExample):
        assert got == want and warm == want
        return
    assert_same_example(got, want)
    assert_same_example(warm, want)

    dictionary = data.draw(dictionaries(want.words))
    b_got, b_want = build_boost_vector(got, dictionary), ref.build_boost_vector(want, dictionary)
    assert (b_got.dtype, b_got.tobytes()) == (b_want.dtype, b_want.tobytes())

    starts = [0]
    for t in tokens:
        starts.append(starts[-1] + len(t) + 1)
    for _ in range(3):
        if not tokens:
            break
        w0 = data.draw(st.integers(0, len(tokens) - 1))
        w1 = data.draw(st.integers(w0, len(tokens) - 1))
        offset = starts[w0]
        if data.draw(st.booleans()):
            offset = data.draw(st.integers(0, len(context)))
        answer = context[starts[w0]:starts[w1] + len(tokens[w1])]
        assert outcome(align_answer_span, context, answer, offset, got) == \
            outcome(ref.align_answer_span, context, answer, offset, want)


@settings(max_examples=300, deadline=None)
@given(vocab=vocabularies(), word=st.text(ALPHABET + "#x", max_size=8))
def test_encode_word_matches_reference(vocab, word):
    assert vocab.encode_word(word) == ref.encode_word(vocab, word)


def trained_pieces(train, corpus, target_size):
    """``train(corpus, target_size).pieces``, or the ValueError's type and message."""
    return outcome(lambda: train(corpus, target_size).pieces)


def case(result) -> str:
    """The kind of outcome, counted by ``--hypothesis-show-statistics``."""
    if isinstance(result, list):
        return "trained"
    return next(k for k in ("below minimum", "saturated", "empty corpus", "no words")
                if k in result[1])


# Two letters, so that words repeat symbols ("aaaa" has three (##a, ##a)
# pairs, merged left to right without overlap) and pair counts often tie.
TRAIN_WORD = st.text("ab", min_size=1, max_size=8)
TRAIN_DOC = st.lists(st.one_of(TRAIN_WORD, TRAIN_WORD.map(str.upper), st.just("a.b"),
                               st.just("?")), max_size=8).map(" ".join)


def minimum_size(corpus) -> int:
    """The specials plus the base pieces: each word's first letter, and its
    other letters as continuations."""
    words = {w for doc in corpus for w in normalize_words(doc)}
    return len(SPECIALS) + len({w[0] for w in words} | {CONT + c for w in words for c in w[1:]})


@settings(max_examples=600, deadline=None)
@given(corpus=st.lists(TRAIN_DOC, max_size=4),
       extra=st.integers(-4, 12) | st.integers(12, 40))
@example(corpus=["aaaa aaaa ab"], extra=3)   # (##a, ##a) merged left to right
@example(corpus=["ab ba"], extra=1)           # tie: (a, ##b) before (b, ##a)
@example(corpus=["aab"], extra=-1)            # below the minimum of 7
@example(corpus=["aab"], extra=3)             # saturated at 9
@example(corpus=[], extra=0)
@example(corpus=["? !"], extra=0)
def test_train_vocab_matches_reference(corpus, extra):
    target_size = minimum_size(corpus) + extra
    want = trained_pieces(ref.train_vocab, corpus, target_size)
    event(case(want))
    assert trained_pieces(train_vocab, corpus, target_size) == want


@pytest.mark.parametrize("seed", [0, 3])
def test_train_vocab_file_matches_reference(tmp_path, seed):
    corpus = synthetic.corpus_texts(synthetic.generate_records(120, seed=seed))
    for size in (256, 384, 512):
        save_vocab(train_vocab(corpus, size), tmp_path / "got.json")
        save_vocab(ref.train_vocab(corpus, size), tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

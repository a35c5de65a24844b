import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conceptqa import tokenizer
from conceptqa.data import encode_dataset
from conceptqa.dictionary import empty_dictionary
from conceptqa.text import normalize_text, normalize_words
from conceptqa.tokenizer import (
    SEG_CONTEXT,
    SEG_QUESTION,
    SEG_SPECIAL,
    SPECIALS,
    Vocab,
    align_answer_span,
    build_boost_vector,
    encode_qa,
    load_vocab,
    save_vocab,
    train_vocab,
)


def word_vocab(words):
    """A vocabulary where every given word is a single piece."""
    return Vocab(pieces=list(SPECIALS) + sorted(set(words)))


class TestTrainVocab:
    def test_most_frequent_word_merges_fully(self):
        vocab = train_vocab(["aaab aaab"], 10)
        assert "aaab" in vocab.piece_to_id
        assert vocab.encode_word("aaab") == ["aaab"]

    def test_deterministic(self):
        corpus = ["the prophet spoke of patience", "patience was spoken of often"]
        v1 = train_vocab(corpus, 44)
        v2 = train_vocab(corpus, 44)
        assert v1.pieces == v2.pieces

    def test_exact_target_size(self):
        vocab = train_vocab(["abc abd abe"], 12)
        assert len(vocab) == 12
        assert len(set(vocab.pieces)) == 12

    def test_round_trip_over_corpus(self, tiny_fixture):
        from conceptqa.synthetic import corpus_texts
        docs = corpus_texts(tiny_fixture)
        vocab = train_vocab(docs, 256)
        for doc in docs:
            pieces = []
            for word in normalize_text(doc).split():
                pieces.extend(vocab.encode_word(word))
            ids = vocab.pieces_to_ids(pieces)
            assert vocab.decode(ids) == normalize_text(doc)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            train_vocab([], 32)

    def test_target_too_small(self):
        with pytest.raises(ValueError, match="below minimum"):
            train_vocab(["abcdefgh"], 5)

    def test_unreachable_target(self):
        with pytest.raises(ValueError, match="saturated"):
            train_vocab(["ab"], 50)

    def test_unknown_word_maps_to_unk(self):
        vocab = train_vocab(["aaab"], 8)
        assert vocab.encode_word("xyz") == ["[UNK]"]


class TestEncodeQA:
    def test_packing_layout(self):
        vocab = word_vocab(["what", "is", "this", "one", "two", "three", "four", "five"])
        ex = encode_qa("what is this", "one two three four five", vocab, max_len=384)
        assert len(ex) == 11  # CLS + 3 + SEP + 5 + SEP
        assert ex.token_ids[0] == vocab.cls_id
        assert ex.token_ids[4] == vocab.sep_id
        assert ex.token_ids[-1] == vocab.sep_id
        np.testing.assert_array_equal(
            ex.segment_flags,
            [SEG_SPECIAL] + [SEG_QUESTION] * 3 + [SEG_SPECIAL] + [SEG_CONTEXT] * 5 + [SEG_SPECIAL],
        )
        assert not ex.truncated

    def test_truncation_caps_at_max_len(self):
        vocab = word_vocab(["q"] + [f"w{i}" for i in range(1000)])
        context = " ".join(f"w{i}" for i in range(1000))
        ex = encode_qa("q", context, vocab, max_len=384)
        assert len(ex) == 384
        assert ex.truncated

    def test_question_too_long(self):
        vocab = word_vocab([f"w{i}" for i in range(300)])
        question = " ".join(f"w{i}" for i in range(200))
        with pytest.raises(ValueError, match="question too long"):
            encode_qa(question, "w0 w1", vocab, max_len=384)

    def test_empty_question(self):
        vocab = word_vocab(["a"])
        with pytest.raises(ValueError, match="question is empty"):
            encode_qa("  ", "a", vocab)

    def test_deterministic_byte_for_byte(self, tiny_vocab):
        a = encode_qa("what was spoken of", "salim spoke of patience .", tiny_vocab)
        b = encode_qa("what was spoken of", "salim spoke of patience .", tiny_vocab)
        assert a.token_ids.tobytes() == b.token_ids.tobytes()
        assert a.segment_flags.tobytes() == b.segment_flags.tobytes()
        assert a.word_index.tobytes() == b.word_index.tobytes()
        assert a.words == b.words


class TestAlignAnswerSpan:
    def test_first_context_word(self):
        vocab = word_vocab(["q", "alpha", "beta", "gamma"])
        ctx = "alpha beta gamma"
        ex = encode_qa("q", ctx, vocab)
        span = align_answer_span(ctx, "alpha", 0, ex)
        first_context = int(np.flatnonzero(ex.segment_flags == SEG_CONTEXT)[0])
        assert span == (first_context, first_context)

    def test_truncated_answer_absent(self):
        vocab = word_vocab(["q"] + [f"w{i}" for i in range(1000)])
        ctx = " ".join(f"w{i}" for i in range(1000))
        ex = encode_qa("q", ctx, vocab, max_len=384)
        offset = ctx.index("w900")
        assert align_answer_span(ctx, "w900", offset, ex) is None

    def test_span_mismatch(self):
        vocab = word_vocab(["q", "alpha", "beta"])
        ctx = "alpha beta"
        ex = encode_qa("q", ctx, vocab)
        with pytest.raises(ValueError, match="span mismatch"):
            align_answer_span(ctx, "beta", 0, ex)

    def test_random_substring_round_trip(self, tiny_vocab):
        rng = np.random.default_rng(3)
        words = ["salim", "spoke", "of", "patience", "mercy", "justice", "evening",
                 "gathering", "prophet", "charity", "lesson", "teacher"]
        for _ in range(200):
            n = int(rng.integers(4, 10))
            ctx_words = [words[int(rng.integers(len(words)))] for _ in range(n)]
            ctx = " ".join(ctx_words)
            w0 = int(rng.integers(n))
            w1 = int(rng.integers(w0, min(n, w0 + 3)))
            answer = " ".join(ctx_words[w0:w1 + 1])
            start = len(" ".join(ctx_words[:w0])) + (1 if w0 else 0)
            ex = encode_qa("what was spoken of", ctx, tiny_vocab)
            span = align_answer_span(ctx, answer, start, ex)
            assert span is not None
            assert ex.span_text(tiny_vocab, span) == normalize_text(answer)

    def test_gold_span_never_split_silently(self):
        # the answer's last word straddles the truncation boundary -> absent
        vocab = word_vocab(["q"] + [f"w{i}" for i in range(500)])
        ctx = " ".join(f"w{i}" for i in range(500))
        ex = encode_qa("q", ctx, vocab, max_len=64)
        n_ctx = int(np.sum(ex.segment_flags == SEG_CONTEXT))
        last_present = f"w{n_ctx - 1}"
        first_absent = f"w{n_ctx}"
        answer = f"{last_present} {first_absent}"
        span = align_answer_span(ctx, answer, ctx.index(answer), ex)
        assert span is None
        # fully present answer is found
        inside = f"w{n_ctx - 2} {last_present}"
        span = align_answer_span(ctx, inside, ctx.index(inside), ex)
        assert span is not None


class TestEncodeAlignFuzz:
    """Properties of ``encode_qa`` and ``align_answer_span`` on random inputs.

    Contexts mix words over the trained vocabulary's alphabet, "a/b" tokens
    that normalize to two words, and bare punctuation that normalizes to none;
    the answer is a run of whole raw tokens at its true character offset.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_layout_truncation_and_span(self, tiny_vocab, data):
        vocab = tiny_vocab
        word = st.text(sorted(p for p in vocab.pieces if len(p) == 1),
                       min_size=1, max_size=7)
        tokens = data.draw(st.lists(
            st.one_of(word, st.tuples(word, word).map("/".join), st.just(".")),
            min_size=1, max_size=60))
        seps = data.draw(st.lists(st.sampled_from([" ", "  ", "\n"]),
                                  min_size=len(tokens) - 1, max_size=len(tokens) - 1))
        context = tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:]))
        starts = [0]
        for s, t in zip(seps, tokens):
            starts.append(starts[-1] + len(t) + len(s))
        question = " ".join(data.draw(st.lists(word, min_size=1, max_size=5)))
        q_words = normalize_words(question)
        n_q = sum(len(vocab.encode_word(w)) for w in q_words)
        max_len = data.draw(st.integers(2 * (n_q + 2), 2 * (n_q + 2) + 120))

        ex = encode_qa(question, context, vocab, max_len=max_len)
        c_pieces = [len(vocab.encode_word(w)) for w in normalize_words(context)]
        n_ctx = len(ex) - n_q - 3
        assert len(ex) <= max_len
        np.testing.assert_array_equal(
            ex.segment_flags,
            [SEG_SPECIAL] + [SEG_QUESTION] * n_q + [SEG_SPECIAL]
            + [SEG_CONTEXT] * n_ctx + [SEG_SPECIAL])
        assert [ex.token_ids[0], ex.token_ids[n_q + 1], ex.token_ids[-1]] == \
            [vocab.cls_id, vocab.sep_id, vocab.sep_id]
        assert ex.truncated == (n_ctx < sum(c_pieces))
        assert len(ex) == max_len if ex.truncated else n_ctx == sum(c_pieces)

        # an answer of whole raw tokens w0..w1 that normalizes to at least one word
        n_frags = [len(normalize_words(t)) for t in tokens]
        assume(any(n_frags))
        w0 = data.draw(st.sampled_from([i for i, n in enumerate(n_frags) if n]))
        w1 = data.draw(st.sampled_from([i for i in range(w0, len(tokens)) if n_frags[i]]))
        start, end = starts[w0], starts[w1] + len(tokens[w1])
        answer = context[start:end]
        c0 = sum(n_frags[:w0])  # the answer's context words are c0..c1 - 1
        c1 = c0 + sum(n_frags[w0:w1 + 1])
        positions = np.flatnonzero(np.isin(ex.word_index, range(len(q_words) + c0,
                                                                len(q_words) + c1)))
        whole = len(positions) == sum(c_pieces[c0:c1])

        span = align_answer_span(context, answer, start, ex)
        if span is None:
            assert ex.truncated and not whole
        else:
            assert whole
            s, e = span
            assert np.all(ex.segment_flags[s:e + 1] == SEG_CONTEXT)
            np.testing.assert_array_equal(positions, np.arange(s, e + 1))

        wrong = data.draw(st.integers(0, len(context)))
        if context[wrong:wrong + len(answer)] != answer:
            with pytest.raises(ValueError, match="span mismatch"):
                align_answer_span(context, answer, wrong, ex)


class TestBoostVector:
    def test_single_subword_concept(self, builtin_dict):
        vocab = word_vocab(["q", "the", "prophet", "said"])
        ex = encode_qa("q", "the prophet said", vocab)
        boost = build_boost_vector(ex, builtin_dict)
        ctx = np.flatnonzero(ex.segment_flags == SEG_CONTEXT)
        np.testing.assert_allclose(boost[ctx], [1.0, 1.74, 1.0])
        assert np.all(boost[ex.segment_flags == SEG_SPECIAL] == 1.0)

    def test_no_concept_words_all_neutral(self, builtin_dict):
        vocab = word_vocab(["q", "plain", "words", "only"])
        ex = encode_qa("q", "plain words only", vocab)
        assert np.all(build_boost_vector(ex, builtin_dict) == 1.0)

    def test_multi_subword_even_allocation(self, builtin_dict):
        vocab = Vocab(pieces=list(SPECIALS) + ["q", "mess", "##enger"])
        ex = encode_qa("q", "messenger", vocab)
        boost = build_boost_vector(ex, builtin_dict)
        ctx = np.flatnonzero(ex.segment_flags == SEG_CONTEXT)
        assert len(ctx) == 2
        np.testing.assert_allclose(boost[ctx], [1.705, 1.705])

    def test_empty_dictionary_is_all_ones(self, tiny_encoded):
        ex = tiny_encoded[0].example
        boost = build_boost_vector(ex, empty_dictionary())
        assert boost.tobytes() == np.ones(len(ex)).tobytes()

    def test_question_concepts_also_boosted(self, builtin_dict):
        vocab = word_vocab(["about", "prayer", "ctx", "words"])
        ex = encode_qa("about prayer", "ctx words", vocab)
        boost = build_boost_vector(ex, builtin_dict)
        q_pos = np.flatnonzero(ex.segment_flags == SEG_QUESTION)
        assert boost[q_pos[1]] == pytest.approx(1.30)

    def test_bounds_and_word_sum_rule(self, tiny_encoded, builtin_dict):
        for enc in tiny_encoded:
            ex = enc.example
            boost = ex.boost
            assert np.all(boost >= 1.0) and np.all(boost <= 3.0)
            assert len(boost) == len(ex)
            for wi in np.unique(ex.word_index):
                if wi < 0:
                    continue
                mask = ex.word_index == wi
                bf = builtin_dict.boost_of(ex.words[wi])
                assert np.sum(boost[mask] - 1.0) == pytest.approx(bf - 1.0, abs=1e-12)

    def test_permutation_consistency(self, builtin_dict):
        vocab = word_vocab(["q", "prophet", "said", "kindness"])
        ex1 = encode_qa("q", "prophet said kindness", vocab)
        ex2 = encode_qa("q", "said kindness prophet", vocab)
        b1 = build_boost_vector(ex1, builtin_dict)
        b2 = build_boost_vector(ex2, builtin_dict)
        ctx1 = np.flatnonzero(ex1.segment_flags == SEG_CONTEXT)
        ctx2 = np.flatnonzero(ex2.segment_flags == SEG_CONTEXT)
        assert b1[ctx1].tolist() == [1.74, 1.0, 1.0]
        assert b2[ctx2].tolist() == [1.0, 1.0, 1.74]


class TestVocabSerialization:
    def test_round_trip(self, tmp_path, tiny_vocab):
        path = tmp_path / "vocab.json"
        save_vocab(tiny_vocab, path)
        loaded = load_vocab(path)
        assert loaded.pieces == tiny_vocab.pieces
        assert loaded.piece_to_id == tiny_vocab.piece_to_id

    def test_specials_required(self):
        with pytest.raises(ValueError, match="special marker"):
            Vocab(pieces=["a", "b"])

    def test_duplicate_pieces_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocab(pieces=list(SPECIALS) + ["a", "a"])


class TestEncodeMemo:
    """Each Vocab splits a distinct word once and normalizes a distinct raw
    context token once, and keeps each in a bounded memo of its own, which
    nothing else of the vocabulary shows."""

    MEMOS = ("_memo", "_fragment_memo")

    def test_memo_belongs_to_one_vocabulary(self, tmp_path, tiny_fixture, tiny_vocab):
        save_vocab(tiny_vocab, tmp_path / "vocab.json")
        loaded, other = load_vocab(tmp_path / "vocab.json"), Vocab(list(tiny_vocab.pieces))
        rec = tiny_fixture.records[0]
        for name in self.MEMOS:
            assert getattr(loaded, name) == {} and getattr(other, name) == {}
        encode_qa(rec.question, rec.context, loaded)
        for name in self.MEMOS:
            assert getattr(loaded, name) and getattr(other, name) == {}
            assert getattr(loaded, name) is not getattr(other, name)

    def test_memo_is_bounded(self, monkeypatch, tiny_fixture, tiny_vocab):
        monkeypatch.setattr(tokenizer, "ENCODE_MEMO_SIZE", 5)
        words = [w for rec in tiny_fixture.records for w in normalize_words(rec.context)]
        words += ["zzqx", "qqq"]  # not coverable: [UNK]
        assert len(set(words)) > 5
        vocab = Vocab(list(tiny_vocab.pieces))
        expected = [vocab.pieces_to_ids(vocab.encode_word(w)) for w in words]
        for _ in range(2):  # filling the memo, then reading it
            ids, counts = vocab.encode_words(words)
            assert 0 < len(vocab._memo) <= 5
            assert ids == [i for word_ids in expected for i in word_ids]
            assert counts == [len(word_ids) for word_ids in expected]

    def test_fragment_memo_is_bounded(self, monkeypatch, tiny_fixture, tiny_vocab):
        monkeypatch.setattr(tokenizer, "ENCODE_MEMO_SIZE", 5)
        # first, so that tokens of several words or none fill the memo
        records = [("what?", "One/two ʿ ... one/two Ṣaḥīḥ, ṣaḥīḥ ʿ")]
        records += [(r.question, r.context) for r in tiny_fixture.records]
        assert len({raw for _, context in records for raw in context.split()}) > 5
        vocab = Vocab(list(tiny_vocab.pieces))
        for _ in range(2):  # filling the memo, then reading it
            for question, context in records:
                ex = encode_qa(question, context, vocab)
                assert (ex.words[ex.n_question_words:], ex.context_word_spans) == \
                    tokenizer._fragments(context)
            assert 0 < len(vocab._fragment_memo) <= 5
        assert all(frags == tuple(normalize_words(raw))
                   for raw, frags in vocab._fragment_memo.items())

    def test_memo_is_invisible(self, tmp_path, tiny_fixture, tiny_vocab):
        fresh, warm = Vocab(list(tiny_vocab.pieces)), Vocab(list(tiny_vocab.pieces))
        rec = tiny_fixture.records[0]
        encode_qa(rec.question, rec.context, warm)
        assert warm._memo and warm._fragment_memo
        assert fresh == warm and repr(fresh) == repr(warm)
        save_vocab(fresh, tmp_path / "fresh.json")
        save_vocab(warm, tmp_path / "warm.json")
        assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "warm.json").read_bytes()

    def test_warm_vocabulary_encodes_the_same_bytes(self, tiny_fixture, tiny_vocab,
                                                     builtin_dict):
        vocab = Vocab(list(tiny_vocab.pieces))
        cold, _ = encode_dataset(tiny_fixture.records, vocab, builtin_dict)
        warm, _ = encode_dataset(tiny_fixture.records, vocab, builtin_dict)
        assert vocab._memo and vocab._fragment_memo
        for a, b in zip(cold, warm, strict=True):
            for name in ("token_ids", "segment_flags", "word_index", "boost"):
                x, y = getattr(a.example, name), getattr(b.example, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert (a.example.gold_span, a.example.words, a.example.word_piece_counts,
                    a.example.context_word_spans) == \
                (b.example.gold_span, b.example.words, b.example.word_piece_counts,
                 b.example.context_word_spans)


def test_transliteration_normalization():
    assert normalize_text("Ṣaḥīḥ") == "sahih"
    assert normalize_text("The  Prophet, said:") == "the prophet said"

"""Synthetic narration-style QA fixtures with planted concept terms.

Every context contains several "<agent> spoke of <word>" slots; exactly one
agent is a concept-dictionary term and the gold answer is the word spoken in
that slot.  The other slots are filler-name distractors, so locating the
answer requires identifying the doctrinally salient agent.  Generation is
fully deterministic in the seed, runs offline, and can target the length
statistics of the real corpus (mean context about 77.5 words, mean question
about 15.1 words).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .data import DatasetFile, DatasetRecord
from .text import write_json

CONCEPT_AGENTS = [
    "allah", "messenger", "hadith", "prophet", "prayer", "umar",
    "muslim", "ali", "muhammad", "paradise", "faith", "islam",
]

FILLER_AGENTS = [
    "salim", "rafi", "karim", "harun", "yusuf", "tariq", "nadir", "zubair",
    "hakim", "jafar", "idris", "anwar", "bashir", "dawud", "farid", "ghalib",
    "habib", "iqbal", "jamil", "kamal", "latif", "mahdi", "nasir", "qasim",
]

ANSWER_WORDS = [
    "patience", "charity", "honesty", "kindness", "mercy", "justice",
    "gratitude", "humility", "wisdom", "courage", "devotion", "sincerity",
    "modesty", "generosity", "forgiveness", "truthfulness", "compassion",
    "steadfastness", "repentance", "contentment", "diligence", "loyalty",
    "temperance", "hospitality", "fairness", "prudence", "reverence",
    "obedience", "perseverance", "serenity", "integrity", "benevolence",
    "discipline", "fortitude", "tolerance", "vigilance", "clemency",
    "earnestness", "frugality", "gentleness",
]

PAD_SENTENCES = [
    "the gathering continued quietly into the evening hours .",
    "a long caravan crossed the valley before sunrise that day .",
    "the students wrote every word carefully on their tablets .",
    "rain fell gently over the courtyard during the lesson .",
    "many travelers rested beneath the old palm trees nearby .",
    "the market closed early while the lesson carried on .",
    "an elderly teacher recited slowly from a worn manuscript .",
    "children listened from the doorway without making a sound .",
    "the lamps were lit one by one as night settled in .",
    "a gentle breeze moved through the open windows all afternoon .",
    "the scribes compared their copies line by line afterwards .",
    "visitors from distant towns joined the circle that morning .",
]

QUESTION_PADS = [
    "tell us", "clearly and completely", "according to this narration",
    "for those who were absent", "in plain words", "without omission",
    "for the record", "as it was heard", "once more", "in this account",
]

GENERIC_QUESTION = "what was spoken of"
SLOT_TEMPLATE = "{agent} spoke of {answer} with conviction ."


def generate_records(
    n: int,
    seed: int = 0,
    n_slots: int = 3,
    target_context_words: float | None = None,
    target_question_words: float | None = None,
) -> DatasetFile:
    """Build ``n`` planted-concept QA records.

    With no length targets, contexts stay minimal (the slot sentences plus
    one pad).  Every question is ``GENERIC_QUESTION``, which names no agent,
    so it gives no lexical pointer to the right slot.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    max_slots = min(len(FILLER_AGENTS) + 1, len(ANSWER_WORDS))
    if not 1 <= n_slots <= max_slots:
        raise ValueError(f"n_slots (--slots) must be between 1 and {max_slots}, got {n_slots}")
    for name, target in (("target_context_words", target_context_words),
                         ("target_question_words", target_question_words)):
        if target is not None and not 0 < target < math.inf:
            raise ValueError(f"{name} must be a positive number, got {target}")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        concept = CONCEPT_AGENTS[int(rng.integers(len(CONCEPT_AGENTS)))]
        fillers = list(rng.choice(FILLER_AGENTS, size=n_slots - 1, replace=False))
        answers = list(rng.choice(ANSWER_WORDS, size=n_slots, replace=False))
        agents = [concept] + fillers
        order = rng.permutation(n_slots)

        sentences: list[str] = []
        answer_text = answers[0]
        gold_sentence_idx = -1
        for pos, slot in enumerate(order):
            sentences.append(SLOT_TEMPLATE.format(agent=agents[slot], answer=answers[slot]))
            if slot == 0:
                gold_sentence_idx = pos

        # interleave pad sentences up to the target length
        if target_context_words is not None:
            target = max(
                float(rng.normal(target_context_words, target_context_words * 0.06)),
                sum(len(s.split()) for s in sentences) + 1.0,
            )
            wc = sum(len(s.split()) for s in sentences)
            while wc < target - 3.0:
                pad = PAD_SENTENCES[int(rng.integers(len(PAD_SENTENCES)))]
                where = int(rng.integers(len(sentences) + 1))
                sentences.insert(where, pad)
                if where <= gold_sentence_idx:
                    gold_sentence_idx += 1
                wc += len(pad.split())
        else:
            pad = PAD_SENTENCES[int(rng.integers(len(PAD_SENTENCES)))]
            sentences.append(pad)

        context = " ".join(sentences)
        gold_sentence = sentences[gold_sentence_idx]
        offset_in_sentence = gold_sentence.index(f"spoke of {answer_text}") + len("spoke of ")
        answer_start = (
            sum(len(s) + 1 for s in sentences[:gold_sentence_idx]) + offset_in_sentence
        )
        assert context[answer_start:answer_start + len(answer_text)] == answer_text

        question = GENERIC_QUESTION
        if target_question_words is not None:
            want = max(float(rng.normal(target_question_words, 1.5)), len(question.split()))
            pads = []
            while len(question.split()) + sum(len(p.split()) for p in pads) < want - 1.0:
                pads.append(QUESTION_PADS[int(rng.integers(len(QUESTION_PADS)))])
            question = " ".join(pads + [question])

        records.append(DatasetRecord(
            id=f"syn-{seed}-{i:05d}",
            question=question,
            context=context,
            answer_text=answer_text,
            answer_char_start=int(answer_start),
            all_answers=[answer_text],
        ))
    return DatasetFile(records=records, source_path=f"synthetic(seed={seed})")


def corpus_texts(data: DatasetFile) -> list[str]:
    """Raw documents for vocabulary training (questions plus contexts)."""
    return [f"{r.question} {r.context}" for r in data.records]


def to_squad_payload(data: DatasetFile) -> dict:
    """Re-express records in the v1.1 QA JSON layout (one paragraph each)."""
    paragraphs = [
        {
            "context": r.context,
            "qas": [{
                "id": r.id,
                "question": r.question,
                "answers": [{"text": a, "answer_start": r.answer_char_start}
                            for a in (r.all_answers or [r.answer_text])],
            }],
        }
        for r in data.records
    ]
    return {"version": "1.1", "data": [{"title": "synthetic", "paragraphs": paragraphs}]}


def write_squad(data: DatasetFile, path: str | Path) -> None:
    write_json(path, to_squad_payload(data), indent=1)


"""Workload inputs, one pass of a workload through the public CLI, and the
checks on its outputs.

A pass is: set-up (synthesis, ``data ingest``, ``vocab train``, dictionary
and config write, and for ``eval_mixed`` the ``train`` of its checkpoint),
then the timed commands (``train`` for the train workloads, then ``eval``
and ``predict`` on a held-out test file).  Every pass of a run gets the same
inputs, so its timings are repeated measurements of identical work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import conceptqa.cli
from conceptqa import data, metrics, model, synthetic
from conceptqa.dictionary import builtin_dictionary, save_dictionary
from conceptqa.tokenizer import SEG_CONTEXT, load_vocab

QUESTION_WORDS = 15.0                       # the real corpus mean question
LONG_CONTEXT_WORDS = (250.0, 270.0, 290.0, 310.0)  # spread L past 32 lengths
# Long test rows are a little shorter: under a vocabulary trained on short
# records their words split into more pieces, and they must fit max_len 384.
TEST_LONG_WORDS = (250.0,)
VOCAB_SIZE = 512
LAYERS = conceptqa.cli.DEFAULT_CONFIG["model"]["layers"]
SPLIT_RATIOS = [0.9, 0.1, 0.0]              # test comes from its own file


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int               # records in the training corpus
    long_train: bool           # ~300-word contexts instead of minimal ones
    n_test_short: int
    n_test_long: int
    epochs: tuple[int, int]    # (adaptation, specialization), pinned
    timed_train: bool          # False: the checkpoint is trained in set-up

    @property
    def n_test(self) -> int:
        return self.n_test_short + self.n_test_long

    @property
    def total_epochs(self) -> int:
        return sum(self.epochs)

    @property
    def n_train_split(self) -> int:
        return self.n_train - int(self.n_train * SPLIT_RATIOS[1])

    def config(self) -> dict:
        """Pinned schedule: no early stop, warmup below the step count.

        The model and split seeds stay fixed, so the workload seed changes
        the inputs only."""
        steps = self.total_epochs * math.ceil(self.n_train_split / 4)
        return {
            "train": {"learning_rate": 3e-3, "effective_batch": 4,
                      "warmup_steps": max(1, steps // 10),
                      "max_epochs": self.total_epochs,
                      "patience": self.total_epochs + 1, "seed": 0},
            "stages": [{"stage": "adaptation", "epochs": self.epochs[0]},
                       {"stage": "specialization", "epochs": self.epochs[1]}],
            "split": {"ratios": SPLIT_RATIOS, "seed": 0},
        }


WORKLOADS = {
    w.name: w for w in (
        Workload("train_short", n_train=120, long_train=False, n_test_short=40,
                 n_test_long=0, epochs=(2, 2), timed_train=True),
        Workload("train_long", n_train=44, long_train=True, n_test_short=0,
                 n_test_long=16, epochs=(1, 1), timed_train=True),
        Workload("eval_mixed", n_train=60, long_train=False, n_test_short=30,
                 n_test_long=20, epochs=(2, 2), timed_train=False),
    )
}


def _records(n: int, seed: int, context_words: tuple[float, ...] | None) -> list:
    """``n`` records, minimal contexts or an equal share per context length."""
    if context_words is None:
        return synthetic.generate_records(
            n, seed=seed, target_question_words=QUESTION_WORDS).records
    out = []
    for k, words in enumerate(context_words):
        count = n // len(context_words) + (k < n % len(context_words))
        out += synthetic.generate_records(
            count, seed=seed * 10 + k, target_context_words=words,
            target_question_words=QUESTION_WORDS).records
    return out


def synthesize(wl: Workload, seed: int) -> tuple[data.DatasetFile, data.DatasetFile]:
    """(training corpus, test file), a function of the seed alone."""
    base = 1000 * seed
    train = _records(wl.n_train, base + 1, LONG_CONTEXT_WORDS if wl.long_train else None)
    test = (_records(wl.n_test_short, base + 2, None)
            + _records(wl.n_test_long, base + 3, TEST_LONG_WORDS))
    random.Random(seed).shuffle(test)
    return (data.DatasetFile(records=train, source_path=f"{wl.name}/train"),
            data.DatasetFile(records=test, source_path=f"{wl.name}/test"))


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

class Checks:
    """Operations attempted and failed: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


# Nominal seconds of the reference kernel mix on an undisturbed host; timed
# steps are rescaled to this host speed.
REFERENCE_S = 0.0045


def make_reference():
    """A fixed kernel mix like the program's work: small matmuls, a
    memory-bound einsum and interpreter work.  Calling the result returns its
    median wall time over five repeats (about 30 ms in all), which tracks how
    fast the shared host runs at that moment."""
    rng = np.random.default_rng(0)
    x, w = rng.random((60, 32)), rng.random((32, 32))
    a, b = rng.random((150, 150, 17)), rng.random((150, 150))

    def once() -> float:
        t0 = time.perf_counter()
        for _ in range(400):
            x @ w
        for _ in range(6):
            np.einsum("ijk,ij->ik", a, b)
        total = 0
        for i in range(40000):
            total += i
        return time.perf_counter() - t0

    return lambda: statistics.median(once() for _ in range(5))


@dataclass
class Pass:
    setup_s: float = 0.0
    cmd_s: dict[str, float] = field(default_factory=dict)
    timed: list[str] = field(default_factory=list)
    # reference kernel seconds around each timed step ("setup" and commands)
    ref_s: dict[str, float] = field(default_factory=dict)
    final_loss: float = float("nan")
    checkpoint_sha256: str = ""
    traced: bool = False

    def scaled(self, key: str, run_ref: float) -> float:
        """Seconds of a timed step ("setup" or a command) at the reference
        host speed.  The host speed during the step is the mean of the
        step's own brackets and ``run_ref``, the run's median bracket: the
        brackets see a slow instant that a step of several seconds may
        outlast, and the run median alone misses changes within the run."""
        raw = self.setup_s if key == "setup" else self.cmd_s[key]
        return raw * REFERENCE_S / ((self.ref_s[key] + run_ref) / 2)

    def scaled_wall(self, run_ref: float) -> float:
        return (self.scaled("setup", run_ref)
                + sum(self.scaled(k, run_ref) for k in self.timed))


def _cli(argv: list[str], checks: Checks, timings: dict, key: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = conceptqa.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
    if not checks(f"conceptqa {' '.join(argv[:2])} exits 0", rc == 0,
                  f"exit {rc}: {err.getvalue().strip()[-300:]}"):
        raise RuntimeError(f"conceptqa {argv[0]} failed")


def clear_program_caches() -> None:
    """Empty the program's functools caches, as a fresh ``conceptqa`` process
    starts with them, so that every pass does the same work."""
    for name, mod in list(sys.modules.items()):
        if name == "conceptqa" or name.startswith("conceptqa."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(wl: Workload, seed: int, workdir: Path, checks: Checks,
             reference) -> Pass:
    """Set up in ``workdir`` and run the workload's commands, timing each and
    timing ``reference`` just before and after each timed step."""
    clear_program_caches()
    d = workdir
    d.mkdir(parents=True)
    f = {k: str(d / v) for k, v in dict(
        raw_train="raw_train.json", raw_test="raw_test.json", train="train.json",
        test="test.json", vocab="vocab.json", dict="dict.json", cfg="config.json",
        run="run", eval="eval", pred="predictions.json").items()}
    f["ckpt"] = str(d / "run" / "checkpoint.bin")
    common = ["--vocab", f["vocab"], "--dict", f["dict"]]
    train_argv = ["train", "--data", f["train"], *common, "--out-dir", f["run"],
                  "--config", f["cfg"]]
    p = Pass()
    t = p.cmd_s

    ref_before = reference()
    t0 = time.perf_counter()
    train_set, test_set = synthesize(wl, seed)
    synthetic.write_squad(train_set, f["raw_train"])
    synthetic.write_squad(test_set, f["raw_test"])
    _cli(["data", "ingest", "--in", f["raw_train"], "--out", f["train"]], checks, t, "ingest")
    _cli(["data", "ingest", "--in", f["raw_test"], "--out", f["test"]], checks, t, "ingest")
    _cli(["vocab", "train", "--data", f["train"], "--size", str(VOCAB_SIZE),
          "--out", f["vocab"]], checks, t, "vocab")
    save_dictionary(builtin_dictionary(), f["dict"])
    Path(f["cfg"]).write_text(json.dumps(wl.config()), encoding="utf-8")
    if not wl.timed_train:
        _cli(train_argv, checks, t, "train")
    p.setup_s = time.perf_counter() - t0
    ref_after = reference()
    p.ref_s["setup"] = (ref_before + ref_after) / 2

    timed = [("eval", ["eval", "--checkpoint", f["ckpt"], "--data", f["test"], *common,
                       "--out-dir", f["eval"]]),
             ("predict", ["predict", "--checkpoint", f["ckpt"], "--data", f["test"],
                          *common, "--out", f["pred"]])]
    if wl.timed_train:
        timed.insert(0, ("train", train_argv))
    for key, argv in timed:
        ref_before = ref_after
        p.timed.append(key)
        _cli(argv, checks, t, key)
        ref_after = reference()
        p.ref_s[key] = (ref_before + ref_after) / 2
    if not wl.timed_train:
        p.ref_s["train"] = p.ref_s["setup"]
    return p


# ---------------------------------------------------------------------------
# output checks (untimed, untraced)
# ---------------------------------------------------------------------------

def usable_train_examples(workdir: Path) -> list[int]:
    """Lengths of the training-split examples ``conceptqa train`` learns from."""
    vocab = load_vocab(workdir / "vocab.json")
    split = json.loads((workdir / "config.json").read_text(encoding="utf-8"))["split"]
    train, _, _ = data.split_dataset(data.load_dataset(workdir / "train.json"),
                                     tuple(split["ratios"]), split["seed"])
    encoded, _ = data.encode_dataset(train, vocab, builtin_dictionary())
    return [len(e.example) for e in encoded if e.example.gold_span is not None]


def check_pass(wl: Workload, workdir: Path, p: Pass, checks: Checks,
               first_sha: str | None) -> list[int]:
    """Check every output of a pass; returns the test example lengths."""
    run, ev = workdir / "run", workdir / "eval"

    rows = (run / "history.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
    losses = [float(r.split(",")[1]) for r in rows]
    checks("history has the pinned epoch count", len(losses) == wl.total_epochs,
           f"{len(losses)} epochs, want {wl.total_epochs}")
    checks("losses finite and falling",
           bool(losses) and all(map(math.isfinite, losses)) and losses[-1] < losses[0],
           f"losses {losses}")
    p.final_loss = losses[-1] if losses else float("nan")

    ckpt = model.load_checkpoint(run / "checkpoint.bin")
    fresh = model.build_model(ckpt.config, seed=ckpt.seed)
    frozen = [k for k in fresh.params if model.param_group(k) == model.GROUP_FROZEN]
    checks("frozen base tensors equal build_model(seed)",
           bool(frozen) and all(np.array_equal(ckpt.params[k], fresh.params[k])
                                and ckpt.params[k].dtype == fresh.params[k].dtype
                                for k in frozen))
    p.checkpoint_sha256 = hashlib.sha256((run / "checkpoint.bin").read_bytes()).hexdigest()
    checks("checkpoint sha256 repeats across passes",
           first_sha is None or p.checkpoint_sha256 == first_sha,
           f"{p.checkpoint_sha256} != {first_sha}")

    from_eval = json.loads((ev / "predictions.json").read_text(encoding="utf-8"))
    from_predict = json.loads((workdir / "predictions.json").read_text(encoding="utf-8"))
    checks("prediction count", len(from_predict) == wl.n_test,
           f"{len(from_predict)} != {wl.n_test}")
    for a, b in zip(from_eval, from_predict):
        checks("eval and predict agree", a == b, f"{a} != {b}")

    report = json.loads((ev / "report.json").read_text(encoding="utf-8"))
    em = 100.0 * float(np.mean([metrics.normalize_answer(r["pred_text"])
                                == metrics.normalize_answer(r["gold_text"])
                                for r in from_predict]))
    f1 = 100.0 * float(np.mean([metrics.token_f1(r["pred_text"], r["gold_text"])
                                for r in from_predict]))
    checks("report EM/F1 match predictions",
           abs(report["em"] - em) <= 1e-9 and abs(report["f1"] - f1) <= 1e-9,
           f"report {report['em']}/{report['f1']} vs {em}/{f1}")

    vocab = load_vocab(workdir / "vocab.json")
    encoded, _ = data.encode_dataset(data.load_dataset(workdir / "test.json").records,
                                     vocab, builtin_dictionary())
    by_id = {e.id: e.example for e in encoded}
    for r in from_predict:
        ex = by_id.get(r["id"])
        s, e = r["start"], r["end"]
        ok = (ex is not None and 0 <= s <= e < len(ex)
              and e - s < ckpt.config.max_answer_len
              and bool(np.all(ex.segment_flags[s:e + 1] == SEG_CONTEXT)))
        checks("predicted span inside the context", ok, f"{r['id']} span ({s}, {e})")
    return [len(e.example) for e in encoded]

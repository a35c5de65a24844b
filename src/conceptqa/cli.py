"""Command-line entry point.

Subcommands: icd build|show, data ingest|split|augment|encode|synth, vocab
train, train, eval, ablate, predict, gradcheck.  Settings come from a JSON
config file with flat --set overrides (flags win); each section is read by
``model.read_config``.  Every command writes a manifest (resolved settings,
seed, input hashes, tool version, environment) next to its outputs.  On
glibc, ``main`` first keeps freed heap blocks in the process
(``_keep_freed_heap``), which only the command line does.

Exit codes: 0 success, 1 validation failure or a path that cannot be read or
written, 2 runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import data as data_mod
from . import evaluation, gating, model as model_mod, synthetic, training
from .dictionary import build_dictionary, load_dictionary, load_weights, save_dictionary
from .text import read_json_object, write_json
from .tokenizer import DEFAULT_MAX_LEN, load_vocab, save_vocab, train_vocab

# the vocabulary gives model.vocab_size, so no setting does
DEFAULT_CONFIG = {
    "model": {key: value for key, value in dataclasses.asdict(model_mod.ModelConfig()).items()
              if key != "vocab_size"},
    "train": dataclasses.asdict(training.TrainConfig()),
    "stages": [{"stage": s.stage, "epochs": s.epochs} for s in training.default_stages()],
    "split": dataclasses.asdict(data_mod.SplitConfig()),
}


def _load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        for key, value in read_json_object(Path(path), dict).items():
            if key not in cfg:
                raise ValueError(f"{path}: unknown settings section {key!r}")
            if isinstance(value, dict) and isinstance(cfg[key], dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key.path=value")
        dotted, raw = item.split("=", 1)
        node = cfg
        parts = dotted.split(".")
        if parts[0] not in cfg:
            raise ValueError(f"override {dotted!r}: unknown settings section {parts[0]!r}")
        for part in parts[:-1]:
            key = _override_key(node, part, dotted)
            node = node[key] if isinstance(node, list) else node.setdefault(key, {})
            if not isinstance(node, (dict, list)):
                raise ValueError(f"override {dotted!r}: {part!r} is not a settings section")
        key = _override_key(node, parts[-1], dotted)
        try:
            node[key] = json.loads(raw)
        except json.JSONDecodeError:
            node[key] = raw
    return cfg


def _override_key(node: dict | list, part: str, dotted: str) -> str | int:
    """The key ``part`` names in ``node``: itself in an object, and in a list
    the index it spells, which must lie in the list."""
    if not isinstance(node, list):
        return part
    if not (part.isdecimal() and int(part) < len(node)):
        raise ValueError(f"override {dotted!r}: {part!r} is not an index into a list "
                         f"of {len(node)} entries")
    return int(part)


@dataclasses.dataclass(frozen=True)
class _Settings:
    """The four settings sections, each read over its defaults."""
    model: model_mod.ModelConfig
    train: training.TrainConfig
    stages: list[training.StageConfig]
    split: data_mod.SplitConfig


def _settings(args, vocab_size: int) -> _Settings:
    """``--config`` and ``--set`` read into each section.  The model section
    goes over ``vocab_size``, which it cannot set, and each stage entry goes
    over the defaults of its ``stage``, which fixes ``boost_enabled``."""
    cfg = _load_config(args.config, args.set)
    split = model_mod.read_config(data_mod.SplitConfig(), cfg["split"], "setting", "split")
    model = model_mod.read_config(model_mod.ModelConfig(vocab_size=vocab_size), cfg["model"],
                                  "setting", "model", fixed=("vocab_size",))
    train = model_mod.read_config(training.TrainConfig(), cfg["train"], "setting", "train")
    defaults = {s.stage: s for s in training.default_stages()}
    if not isinstance(cfg["stages"], list):
        raise ValueError(f"setting stages must be a list, got {cfg['stages']!r}")
    stages = []
    for n, raw in enumerate(cfg["stages"]):
        if not isinstance(raw, dict):
            raise ValueError(f"setting stages.{n} must be an object, got {raw!r}")
        if raw.get("stage") not in tuple(defaults):
            raise ValueError(f"setting stages.{n}.stage must be one of {sorted(defaults)}, "
                             f"got {raw.get('stage')!r}")
        stages.append(model_mod.read_config(defaults[raw["stage"]], raw, "setting",
                                            f"stages.{n}", fixed=("boost_enabled",)))
    return _Settings(model=model, train=train, stages=stages, split=split)


# glibc's mallopt parameters (malloc.h) and the values main sets them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_SETTING = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}


def _keep_freed_heap() -> dict | None:
    """Keep freed blocks of up to 32 MiB in this process's heap.

    By default glibc hands each freed block of a few MB back to the kernel,
    so every (heads, L, L) attention array is mapped and zero-filled anew on
    each call.  Both thresholds are set: setting either one turns glibc's
    dynamic thresholds off and leaves the other at its 128 KiB default,
    which faults more than glibc's defaults do.  Returns the setting, or None
    where there is no glibc ``mallopt`` or it refuses a value; the process
    then keeps its allocator's defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if (mallopt(_M_MMAP_THRESHOLD, _HEAP_SETTING["mmap_threshold"]) != 1
            or mallopt(_M_TRIM_THRESHOLD, _HEAP_SETTING["trim_threshold"]) != 1):
        return None
    return dict(_HEAP_SETTING)


# the flags that name input files; the manifest hashes each one given
_INPUT_FLAGS = ("input", "data", "vocab", "dict", "checkpoint", "terms", "weights",
                "synonyms", "config")


def _write_manifest(args, settings: dict, outputs: list[str], seed, inputs=()) -> None:
    """``manifest.json`` in the command's output directory: the command, the
    settings, the seed, the hashes of the input files (those the flags name,
    and ``inputs``) and the environment."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
        "tool_version": __version__,
        "seed": seed,
        "settings": settings,
        "input_hashes": {path: data_mod.sha256_file(path)
                         for path in [*(getattr(args, flag, None) for flag in _INPUT_FLAGS),
                                      *inputs]
                         if path and Path(path).is_file()},
        "outputs": outputs,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "malloc": args.malloc,
        },
    }
    out_dir = Path(args.out_dir) if hasattr(args, "out_dir") else Path(args.out).parent
    write_json(out_dir / "manifest.json", manifest, indent=2, sort_keys=True)


def _check_outputs(args) -> None:
    """ValueError naming the path when ``--out-dir`` or ``--out`` cannot be
    written: an ``--out-dir`` that is not a directory, an ``--out`` that is
    one, or either under a path that is a file.  ``main`` calls it before any
    command reads its inputs, so no work is lost to an unusable path."""
    for flag, path, is_dir in (("--out-dir", getattr(args, "out_dir", None), True),
                               ("--out", getattr(args, "out", None), False)):
        if path is None:
            continue
        path = Path(path)
        if path.exists():
            if path.is_dir() != is_dir:
                raise ValueError(f"{flag} {path}: " + ("not a directory" if is_dir
                                                       else "is a directory"))
            continue
        # a missing path is never the root, so some parent of it exists
        above = next(parent for parent in path.absolute().parents if parent.exists())
        if not above.is_dir():
            raise ValueError(f"{flag} {path}: {above} is not a directory")


def _open_checkpoint(path, vocab, dictionary, vocab_path) -> model_mod.EncoderModel:
    """``load_checkpoint``, then check it against the vocabulary and dictionary
    it is run with."""
    model = model_mod.load_checkpoint(path)
    if len(vocab) != model.config.vocab_size:
        raise ValueError(f"{path}: checkpoint has vocab_size {model.config.vocab_size} "
                         f"but the vocabulary {vocab_path} has {len(vocab)} pieces")
    if model.dictionary_version and dictionary.version \
            and model.dictionary_version != dictionary.version:
        raise ValueError(
            f"checkpoint was trained with dictionary {model.dictionary_version!r} "
            f"but {dictionary.version!r} was supplied"
        )
    return model


def _train(config, settings: _Settings, enc_train, enc_val, vocab, dictionary, ckpt: Path):
    """Train a model of ``config`` through both stages and save the best
    parameters to ``ckpt``, also when a step diverges.

    Returns (model, history, diverged): ``diverged`` is the TrainingDiverged
    or None, for the caller to raise once its other outputs are written.
    """
    model = model_mod.build_model(config, seed=settings.train.seed,
                                  dictionary_version=dictionary.version)
    diverged = None
    try:
        model, history = training.train_two_stage(model, enc_train, enc_val, settings.train,
                                                  settings.stages, vocab=vocab)
    except training.TrainingDiverged as exc:
        model, history, diverged = exc.model, exc.history, exc
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    model_mod.save_checkpoint(model, ckpt)
    return model, history, diverged


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_icd_build(args) -> int:
    corpus_dir = Path(args.corpus)
    docs = [p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.txt"))]
    if not docs:
        raise ValueError(f"no .txt documents under {corpus_dir}")
    terms = []
    for n, line in enumerate(Path(args.terms).read_text(encoding="utf-8").splitlines(), 1):
        words = line.split()
        if len(words) > 1:
            raise ValueError(f"{args.terms}:{n}: term {line.strip()!r} is {len(words)} words, "
                             f"not one")
        terms += words
    weights = load_weights(args.weights) if args.weights else {}
    dictionary = build_dictionary(docs, terms, weights, version=args.version)
    save_dictionary(dictionary, args.out)
    for warning in dictionary.build_warnings:
        print(f"warning: {warning}")
    print(f"wrote {len(dictionary)} entries to {args.out}")
    _write_manifest(args, {"corpus": args.corpus, "terms": args.terms,
                           "weights": args.weights, "version": args.version},
                    [args.out], seed=None)
    return 0


def cmd_icd_show(args) -> int:
    dictionary = load_dictionary(args.file)
    print(f"version: {dictionary.version}  ({len(dictionary)} entries)")
    print(f"{'term':<14}{'IS':>7}{'BF':>7}  {'category':<22}{'doc freq':>9}")
    for entry in dictionary.entries.values():
        print(f"{entry.term:<14}{entry.importance_score:>7.3f}{entry.boost_factor:>6.2f}x"
              f"  {entry.category:<22}{100 * entry.corpus_frequency:>8.1f}%")
    return 0


def cmd_data_ingest(args) -> int:
    dataset = data_mod.ingest_squad(args.input)
    data_mod.save_dataset(dataset, args.out)
    stats = dataset.stats()
    print(f"accepted {stats['n_records']} records, rejected {stats['n_rejected']}")
    print(f"mean context {stats['mean_context_words']:.1f} words, "
          f"mean question {stats['mean_question_words']:.1f} words")
    _write_manifest(args, stats, [args.out], seed=None)
    return 0


def cmd_data_split(args) -> int:
    # no vocabulary here: the model section is checked at the default vocab_size
    split = _settings(args, model_mod.ModelConfig.vocab_size).split
    dataset = data_mod.load_dataset(args.input)
    train, val, test = data_mod.split_dataset(dataset, split.ratios, split.seed)
    out_dir = Path(args.out_dir)
    outputs = []
    for name, records in (("train", train), ("val", val), ("test", test)):
        path = out_dir / f"{name}.json"
        data_mod.save_dataset(data_mod.DatasetFile(records=records,
                                                   source_path=dataset.source_path,
                                                   content_hash=dataset.content_hash), path)
        outputs.append(str(path))
        print(f"{name}: {len(records)} records -> {path}")
    _write_manifest(args, dataclasses.asdict(split), outputs, seed=split.seed)
    return 0


def cmd_data_augment(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    table = training.SynonymTable.load(args.synonyms)
    dictionary = load_dictionary(args.dict)
    try:
        table.validate_against(dictionary)
    except ValueError as exc:
        raise ValueError(f"{args.synonyms}: {exc}") from None
    augmented = []
    for i, rec in enumerate(dataset.records):
        new = training.augment_synonym(rec.to_dict(), table, dictionary,
                                       rate=args.rate, seed=args.seed + i)
        new["id"] = f"{rec.id}-aug"
        augmented.append(data_mod.DatasetRecord.from_dict(new))
    out = data_mod.DatasetFile(records=dataset.records + augmented,
                               source_path=dataset.source_path,
                               content_hash=dataset.content_hash)
    data_mod.save_dataset(out, args.out)
    print(f"augmented {len(augmented)} records (total {len(out)}) -> {args.out}")
    _write_manifest(args, {"rate": args.rate}, [args.out], seed=args.seed)
    return 0


def cmd_data_encode(args) -> int:
    vocab = load_vocab(args.vocab)
    dictionary = load_dictionary(args.dict)
    dataset = data_mod.load_dataset(args.input)
    encoded, stats = data_mod.encode_dataset(dataset.records, vocab, dictionary,
                                             max_len=args.max_len)
    data_mod.dump_encoded_jsonl(encoded, args.out)
    print(f"encoded {stats['n_examples']} examples "
          f"({stats['n_absent_spans']} gold spans truncated away) -> {args.out}")
    _write_manifest(args, {"max_len": args.max_len, **stats}, [args.out], seed=None)
    return 0


def cmd_data_synth(args) -> int:
    fixture = synthetic.generate_records(
        args.n, seed=args.seed, n_slots=args.slots,
        target_context_words=args.context_words,
        target_question_words=args.question_words,
    )
    synthetic.write_squad(fixture, args.out)
    stats = fixture.stats()
    print(f"wrote {len(fixture)} synthetic QA pairs -> {args.out}")
    print(f"mean context {stats['mean_context_words']:.1f} words, "
          f"mean question {stats['mean_question_words']:.1f} words")
    _write_manifest(args, {"n": args.n, "slots": args.slots,
                           "context_words": args.context_words,
                           "question_words": args.question_words},
                    [args.out], seed=args.seed)
    return 0


def cmd_vocab_train(args) -> int:
    vocab = train_vocab(synthetic.corpus_texts(data_mod.load_dataset(args.data)), args.size)
    save_vocab(vocab, args.out)
    print(f"trained vocabulary of {len(vocab)} pieces -> {args.out}")
    _write_manifest(args, {"size": args.size}, [args.out], seed=None)
    return 0


def cmd_train(args) -> int:
    vocab = load_vocab(args.vocab)
    dictionary = load_dictionary(args.dict)
    dataset = data_mod.load_dataset(args.data)
    settings = _settings(args, len(vocab))
    split = settings.split
    enc_train, enc_val = (
        data_mod.encode_dataset(recs, vocab, dictionary, settings.model.max_len)[0]
        for recs in data_mod.split_dataset(dataset, split.ratios, split.seed)[:2])

    out_dir = Path(args.out_dir)
    ckpt = out_dir / "checkpoint.bin"
    _, history, diverged = _train(settings.model, settings, enc_train, enc_val, vocab,
                                  dictionary, ckpt)
    history.to_csv(out_dir / "history.csv")
    best = (f"best val EM {history.best_em:.2f}% at step {history.best_step}"
            if history.records else "no validation ran")
    print(f"{best}; {history.skipped_truncated} truncated example(s) skipped")
    print(f"checkpoint -> {ckpt}")
    _write_manifest(args, dataclasses.asdict(settings),
                    [str(ckpt), str(out_dir / "history.csv")], seed=settings.train.seed)
    if diverged is not None:
        raise diverged
    return 0


def _scoring_inputs(args) -> tuple:
    """(vocab, dictionary, model, encoded) for ``eval`` and ``predict``: the
    checkpoint opened against the vocabulary and dictionary, and ``--data``
    encoded at its ``max_len``, with the count of contexts cut printed."""
    vocab = load_vocab(args.vocab)
    dictionary = load_dictionary(args.dict)
    model = _open_checkpoint(args.checkpoint, vocab, dictionary, args.vocab)
    dataset = data_mod.load_dataset(args.data)
    max_len = model.config.max_len
    encoded, _ = data_mod.encode_dataset(dataset.records, vocab, dictionary, max_len)
    # a cut context is searched in its first window only, so its answer may be lost
    cut = sum(enc.example.truncated for enc in encoded)
    print(f"{cut} of {len(encoded)} contexts cut at max_len {max_len}")
    return vocab, dictionary, model, encoded


def cmd_eval(args) -> int:
    vocab, dictionary, model, encoded = _scoring_inputs(args)
    report = evaluation.evaluate(model, encoded, ablation=args.ablation, vocab=vocab,
                                 dictionary=dictionary)
    out_dir = Path(args.out_dir)
    report.to_json(out_dir / "report.json")
    table = evaluation.format_report_table([report])
    (out_dir / "report.txt").write_text(table + "\n", encoding="utf-8")
    write_json(out_dir / "predictions.json", report.predictions, indent=1, sort_keys=True)
    print(table)
    _write_manifest(args, {"ablation": args.ablation},
                    [str(out_dir / p) for p in ("report.json", "report.txt",
                                                "predictions.json")],
                    seed=model.seed)
    return 0


def cmd_ablate(args) -> int:
    if args.train_first == (args.checkpoints is not None):
        raise ValueError("ablate needs exactly one of --train-first and --checkpoints")
    vocab = load_vocab(args.vocab)
    dictionary = load_dictionary(args.dict)
    dataset = data_mod.load_dataset(args.data)
    settings = _settings(args, len(vocab))
    split = settings.split
    train, val, test = data_mod.split_dataset(dataset, split.ratios, split.seed)
    if args.train_first:
        enc_train, enc_val = (
            data_mod.encode_dataset(recs, vocab, dictionary, settings.model.max_len)[0]
            for recs in (train, val))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports, configs, seeds, loaded = [], {}, {}, []
    for variant in evaluation.ABLATION_VARIANTS:
        if args.train_first:
            model, _, diverged = _train(evaluation.apply_ablation(settings.model, variant),
                                        settings, enc_train, enc_val, vocab, dictionary,
                                        out_dir / f"checkpoint-{variant}.bin")
            if diverged is not None:
                raise diverged
        else:
            path = Path(args.checkpoints) / f"checkpoint-{variant}.bin"
            if not path.is_file():
                raise ValueError(f"missing checkpoint for variant {variant}: {path}")
            model = _open_checkpoint(path, vocab, dictionary, args.vocab)
            loaded.append(str(path))
            seeds[variant] = model.seed
        configs[variant] = dataclasses.asdict(model.config)
        # the test split at the model's own max_len, as ``eval`` encodes it
        enc_test, _ = data_mod.encode_dataset(test, vocab, dictionary, model.config.max_len)
        report = evaluation.evaluate(model, enc_test, ablation=variant, vocab=vocab,
                                     dictionary=dictionary)
        reports.append(report)

    table = evaluation.format_report_table(reports, ablation_style=True)
    print(table)
    (out_dir / "ablation.txt").write_text(table + "\n", encoding="utf-8")
    write_json(out_dir / "ablation.json", [r.to_dict() for r in reports], indent=2,
               sort_keys=True)
    # each variant's model as it ran: its checkpoint's, or the ablated model
    # section; loaded checkpoints ran no training and carry their own seeds
    ran = {**dataclasses.asdict(settings), "model": configs}
    if not args.train_first:
        del ran["train"], ran["stages"]
    trained = ([f"checkpoint-{variant}.bin" for variant in evaluation.ABLATION_VARIANTS]
               if args.train_first else [])
    _write_manifest(args, ran,
                    [str(out_dir / p) for p in (*trained, "ablation.txt", "ablation.json")],
                    seed=settings.train.seed if args.train_first else seeds, inputs=loaded)
    return 0


def cmd_predict(args) -> int:
    vocab, _, model, encoded = _scoring_inputs(args)
    preds = evaluation.predict_all(model, encoded, vocab, ablation=args.ablation)
    write_json(args.out, preds, indent=1, sort_keys=True)
    print(f"wrote {len(preds)} predictions -> {args.out}")
    _write_manifest(args, {"ablation": args.ablation}, [args.out], seed=model.seed)
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        seq_len = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 17))
        params = gating.GateParams(rng.standard_normal((dim, dim)) * 0.5,
                                   rng.standard_normal(dim) * 0.5)
        x = rng.standard_normal((seq_len, dim))
        boost = 1.0 + 2.0 * rng.random(seq_len)
        err = gating.gradient_check(params, x, boost, epsilon=args.epsilon,
                                    corrupt=args.corrupt)
        worst = max(worst, err)
    passed = worst < args.threshold
    print(f"{'PASS' if passed else 'FAIL'}: worst relative error {worst:.3e} "
          f"over {args.trials} trial(s) (threshold {args.threshold:.0e})")
    return 0 if passed else 1


@functools.cache  # built once per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conceptqa",
                                     description="Concept-gated extractive QA toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by the model commands
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--data", required=True, help="ingested dataset JSON")
    inputs.add_argument("--vocab", required=True)
    inputs.add_argument("--dict", required=True)
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", default=None)
    settings.add_argument("--set", action="append", default=[])
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--checkpoint", required=True)
    scoring.add_argument("--ablation", choices=evaluation.ABLATION_VARIANTS, default="full")

    icd = sub.add_parser("icd", help="concept dictionary tools").add_subparsers(
        dest="subcommand", required=True)
    p = icd.add_parser("build", help="build a dictionary from a corpus directory")
    p.add_argument("--corpus", required=True, help="directory of .txt documents")
    p.add_argument("--terms", required=True, help="file of terms, one per line")
    p.add_argument("--weights", default=None, help="JSON map term -> scholar weight")
    p.add_argument("--out", required=True)
    p.add_argument("--version", default="built", dest="version")
    p.set_defaults(func=cmd_icd_build)
    p = icd.add_parser("show", help="print a dictionary file")
    p.add_argument("file")
    p.set_defaults(func=cmd_icd_show)

    data = sub.add_parser("data", help="dataset tools").add_subparsers(
        dest="subcommand", required=True)
    p = data.add_parser("ingest", help="flatten and validate a v1.1 QA JSON file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_data_ingest)
    p = data.add_parser("split", help="deterministic train/val/test split",
                        parents=[settings])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_data_split)
    p = data.add_parser("augment", help="concept-preserving synonym augmentation")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--synonyms", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--rate", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_data_augment)
    p = data.add_parser("encode", help="tokenize, align and boost a dataset (JSONL out)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
    p.set_defaults(func=cmd_data_encode)
    p = data.add_parser("synth", help="generate a synthetic planted-concept fixture")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slots", type=int, default=3)
    p.add_argument("--context-words", type=float, default=None)
    p.add_argument("--question-words", type=float, default=None)
    p.set_defaults(func=cmd_data_synth)

    vocab = sub.add_parser("vocab", help="vocabulary tools").add_subparsers(
        dest="subcommand", required=True)
    p = vocab.add_parser("train", help="train a subword vocabulary from a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vocab_train)

    p = sub.add_parser("train", help="two-stage fine-tuning run", parents=[inputs, settings])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metric report for a checkpoint", parents=[scoring, inputs])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="evaluate the four ablation variants",
                       parents=[inputs, settings])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-first", action="store_true")
    p.add_argument("--checkpoints", default=None,
                   help="directory of checkpoint-<variant>.bin files")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("predict", help="dump span predictions as JSON", parents=[scoring, inputs])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gate gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-5)
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="negative-control offset added to the analytic gradients")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    malloc = _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    args.malloc = malloc  # for the manifest
    try:
        if getattr(args, "seed", 0) < 0:  # data synth, data augment, gradcheck
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        _check_outputs(args)
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

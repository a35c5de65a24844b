"""Command-line entry point.

Subcommands: icd build|show, data ingest|split|augment|synth, vocab train,
train, eval, ablate, predict, gradcheck.  Settings come from a JSON config
file with flat --set overrides (flags win).  Every command writes a manifest
(resolved settings, seed, input hashes, tool version) next to its outputs.

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import data as data_mod
from . import evaluation, gating, model as model_mod, synthetic, training
from .dictionary import (
    DictionaryError,
    build_dictionary,
    load_dictionary,
    save_dictionary,
)
from .tokenizer import load_vocab, save_vocab, train_vocab

DEFAULT_CONFIG = {
    "model": dataclasses.asdict(model_mod.ModelConfig()),
    "train": dataclasses.asdict(training.TrainConfig()),
    "stages": [{"stage": s.stage, "epochs": s.epochs} for s in training.default_stages()],
    "split": {"ratios": [0.8, 0.1, 0.1], "seed": 0},
}


def _load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        user = json.loads(Path(path).read_text(encoding="utf-8"))
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key.path=value")
        dotted, raw = item.split("=", 1)
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {dotted!r}: {part!r} is not a settings section")
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw
    return cfg


def _write_manifest(out_dir: Path, command: str, settings: dict,
                    inputs: list[str], outputs: list[str], seed) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "settings": settings,
        "input_hashes": {p: data_mod.sha256_file(p) for p in inputs if Path(p).is_file()},
        "outputs": outputs,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _settings(cls, section: str, settings: dict):
    """Build config dataclass ``cls`` from ``settings``, naming any bad key."""
    if not isinstance(settings, dict):
        raise ValueError(f"setting {section} must be an object, got {settings!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, value in settings.items():
        if key not in defaults:
            raise ValueError(f"unknown setting {section}.{key}")
        kinds = (int, float) if type(defaults[key]) is float else (type(defaults[key]),)
        if type(value) not in kinds:
            raise ValueError(f"setting {section}.{key} must be {kinds[-1].__name__}, "
                             f"got {value!r}")
    return cls(**settings)


def _model_config(cfg: dict, vocab_size: int | None = None) -> model_mod.ModelConfig:
    settings = cfg["model"]
    if vocab_size is not None and isinstance(settings, dict):
        settings = {**settings, "vocab_size": vocab_size}
    return _settings(model_mod.ModelConfig, "model", settings)


def _stages(cfg: dict) -> list[training.StageConfig]:
    defaults = {s.stage: s for s in training.default_stages()}
    if not isinstance(cfg["stages"], list):
        raise ValueError(f"setting stages must be a list, got {cfg['stages']!r}")
    out = []
    for n, raw in enumerate(cfg["stages"]):
        if not isinstance(raw, dict):
            raise ValueError(f"setting stages.{n} must be an object, got {raw!r}")
        if raw.get("stage") not in tuple(defaults):
            raise ValueError(f"setting stages.{n}.stage must be one of {sorted(defaults)}, "
                             f"got {raw.get('stage')!r}")
        unknown = set(raw) - {"stage", "epochs", "trainable"}
        if unknown:
            raise ValueError(f"unknown setting(s) stages.{n}: {sorted(unknown)}")
        base = defaults[raw["stage"]]
        epochs = raw.get("epochs", base.epochs)
        if type(epochs) is not int:
            raise ValueError(f"setting stages.{n}.epochs must be int, got {epochs!r}")
        trainable = raw.get("trainable", base.trainable)
        if not isinstance(trainable, (list, tuple)):
            raise ValueError(f"setting stages.{n}.trainable must be a list, got {trainable!r}")
        out.append(training.StageConfig(
            stage=raw["stage"],
            epochs=epochs,
            boost_enabled=base.boost_enabled,
            trainable=tuple(trainable),
        ))
    return out


def _split(cfg: dict) -> tuple[tuple[float, float, float], int]:
    """The (train, val, test) ratios and the seed of the split settings."""
    split = cfg["split"]
    if not isinstance(split, dict):
        raise ValueError(f"setting split must be an object, got {split!r}")
    unknown = set(split) - {"ratios", "seed"}
    if unknown:
        raise ValueError(f"unknown setting(s) split: {sorted(unknown)}")
    ratios = split["ratios"]
    if not (isinstance(ratios, list) and len(ratios) == 3
            and all(type(r) in (int, float) and r >= 0 for r in ratios)):
        raise ValueError(f"setting split.ratios must be a list of 3 numbers >= 0, "
                         f"got {ratios!r}")
    if type(split["seed"]) is not int:
        raise ValueError(f"setting split.seed must be int, got {split['seed']!r}")
    return tuple(ratios), split["seed"]


def _train_config(cfg: dict) -> training.TrainConfig:
    return _settings(training.TrainConfig, "train", cfg["train"])


def _check_dictionary_version(model: model_mod.EncoderModel, dictionary) -> None:
    if model.dictionary_version and dictionary.version \
            and model.dictionary_version != dictionary.version:
        raise ValueError(
            f"checkpoint was trained with dictionary {model.dictionary_version!r} "
            f"but {dictionary.version!r} was supplied"
        )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_icd_build(args) -> int:
    corpus_dir = Path(args.corpus)
    docs = [p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.txt"))]
    if not docs:
        raise ValueError(f"no .txt documents under {corpus_dir}")
    terms = [t for t in Path(args.terms).read_text(encoding="utf-8").split() if t]
    weights = json.loads(Path(args.weights).read_text(encoding="utf-8")) if args.weights else {}
    dictionary = build_dictionary(docs, terms, weights, version=args.version)
    save_dictionary(dictionary, args.out)
    for warning in dictionary.build_warnings:
        print(f"warning: {warning}")
    print(f"wrote {len(dictionary)} entries to {args.out}")
    _write_manifest(Path(args.out).parent, "icd build",
                    {"corpus": args.corpus, "terms": args.terms,
                     "weights": args.weights, "version": args.version},
                    [args.terms] + ([args.weights] if args.weights else []),
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
    _write_manifest(Path(args.out).parent, "data ingest", stats,
                    [args.input], [args.out], seed=None)
    return 0


def cmd_data_split(args) -> int:
    cfg = _load_config(args.config, args.set)
    ratios, seed = _split(cfg)
    dataset = data_mod.load_dataset(args.input)
    train, val, test = data_mod.split_dataset(dataset, ratios=ratios, seed=seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, records in (("train", train), ("val", val), ("test", test)):
        path = out_dir / f"{name}.json"
        data_mod.save_dataset(data_mod.DatasetFile(records=records,
                                                   source_path=dataset.source_path,
                                                   content_hash=dataset.content_hash), path)
        outputs.append(str(path))
        print(f"{name}: {len(records)} records -> {path}")
    _write_manifest(out_dir, "data split", {"ratios": list(ratios), "seed": seed},
                    [args.input], outputs, seed=seed)
    return 0


def cmd_data_augment(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    table = training.SynonymTable.load(args.synonyms)
    dictionary = load_dictionary(args.dict)
    table.validate_against(dictionary)
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
    _write_manifest(Path(args.out).parent, "data augment",
                    {"rate": args.rate}, [args.input, args.synonyms, args.dict],
                    [args.out], seed=args.seed)
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
    _write_manifest(Path(args.out).parent, "data encode",
                    {"max_len": args.max_len, **stats},
                    [args.input, args.vocab, args.dict], [args.out], seed=None)
    return 0


def cmd_data_synth(args) -> int:
    fixture = synthetic.generate_records(
        args.n, seed=args.seed, n_slots=args.slots,
        target_context_words=args.context_words,
        target_question_words=args.question_words,
        question_style=args.style,
    )
    synthetic.write_squad(fixture, args.out)
    stats = fixture.stats()
    print(f"wrote {len(fixture)} synthetic QA pairs -> {args.out}")
    print(f"mean context {stats['mean_context_words']:.1f} words, "
          f"mean question {stats['mean_question_words']:.1f} words")
    _write_manifest(Path(args.out).parent, "data synth",
                    {"n": args.n, "slots": args.slots, "style": args.style,
                     "context_words": args.context_words,
                     "question_words": args.question_words},
                    [], [args.out], seed=args.seed)
    return 0


def cmd_vocab_train(args) -> int:
    dataset = data_mod.load_dataset(args.data)
    texts = [f"{r.question} {r.context}" for r in dataset.records]
    vocab = train_vocab(texts, args.size)
    save_vocab(vocab, args.out)
    print(f"trained vocabulary of {len(vocab)} pieces -> {args.out}")
    _write_manifest(Path(args.out).parent, "vocab train", {"size": args.size},
                    [args.data], [args.out], seed=None)
    return 0


def _load_and_encode(path, vocab, dictionary, max_len):
    dataset = data_mod.load_dataset(path)
    encoded, stats = data_mod.encode_dataset(dataset.records, vocab, dictionary, max_len)
    return encoded, stats


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.set)
    vocab = load_vocab(args.vocab)
    dictionary = load_dictionary(args.dict)
    dataset = data_mod.load_dataset(args.data)
    ratios, split_seed = _split(cfg)
    train_recs, val_recs, test_recs = data_mod.split_dataset(dataset, ratios, split_seed)

    mcfg = _model_config(cfg, vocab_size=len(vocab))
    tcfg = _train_config(cfg)
    stages = _stages(cfg)
    enc_train, tr_stats = data_mod.encode_dataset(train_recs, vocab, dictionary, mcfg.max_len)
    enc_val, _ = data_mod.encode_dataset(val_recs, vocab, dictionary, mcfg.max_len)

    model = model_mod.build_model(mcfg, seed=tcfg.seed,
                                  dictionary_version=dictionary.version)
    model, history = training.train_two_stage(model, enc_train, enc_val, tcfg,
                                              stages, vocab=vocab)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.bin"
    model_mod.save_checkpoint(model, ckpt)
    history.to_csv(out_dir / "history.csv")
    print(f"best val EM {history.best_em:.2f}% at step {history.best_step}; "
          f"{history.skipped_truncated} truncated example(s) skipped")
    print(f"checkpoint -> {ckpt}")
    _write_manifest(out_dir, "train", cfg,
                    [args.data, args.vocab, args.dict],
                    [str(ckpt), str(out_dir / "history.csv")], seed=tcfg.seed)
    return 0


def cmd_eval(args) -> int:
    vocab = load_vocab(args.vocab)
    dictionary = load_dictionary(args.dict)
    model = model_mod.load_checkpoint(args.checkpoint)
    _check_dictionary_version(model, dictionary)
    encoded, _ = _load_and_encode(args.data, vocab, dictionary, model.config.max_len)
    report = evaluation.evaluate(model, encoded, ablation=args.ablation, vocab=vocab,
                                 dictionary=dictionary)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_json(out_dir / "report.json")
    table = evaluation.format_report_table([report])
    (out_dir / "report.txt").write_text(table + "\n", encoding="utf-8")
    with open(out_dir / "predictions.json", "w", encoding="utf-8") as fh:
        json.dump(report.predictions, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(table)
    _write_manifest(out_dir, "eval", {"ablation": args.ablation},
                    [args.data, args.vocab, args.dict, args.checkpoint],
                    [str(out_dir / p) for p in ("report.json", "report.txt",
                                                "predictions.json")],
                    seed=model.seed)
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config, args.set)
    vocab = load_vocab(args.vocab)
    dictionary = load_dictionary(args.dict)
    dataset = data_mod.load_dataset(args.data)
    ratios, split_seed = _split(cfg)
    train_recs, val_recs, test_recs = data_mod.split_dataset(dataset, ratios, split_seed)

    mcfg = _model_config(cfg, vocab_size=len(vocab))
    tcfg = _train_config(cfg)
    enc_train, _ = data_mod.encode_dataset(train_recs, vocab, dictionary, mcfg.max_len)
    enc_val, _ = data_mod.encode_dataset(val_recs, vocab, dictionary, mcfg.max_len)
    enc_test, _ = data_mod.encode_dataset(test_recs, vocab, dictionary, mcfg.max_len)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for variant in evaluation.ABLATION_VARIANTS:
        if args.train_first:
            vcfg = evaluation.apply_ablation(mcfg, variant)
            model = model_mod.build_model(vcfg, seed=tcfg.seed,
                                          dictionary_version=dictionary.version)
            model, _ = training.train_two_stage(model, enc_train, enc_val, tcfg,
                                                _stages(cfg), vocab=vocab)
            model_mod.save_checkpoint(model, out_dir / f"checkpoint-{variant}.bin")
        else:
            path = Path(args.checkpoints) / f"checkpoint-{variant}.bin"
            if not path.is_file():
                raise ValueError(f"missing checkpoint for variant {variant}: {path}")
            model = model_mod.load_checkpoint(path)
            _check_dictionary_version(model, dictionary)
        report = evaluation.evaluate(model, enc_test, ablation=variant, vocab=vocab,
                                     dictionary=dictionary)
        reports.append(report)

    table = evaluation.format_report_table(reports, ablation_style=True)
    print(table)
    (out_dir / "ablation.txt").write_text(table + "\n", encoding="utf-8")
    with open(out_dir / "ablation.json", "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, "ablate", cfg, [args.data, args.vocab, args.dict],
                    [str(out_dir / "ablation.txt"), str(out_dir / "ablation.json")],
                    seed=tcfg.seed)
    return 0


def cmd_predict(args) -> int:
    vocab = load_vocab(args.vocab)
    dictionary = load_dictionary(args.dict)
    model = model_mod.load_checkpoint(args.checkpoint)
    _check_dictionary_version(model, dictionary)
    encoded, _ = _load_and_encode(args.data, vocab, dictionary, model.config.max_len)
    preds = evaluation.predict_all(model, encoded, vocab, ablation=args.ablation)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(preds, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(preds)} predictions -> {args.out}")
    _write_manifest(Path(args.out).parent, "predict", {"ablation": args.ablation},
                    [args.data, args.vocab, args.dict, args.checkpoint],
                    [args.out], seed=model.seed)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conceptqa",
                                     description="Concept-gated extractive QA toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    icd = sub.add_parser("icd", help="concept dictionary tools").add_subparsers(
        dest="subcommand", required=True)
    p = icd.add_parser("build", help="build a dictionary from a corpus directory")
    p.add_argument("--corpus", required=True, help="directory of .txt documents")
    p.add_argument("--terms", required=True, help="file of whitespace-separated terms")
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
    p = data.add_parser("split", help="deterministic train/val/test split")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[])
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
    p.add_argument("--max-len", type=int, default=384)
    p.set_defaults(func=cmd_data_encode)
    p = data.add_parser("synth", help="generate a synthetic planted-concept fixture")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slots", type=int, default=3)
    p.add_argument("--context-words", type=float, default=None)
    p.add_argument("--question-words", type=float, default=None)
    p.add_argument("--style", choices=["generic", "cued"], default="generic")
    p.set_defaults(func=cmd_data_synth)

    vocab = sub.add_parser("vocab", help="vocabulary tools").add_subparsers(
        dest="subcommand", required=True)
    p = vocab.add_parser("train", help="train a subword vocabulary from a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vocab_train)

    p = sub.add_parser("train", help="two-stage fine-tuning run")
    p.add_argument("--data", required=True, help="ingested dataset JSON")
    p.add_argument("--vocab", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metric report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ablation", choices=evaluation.ABLATION_VARIANTS, default="full")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="evaluate the four ablation variants")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-first", action="store_true")
    p.add_argument("--checkpoints", default=None,
                   help="directory of checkpoint-<variant>.bin files")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[])
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("predict", help="dump span predictions as JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ablation", choices=evaluation.ABLATION_VARIANTS, default="full")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError, DictionaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import warnings

import numpy as np
import pytest

from conceptqa import synthetic
from conceptqa.cli import main

TRAIN_CONFIG = {
    "model": {"layers": 1, "hidden": 16, "heads": 2, "lora_rank": 2,
              "max_rel_distance": 4},
    "train": {"learning_rate": 3e-3, "warmup_steps": 2, "effective_batch": 4,
              "max_epochs": 50, "patience": 5, "weight_decay": 0.01, "seed": 0},
    "stages": [
        {"stage": "adaptation", "epochs": 1},
        {"stage": "specialization", "epochs": 2},
    ],
    "split": {"ratios": [0.8, 0.1, 0.1], "seed": 0},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic raw data plus ingested/vocab/dictionary artifacts."""
    root = tmp_path_factory.mktemp("cli")
    fixture = synthetic.generate_records(40, seed=3)
    synthetic.write_squad(fixture, root / "raw.json")
    assert main(["data", "ingest", "--in", str(root / "raw.json"),
                 "--out", str(root / "flat.json")]) == 0
    assert main(["vocab", "train", "--data", str(root / "flat.json"),
                 "--size", "256", "--out", str(root / "vocab.json")]) == 0

    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    for i, rec in enumerate(fixture.records[:10]):
        (corpus_dir / f"doc{i}.txt").write_text(rec.context, encoding="utf-8")
    terms = root / "terms.txt"
    terms.write_text("\n".join(synthetic.CONCEPT_AGENTS), encoding="utf-8")
    (root / "weights.json").write_text("{}", encoding="utf-8")
    assert main(["icd", "build", "--corpus", str(corpus_dir), "--terms", str(terms),
                 "--weights", str(root / "weights.json"),
                 "--out", str(root / "icd.json")]) == 0

    cfg = root / "config.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG), encoding="utf-8")
    return root


class TestIcdCommands:
    def test_build_output_valid(self, workdir):
        from conceptqa.dictionary import load_dictionary
        d = load_dictionary(workdir / "icd.json")
        assert len(d) == len(synthetic.CONCEPT_AGENTS)
        d.validate()

    def test_show(self, workdir, capsys):
        assert main(["icd", "show", str(workdir / "icd.json")]) == 0
        out = capsys.readouterr().out
        assert "term" in out and "BF" in out

    def test_build_writes_manifest(self, workdir):
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["command"]

    def test_build_prints_each_missing_term_warning_once(self, workdir, tmp_path, capsys,
                                                          caplog):
        terms = tmp_path / "terms.txt"
        terms.write_text("\n".join([*synthetic.CONCEPT_AGENTS, "zebra"]), encoding="utf-8")
        assert main(["icd", "build", "--corpus", str(workdir / "corpus"),
                     "--terms", str(terms), "--out", str(tmp_path / "icd.json")]) == 0
        captured = capsys.readouterr()
        emitted = "\n".join([captured.out, captured.err,
                             *(r.getMessage() for r in caplog.records)])
        warned = [line.removeprefix("warning: ") for line in captured.out.splitlines()
                  if line.startswith("warning: ")]
        assert "term 'zebra' never observed in the corpus; boost set to 1.0" in warned
        assert [emitted.count(w) for w in warned] == [1] * len(warned)

    @pytest.mark.parametrize("threads", [None, "3"])
    def test_manifest_records_the_thread_count(self, tmp_path, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert main(["data", "synth", "--out", str(tmp_path / "s.json"), "--n", "2"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["environment"]["OPENBLAS_NUM_THREADS"] == threads

    def test_missing_corpus_is_validation_failure(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        rc = main(["icd", "build", "--corpus", str(empty), "--terms", str(empty / "x"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1


class TestDataCommands:
    def test_ingest_stats_printed(self, workdir, capsys):
        main(["data", "ingest", "--in", str(workdir / "raw.json"),
              "--out", str(workdir / "flat2.json")])
        out = capsys.readouterr().out
        assert "accepted 40 records" in out
        assert "mean context" in out

    def test_split_partition(self, workdir):
        out_dir = workdir / "splits"
        assert main(["data", "split", "--in", str(workdir / "flat.json"),
                     "--out-dir", str(out_dir), "--config",
                     str(workdir / "config.json")]) == 0
        sizes = {}
        for name in ("train", "val", "test"):
            payload = json.loads((out_dir / f"{name}.json").read_text())
            sizes[name] = len(payload["records"])
        assert sizes == {"train": 32, "val": 4, "test": 4}

    def test_second_call_keeps_nothing_of_the_first(self, workdir, tmp_path):
        # the parser is built once per process; each call parses afresh
        from conceptqa import cli
        assert cli.build_parser() is cli.build_parser()
        for name, overrides in (("a", ["split.seed=5", "split.ratios=[0.6,0.2,0.2]"]),
                                ("b", ["split.seed=7"])):
            argv = ["data", "split", "--in", str(workdir / "flat.json"),
                    "--out-dir", str(tmp_path / name)]
            assert main([*argv, *(x for o in overrides for x in ("--set", o))]) == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["settings"] == {"ratios": [0.8, 0.1, 0.1], "seed": 7}
        assert manifest["seed"] == 7

    def test_synth_writes_squad(self, tmp_path):
        out = tmp_path / "synth.json"
        assert main(["data", "synth", "--out", str(out), "--n", "12",
                     "--seed", "5"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["data"][0]["paragraphs"]) == 12

    def test_encode_emits_jsonl(self, workdir, tmp_path):
        out = tmp_path / "encoded.jsonl"
        assert main(["data", "encode", "--in", str(workdir / "flat.json"),
                     "--vocab", str(workdir / "vocab.json"),
                     "--dict", str(workdir / "icd.json"),
                     "--out", str(out)]) == 0
        encoded = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(encoded) == 40
        assert all(e["gold_span"] is not None for e in encoded)

    def test_augment_grows_dataset(self, workdir, tmp_path, synonym_table):
        syn = tmp_path / "synonyms.json"
        syn.write_text(json.dumps(synonym_table), encoding="utf-8")
        out = tmp_path / "augmented.json"
        assert main(["data", "augment", "--in", str(workdir / "flat.json"),
                     "--out", str(out), "--synonyms", str(syn),
                     "--dict", str(workdir / "icd.json"), "--rate", "0.5"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 80
        assert any(r["id"].endswith("-aug") for r in payload["records"])


@pytest.fixture(scope="module")
def trained(workdir):
    out_dir = workdir / "run1"
    rc = main(["train", "--data", str(workdir / "flat.json"),
               "--vocab", str(workdir / "vocab.json"),
               "--dict", str(workdir / "icd.json"),
               "--out-dir", str(out_dir),
               "--config", str(workdir / "config.json")])
    assert rc == 0
    return out_dir


class TestTrainEvalPredict:
    def test_train_outputs(self, trained):
        assert (trained / "checkpoint.bin").is_file()
        history = (trained / "history.csv").read_text().strip().split("\n")
        assert history[0] == "step,loss,em,f1,lr"
        assert len(history) > 1
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["input_hashes"]

    def test_train_manifest_records_the_environment(self, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        }
        assert manifest["environment"]["blas"]["name"]

    def test_manifest_records_the_resolved_settings(self, workdir, tmp_path):
        from conceptqa.data import SplitConfig
        from conceptqa.model import ModelConfig
        from conceptqa.training import TrainConfig, default_stages
        out_dir = tmp_path / "run"
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir), "--config", str(workdir / "config.json"),
                   "--set", 'model={"layers":1,"hidden":8,"heads":2,"lora_rank":2}',
                   "--set", 'split={"ratios":[0.6,0.2,0.2]}'])
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        n_vocab = len(json.loads((workdir / "vocab.json").read_text())["pieces"])
        adaptation, specialization = default_stages()
        expected = {
            "model": dataclasses.asdict(ModelConfig(layers=1, hidden=8, heads=2, lora_rank=2,
                                                    vocab_size=n_vocab)),
            "train": dataclasses.asdict(TrainConfig(**TRAIN_CONFIG["train"])),
            "stages": [dataclasses.asdict(dataclasses.replace(adaptation, epochs=1)),
                       dataclasses.asdict(dataclasses.replace(specialization, epochs=2))],
            "split": dataclasses.asdict(SplitConfig(ratios=(0.6, 0.2, 0.2))),
        }
        assert manifest["settings"] == json.loads(json.dumps(expected))
        assert set(manifest["input_hashes"]) == {str(workdir / name) for name in
                                                 ("flat.json", "vocab.json", "icd.json",
                                                  "config.json")}

    def test_rerun_reproduces_bit_for_bit(self, workdir, trained):
        out_dir = workdir / "run2"
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir),
                   "--config", str(workdir / "config.json")])
        assert rc == 0
        assert (out_dir / "checkpoint.bin").read_bytes() == \
            (trained / "checkpoint.bin").read_bytes()
        assert (out_dir / "history.csv").read_text() == \
            (trained / "history.csv").read_text()

    def test_eval_report_files(self, workdir, trained):
        out_dir = workdir / "eval1"
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir)])
        assert rc == 0
        report = json.loads((out_dir / "report.json").read_text())
        for key in ("em", "f1", "bleu", "rouge_l", "embed_score",
                    "mean_latency_ms", "n_examples"):
            assert key in report
        preds = json.loads((out_dir / "predictions.json").read_text())
        assert {"id", "pred_text", "gold_text", "start", "end"} <= set(preds[0])

    def test_eval_predictions_match_predict(self, workdir, trained, tmp_path):
        common = ["--checkpoint", str(trained / "checkpoint.bin"),
                  "--data", str(workdir / "flat.json"),
                  "--vocab", str(workdir / "vocab.json"),
                  "--dict", str(workdir / "icd.json")]
        assert main(["eval", *common, "--out-dir", str(tmp_path / "ev")]) == 0
        assert main(["predict", *common, "--out", str(tmp_path / "preds.json")]) == 0
        assert (tmp_path / "ev" / "predictions.json").read_text() == \
            (tmp_path / "preds.json").read_text()

    def test_dictionary_version_mismatch(self, workdir, trained, tmp_path):
        from conceptqa.dictionary import builtin_dictionary, save_dictionary
        other = tmp_path / "other.json"
        save_dictionary(builtin_dictionary(), other)
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(other),
                   "--out-dir", str(tmp_path / "evalx")])
        assert rc == 1

    def test_predict(self, workdir, trained, tmp_path):
        out = tmp_path / "preds.json"
        rc = main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out", str(out)])
        assert rc == 0
        assert len(json.loads(out.read_text())) == 40

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("change", [-10, 10], ids=["smaller", "larger"])
    def test_vocabulary_of_another_size_is_one(self, workdir, trained, tmp_path, capsys,
                                               command, change):
        pieces = json.loads((workdir / "vocab.json").read_text())["pieces"]
        pieces = pieces[:change] if change < 0 else pieces + [f"zz{i}" for i in range(change)]
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"pieces": pieces}), encoding="utf-8")
        out = ["--out-dir", str(tmp_path / "ev")] if command == "eval" else \
            ["--out", str(tmp_path / "preds.json")]
        ckpt = trained / "checkpoint.bin"
        rc = main([command, "--checkpoint", str(ckpt), "--data", str(workdir / "flat.json"),
                   "--vocab", str(vocab), "--dict", str(workdir / "icd.json"), *out])
        assert rc == 1
        n = len(pieces) - change
        assert (f"error: {ckpt}: checkpoint has vocab_size {n} but the vocabulary {vocab} "
                f"has {len(pieces)} pieces") in capsys.readouterr().err
        assert not (tmp_path / "preds.json").exists()

    @pytest.mark.parametrize("cut", ["magic", "preamble", "header", "body", "last_byte"])
    def test_predict_rejects_truncated_checkpoint(self, workdir, trained, tmp_path,
                                                  capsys, cut):
        raw = (trained / "checkpoint.bin").read_bytes()
        hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
        keep = {"magic": 2, "preamble": 10, "header": 16 + hlen // 2,
                "body": 16 + hlen + 7, "last_byte": len(raw) - 1}[cut]
        bad = tmp_path / "cut.bin"
        bad.write_bytes(raw[:keep])
        rc = main(["predict", "--checkpoint", str(bad),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out", str(tmp_path / "preds.json")])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["config"].update(bogus=1), "unknown config key"),
        (lambda h: h["config"].update(vocab_size=257),
         "the body has 57992 bytes, the config's tensors take 58056"),
        (lambda h: h.update(tensors=[]), "unknown header key 'tensors'"),
        (lambda h: h["config"].update(layers=10**9),
         "config has 1000000000 layers of hidden 16, more than the 57992-byte body holds"),
        (lambda h: h.update(config=3), "header 'config' must be dict, got 3"),
        (lambda h: h["config"].update(layers="2"), "config 'layers' must be int, got '2'"),
    ])
    def test_predict_rejects_inconsistent_checkpoint(self, workdir, trained, tmp_path,
                                                     capsys, edit, message):
        raw = (trained / "checkpoint.bin").read_bytes()
        hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
        header = json.loads(raw[16:16 + hlen])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / "edited.bin"
        bad.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + raw[16 + hlen:])
        rc = main(["predict", "--checkpoint", str(bad),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out", str(tmp_path / "preds.json")])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:-4], "the body has 57988 bytes, the config's tensors take 57992"),
        (lambda raw: raw + raw[-4:], "the body has 57996 bytes, the config's tensors take"),
        (lambda raw: raw[:4] + np.uint32(1).tobytes() + raw[8:],
         "unsupported checkpoint format 1"),
    ], ids=["float_cut", "float_added", "format_1"])
    def test_predict_rejects_wrong_body_or_format(self, workdir, trained, tmp_path, capsys,
                                                  edit, message):
        bad = tmp_path / "edited.bin"
        bad.write_bytes(edit((trained / "checkpoint.bin").read_bytes()))
        rc = main(["predict", "--checkpoint", str(bad),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out", str(tmp_path / "preds.json")])
        assert rc == 1
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "preds.json").exists()

    def test_predict_rejects_non_object_header(self, workdir, trained, tmp_path, capsys):
        raw = (trained / "checkpoint.bin").read_bytes()
        hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
        bad = tmp_path / "list.bin"
        bad.write_bytes(raw[:8] + np.uint64(2).tobytes() + b"[]" + raw[16 + hlen:])
        rc = main(["predict", "--checkpoint", str(bad),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out", str(tmp_path / "preds.json")])
        assert rc == 1
        assert f"{bad}: header must be an object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["heads.start.weight", "layer0.ffn.w1",
                                      "embed.token_table"])
    def test_predict_rejects_a_non_finite_tensor(self, workdir, trained, tmp_path, capsys,
                                                 name):
        from conceptqa import model as model_mod
        model = model_mod.load_checkpoint(trained / "checkpoint.bin")
        model.params[name][...] = np.nan
        bad = tmp_path / "nan.bin"
        model_mod.save_checkpoint(model, bad)
        rc = main(["predict", "--checkpoint", str(bad),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out", str(tmp_path / "preds.json")])
        assert rc == 1
        assert f"error: {bad}: tensor '{name}' holds a non-finite value" in \
            capsys.readouterr().err
        assert not (tmp_path / "preds.json").exists()

    def test_predict_rejects_a_per_layer_gate_checkpoint(self, workdir, trained, tmp_path,
                                                         capsys):
        raw = (trained / "checkpoint.bin").read_bytes()
        hlen = int(np.frombuffer(raw[8:16], dtype=np.uint64)[0])
        header = json.loads(raw[16:16 + hlen])
        header["config"]["gate_mode"] = "per_layer"
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / "per_layer.bin"
        bad.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + raw[16 + hlen:])
        rc = main(["predict", "--checkpoint", str(bad),
                   "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out", str(tmp_path / "preds.json")])
        assert rc == 1
        assert f"error: {bad}: config: unknown gate_mode 'per_layer'" in \
            capsys.readouterr().err
        assert not (tmp_path / "preds.json").exists()

    def test_ablate_manifest_records_the_checkpoints_that_ran(self, workdir, tmp_path):
        from conceptqa import model as model_mod
        from conceptqa.evaluation import ABLATION_VARIANTS
        n_vocab = len(json.loads((workdir / "vocab.json").read_text())["pieces"])
        config = model_mod.ModelConfig(layers=1, hidden=8, heads=2, lora_rank=2,
                                       vocab_size=n_vocab)
        ckpt_dir = tmp_path / "variants"
        ckpt_dir.mkdir()
        paths = []
        for seed, variant in enumerate(ABLATION_VARIANTS):
            paths.append(ckpt_dir / f"checkpoint-{variant}.bin")
            model_mod.save_checkpoint(model_mod.build_model(config, seed=seed), paths[-1])
        settings = tmp_path / "c.json"
        settings.write_text(json.dumps({"split": TRAIN_CONFIG["split"]}), encoding="utf-8")
        out_dir = tmp_path / "abl"
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir), "--checkpoints", str(ckpt_dir),
                   "--config", str(settings)])
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["settings"]["model"] == {
            variant: json.loads(json.dumps(dataclasses.asdict(config)))
            for variant in ABLATION_VARIANTS}
        hashes = manifest["input_hashes"]
        assert {str(p) for p in paths} <= set(hashes)
        assert hashes[str(paths[0])] == hashlib.sha256(paths[0].read_bytes()).hexdigest()

    def test_ablate_manifest_records_each_checkpoint_seed(self, workdir, tmp_path):
        from conceptqa import model as model_mod
        from conceptqa.evaluation import ABLATION_VARIANTS
        n_vocab = len(json.loads((workdir / "vocab.json").read_text())["pieces"])
        config = model_mod.ModelConfig(layers=1, hidden=8, heads=2, lora_rank=2,
                                       vocab_size=n_vocab)
        ckpt_dir = tmp_path / "variants"
        ckpt_dir.mkdir()
        for seed, variant in enumerate(ABLATION_VARIANTS, start=10):
            model_mod.save_checkpoint(model_mod.build_model(config, seed=seed),
                                      ckpt_dir / f"checkpoint-{variant}.bin")
        settings = tmp_path / "c.json"
        settings.write_text(json.dumps({"split": TRAIN_CONFIG["split"]}), encoding="utf-8")
        out_dir = tmp_path / "abl"
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir), "--checkpoints", str(ckpt_dir),
                   "--config", str(settings)])
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == {"full": 10, "no_gating": 11, "no_icd": 12,
                                    "no_residual": 13}
        # no training ran: only the split and the models that did run are recorded
        assert set(manifest["settings"]) == {"model", "split"}
        assert manifest["settings"]["split"] == TRAIN_CONFIG["split"]

    def test_ablate_with_pretrained_checkpoints(self, workdir, trained, capsys):
        ckpt_dir = workdir / "variants"
        ckpt_dir.mkdir(exist_ok=True)
        from conceptqa.evaluation import ABLATION_VARIANTS, apply_ablation
        from conceptqa import model as model_mod
        base = model_mod.load_checkpoint(trained / "checkpoint.bin")
        for variant in ABLATION_VARIANTS:
            m = model_mod.EncoderModel(config=apply_ablation(base.config, variant),
                                       params=base.params, seed=base.seed,
                                       dictionary_version=base.dictionary_version)
            model_mod.save_checkpoint(m, ckpt_dir / f"checkpoint-{variant}.bin")
        out_dir = workdir / "ablation"
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir),
                   "--checkpoints", str(ckpt_dir),
                   "--config", str(workdir / "config.json")])
        assert rc == 0
        table = (out_dir / "ablation.txt").read_text()
        header = table.splitlines()[0]
        assert "EM" in header and "F1" in header and "EmbedScore" in header
        reports = json.loads((out_dir / "ablation.json").read_text())
        assert [r["variant"] for r in reports] == list(ABLATION_VARIANTS)

    def test_ablate_checkpoints_scores_as_eval_does(self, workdir, tmp_path):
        # a checkpoint of max_len 48 is shorter than some test sequences, and
        # the settings ablate runs with keep the default max_len: ablate
        # encodes the test split at each checkpoint's own max_len, as eval does
        from conceptqa.evaluation import ABLATION_VARIANTS
        common = ["--vocab", str(workdir / "vocab.json"), "--dict", str(workdir / "icd.json")]
        settings = ["--config", str(workdir / "config.json")]
        assert main(["train", "--data", str(workdir / "flat.json"), *common, *settings,
                     "--set", "model.max_len=48", "--out-dir", str(tmp_path / "run")]) == 0
        ckpt_dir = tmp_path / "variants"
        ckpt_dir.mkdir()
        for variant in ABLATION_VARIANTS:
            shutil.copy(tmp_path / "run" / "checkpoint.bin",
                        ckpt_dir / f"checkpoint-{variant}.bin")
        assert main(["ablate", "--data", str(workdir / "flat.json"), *common, *settings,
                     "--out-dir", str(tmp_path / "abl"), "--checkpoints", str(ckpt_dir)]) == 0
        assert main(["data", "split", "--in", str(workdir / "flat.json"), *settings,
                     "--out-dir", str(tmp_path / "splits")]) == 0
        ablated = json.loads((tmp_path / "abl" / "ablation.json").read_text())
        for variant, report in zip(ABLATION_VARIANTS, ablated):
            out_dir = tmp_path / f"eval-{variant}"
            assert main(["eval", "--checkpoint", str(ckpt_dir / f"checkpoint-{variant}.bin"),
                         "--data", str(tmp_path / "splits" / "test.json"), *common,
                         "--ablation", variant, "--out-dir", str(out_dir)]) == 0
            evaluated = json.loads((out_dir / "report.json").read_text())
            assert report["variant"] == variant
            assert (report["em"], report["f1"]) == (evaluated["em"], evaluated["f1"])

    def test_ablate_train_first(self, workdir, capsys):
        out_dir = workdir / "ablation_trained"
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir), "--train-first",
                   "--config", str(workdir / "config.json")])
        assert rc == 0
        from conceptqa.evaluation import ABLATION_VARIANTS
        for variant in ABLATION_VARIANTS:
            assert (out_dir / f"checkpoint-{variant}.bin").is_file()
        reports = json.loads((out_dir / "ablation.json").read_text())
        assert len(reports) == 4

    def test_ablate_train_first_keeps_a_diverged_checkpoint(self, workdir, tmp_path, capsys):
        from conceptqa import model as model_mod
        out_dir = tmp_path / "abl"
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir), "--train-first",
                   "--config", str(workdir / "config.json"),
                   "--set", "train.learning_rate=1e30", "--set", "train.warmup_steps=2"])
        assert rc == 2
        assert "kept the parameters of step 0" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == ["checkpoint-full.bin"]
        saved = model_mod.load_checkpoint(out_dir / "checkpoint-full.bin")
        initial = model_mod.build_model(saved.config, seed=TRAIN_CONFIG["train"]["seed"])
        assert saved.params.keys() == initial.params.keys()
        for name, value in initial.params.items():
            np.testing.assert_array_equal(saved.params[name], value)

    def test_ablate_missing_checkpoint_fails(self, workdir, tmp_path):
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(tmp_path / "abl"),
                   "--checkpoints", str(tmp_path)])
        assert rc == 1

    def test_ablate_checks_stages_before_loading_checkpoints(self, workdir, tmp_path, capsys):
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(tmp_path / "abl"),
                   "--checkpoints", str(tmp_path), "--set", 'stages=[{"stage":"x"}]'])
        assert rc == 1
        assert "setting stages.0.stage must be one of" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_pass(self, capsys):
        assert main(["gradcheck", "--trials", "10", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_backward_fails(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--corrupt", "1e-3"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_reproducible_worst_error(self, capsys):
        main(["gradcheck", "--trials", "1", "--seed", "9"])
        first = capsys.readouterr().out
        main(["gradcheck", "--trials", "1", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_trials_validated(self):
        assert main(["gradcheck", "--trials", "0"]) == 1


class TestExitCodes:
    def test_missing_file_is_one(self, tmp_path):
        assert main(["icd", "show", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("override, key", [
        ("train.bogus=1", "train.bogus"),
        ("model.hidden=oops", "model.hidden"),
        ("stages.0.stage=x", "stages.0.stage"),
        ("model.heads=0", "heads must be >= 1, got 0"),
        ("model.layers=0", "layers must be >= 1, got 0"),
        ("model.hidden=0", "hidden must be >= 1, got 0"),
        ("model.max_rel_distance=-1", "max_rel_distance must be >= 0, got -1"),
        ('stages=[{"stage":"x"}]',
         "stages.0.stage must be one of ['adaptation', 'specialization'], got 'x'"),
        ("split.ratios=oops", "split.ratios"),
        ("split.seed=oops", "split.seed"),
        ("split.bogus=1", "unknown setting key 'split.bogus'"),
        ("split.ratios=[0.5,0.5]", "setting split: ratios must be 3 numbers >= 0, got [0.5, 0.5]"),
        ('stages=[{"stage":"adaptation","boost_enabled":true}]',
         "unknown setting key 'stages.0.boost_enabled'"),
        ("train.seed=-1", "setting train: seed must be >= 0, got -1"),
        ("split.seed=-1", "setting split: seed must be >= 0, got -1"),
        ("train.beta1=1.0", "setting train: beta1 must be in [0, 1), got 1.0"),
        ("train.beta2=2.0", "setting train: beta2 must be in [0, 1), got 2.0"),
        ("train.eps=-1", "setting train: eps must be > 0, got -1"),
        ("train.weight_decay=-5", "setting train: weight_decay must be >= 0, got -5"),
        ("model=3", "setting model must be an object, got 3"),
        ("train=3", "setting train must be an object, got 3"),
        ("modle.hidden=8", "override 'modle.hidden': unknown settings section 'modle'"),
        ("model.gate_mode=per_layer", "setting model: unknown gate_mode 'per_layer'"),
        ("model.vocab_size=7", "error: unknown setting key 'model.vocab_size'"),
    ])
    def test_bad_override_is_one(self, workdir, tmp_path, capsys, override, key):
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(tmp_path / "run"), "--set", override])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("raw, message", [
        ("3", "expected a JSON object, got integer"),
        ('{"data": {}}', "data: expected array, got object"),
        ('{"data": [{"paragraphs": [{"context": "a b", "qas": [{"id": "q", '
         '"question": "a", "answers": 5}]}]}]}',
         "data[0].paragraphs[0].qas[0].answers: expected array or null, got integer"),
        ('{"data": [{"paragraphs": [{"qas": []}]}]}',
         "data[0].paragraphs[0]: missing 'context'"),
        ('{"data": [{"paragraphs": [{"context": "a", "qas": [{"question": "a"}]}]}]}',
         "data[0].paragraphs[0].qas[0]: missing 'id'"),
    ])
    def test_malformed_qa_file_is_one(self, tmp_path, capsys, raw, message):
        path = tmp_path / "raw.json"
        path.write_text(raw, encoding="utf-8")
        rc = main(["data", "ingest", "--in", str(path), "--out", str(tmp_path / "flat.json")])
        assert rc == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ("[]", "expected a JSON object, got array"),
        ('{"records": [{"id": "q"}]}', "records[0]: missing 'question'"),
    ])
    def test_malformed_dataset_file_is_one(self, tmp_path, capsys, raw, message):
        path = tmp_path / "flat.json"
        path.write_text(raw, encoding="utf-8")
        rc = main(["vocab", "train", "--data", str(path), "--size", "64",
                   "--out", str(tmp_path / "vocab.json")])
        assert rc == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_split_section_without_seed_takes_the_default(self, workdir, tmp_path):
        out_dir = tmp_path / "run"
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"), "--out-dir", str(out_dir),
                   "--config", str(workdir / "config.json"),
                   "--set", 'split={"ratios":[0.8,0.1,0.1]}'])
        assert rc == 0
        assert (out_dir / "checkpoint.bin").is_file()

    @pytest.mark.parametrize("argv", [
        ["data", "synth", "--out", "s.json"],
        ["data", "augment", "--in", "in.json", "--out", "a.json", "--synonyms", "syn.json",
         "--dict", "icd.json"],
        ["gradcheck"],
    ], ids=["synth", "augment", "gradcheck"])
    def test_negative_seed_flag_is_one(self, tmp_path, capsys, argv):
        # the seed is checked before any file is read or written
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main([*argv, "--seed", "-1"]) == 1
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw, message", [
        ("[]", "{path}: expected a JSON object, got array"),
        ("model: {}", "{path}: parse error at line 1: Expecting value"),
        ('{"modle": {"hidden": 8}}', "{path}: unknown settings section 'modle'"),
        ('{"model": {"hiden": 8}}', "unknown setting key 'model.hiden'"),
        ('{"train": {"learning_rate": "fast"}}',
         "setting 'train.learning_rate' must be float, got 'fast'"),
        ('{"train": {"learning_rate": Infinity}}',
         "setting 'train.learning_rate' must be finite, got inf"),
        ('{"model": {"vocab_size": 7}}', "unknown setting key 'model.vocab_size'"),
    ])
    def test_bad_config_file_is_one(self, workdir, tmp_path, capsys, raw, message):
        path = tmp_path / "config.json"
        path.write_text(raw, encoding="utf-8")
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(tmp_path / "run"), "--config", str(path)])
        assert rc == 1
        assert message.format(path=path) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("raw, message", [
        ("[]", "expected a JSON object, got array"),
        ("pieces", "parse error at line 1"),
        ("{}", "'pieces' must be an array of strings"),
        ('{"pieces": 5}', "'pieces' must be an array of strings"),
        ('{"pieces": ["a", 1]}', "'pieces' must be an array of strings"),
        ('{"pieces": ["a", "b"]}', "special marker [PAD] missing from vocabulary"),
    ])
    def test_malformed_vocab_file_is_one(self, workdir, tmp_path, capsys, raw, message):
        path = tmp_path / "vocab.json"
        path.write_text(raw, encoding="utf-8")
        rc = main(["predict", "--checkpoint", str(tmp_path / "checkpoint.bin"),
                   "--data", str(workdir / "flat.json"), "--vocab", str(path),
                   "--dict", str(workdir / "icd.json"), "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ('{"entries": 5}', "entries: expected array, got integer"),
        ('{"version": "t", "entries": [{"term": "allah", "importance_score": "0.5", '
         '"boost_factor": 2.0}]}',
         "entries[0].importance_score: expected integer or number, got string"),
    ])
    def test_malformed_dictionary_file_is_one(self, tmp_path, capsys, raw, message):
        path = tmp_path / "icd.json"
        path.write_text(raw, encoding="utf-8")
        assert main(["icd", "show", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ("[]", "expected a JSON object, got array"),
        ('{"allah": "x"}', "allah: expected integer or number, got string"),
        ('{"allah": true}', "allah: expected integer or number, got boolean"),
        ("allah: 1.1", "parse error at line 1"),
    ])
    def test_malformed_weights_file_is_one(self, workdir, tmp_path, capsys, raw, message):
        path = tmp_path / "weights.json"
        path.write_text(raw, encoding="utf-8")
        rc = main(["icd", "build", "--corpus", str(workdir / "corpus"),
                   "--terms", str(workdir / "terms.txt"), "--weights", str(path),
                   "--out", str(tmp_path / "icd.json")])
        assert rc == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "icd.json").exists()

    @pytest.mark.parametrize("raw, message", [
        ("[]", "expected a JSON object, got array"),
        ('{"gathering": 5}', "gathering: expected array, got integer"),
        ('{"gathering": [5]}', "gathering[0]: expected string, got integer"),
        ('{"gathering": "meeting"}', "gathering: expected array, got string"),
    ])
    def test_malformed_synonym_file_is_one(self, workdir, tmp_path, capsys, raw, message):
        path = tmp_path / "synonyms.json"
        path.write_text(raw, encoding="utf-8")
        rc = main(["data", "augment", "--in", str(workdir / "flat.json"),
                   "--out", str(tmp_path / "augmented.json"), "--synonyms", str(path),
                   "--dict", str(workdir / "icd.json")])
        assert rc == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "augmented.json").exists()

    def test_nonfinite_gradient_keeps_best_checkpoint(self, workdir, tmp_path, capsys,
                                                      monkeypatch):
        # TRAIN_CONFIG trains 32 records in steps of 4: validation after step 8 makes
        # it the best step, and step 12 gets a NaN gradient
        from conceptqa import model as model_mod
        real = model_mod.qa_loss_and_grads
        calls = []
        best = {}

        def poisoned(model, example, **kwargs):
            step = len(calls) // 4 + 1
            calls.append(step)
            if step == 9 and not best:
                best.update({k: v.copy() for k, v in model.params.items()})
            loss, grads = real(model, example, **kwargs)
            if step == 12:
                grads["heads.start.weight"] = np.full_like(grads["heads.start.weight"],
                                                           np.nan)
            return loss, grads

        monkeypatch.setattr(model_mod, "qa_loss_and_grads", poisoned)
        out_dir = tmp_path / "run"
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir), "--config", str(workdir / "config.json")])
        assert rc == 2
        assert ("non-finite gradient for 'heads.start.weight'; step aborted at step 12; "
                "kept the parameters of step 8") in capsys.readouterr().err
        assert max(calls) == 12
        saved = model_mod.load_checkpoint(out_dir / "checkpoint.bin")
        assert saved.params.keys() == best.keys()
        for name, value in best.items():
            np.testing.assert_array_equal(saved.params[name], value)
        history = (out_dir / "history.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in history[1:]] == ["8"]

    def test_negative_stage_epochs_is_one(self, workdir, tmp_path, capsys):
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"), "--out-dir", str(tmp_path / "run"),
                   "--set", 'stages=[{"stage":"adaptation","epochs":-3},'
                            '{"stage":"specialization","epochs":5}]'])
        assert rc == 1
        assert "setting stages.0: epochs must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_record_is_one(self, workdir, tmp_path, capsys):
        dataset = json.loads((workdir / "flat.json").read_text())
        dataset["records"][3]["answer_char_start"] += 1
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(dataset), encoding="utf-8")
        rc = main(["data", "encode", "--in", str(path), "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"), "--out", str(tmp_path / "enc.jsonl")])
        assert rc == 1
        assert f"record {dataset['records'][3]['id']!r}: span mismatch" in \
            capsys.readouterr().err

    def test_weight_out_of_range_names_file(self, workdir, tmp_path, capsys):
        path = tmp_path / "weights.json"
        path.write_text('{"allah": 5}', encoding="utf-8")
        rc = main(["icd", "build", "--corpus", str(workdir / "corpus"),
                   "--terms", str(workdir / "terms.txt"), "--weights", str(path),
                   "--out", str(tmp_path / "icd.json")])
        assert rc == 1
        assert (f"error: {path}: scholar weight for 'allah' is 5, outside [0.8, 1.2]"
                in capsys.readouterr().err)

    def test_concept_synonym_names_file(self, workdir, tmp_path, capsys):
        path = tmp_path / "synonyms.json"
        path.write_text('{"prophet": ["teacher"]}', encoding="utf-8")
        rc = main(["data", "augment", "--in", str(workdir / "flat.json"),
                   "--out", str(tmp_path / "augmented.json"), "--synonyms", str(path),
                   "--dict", str(workdir / "icd.json")])
        assert rc == 1
        assert (f"error: {path}: synonym key 'prophet' is a dictionary concept term"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("raw, message", [
        ('{"gathering": ["the prophet"]}',
         "synonym value 'the prophet' holds dictionary concept term 'prophet'"),
        ('{"evening": ["dusk", "prayer-time"]}',
         "synonym value 'prayer-time' holds dictionary concept term 'prayer'"),
        ('{"Faith-keeping": ["devotion"]}',
         "synonym key 'faith keeping' holds dictionary concept term 'faith'"),
    ])
    def test_synonym_holding_concept_term_is_one(self, workdir, tmp_path, capsys, raw,
                                                 message):
        # a multi-word alternative would plant the term in an augmented context
        path = tmp_path / "synonyms.json"
        path.write_text(raw, encoding="utf-8")
        rc = main(["data", "augment", "--in", str(workdir / "flat.json"),
                   "--out", str(tmp_path / "augmented.json"), "--synonyms", str(path),
                   "--dict", str(workdir / "icd.json"), "--rate", "1.0"])
        assert rc == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "augmented.json").exists()

    def test_synonym_keys_that_normalize_alike_are_one(self, workdir, tmp_path, capsys):
        path = tmp_path / "synonyms.json"
        path.write_text('{"Gathering": ["assembly"], "gathering": ["meeting"]}',
                        encoding="utf-8")
        rc = main(["data", "augment", "--in", str(workdir / "flat.json"),
                   "--out", str(tmp_path / "augmented.json"), "--synonyms", str(path),
                   "--dict", str(workdir / "icd.json")])
        assert rc == 1
        assert (f"error: {path}: synonym keys 'Gathering' and 'gathering' both normalize "
                "to 'gathering'") in capsys.readouterr().err
        assert not (tmp_path / "augmented.json").exists()

    @pytest.mark.parametrize("override, message", [
        ("model.lora_alpha=NaN", "setting 'model.lora_alpha' must be finite, got nan"),
        ("model.lora_alpha=Infinity", "setting 'model.lora_alpha' must be finite, got inf"),
        ("model.lora_alpha=-16", "setting model: lora_alpha must be > 0, got -16"),
        ("train.weight_decay=Infinity",
         "setting 'train.weight_decay' must be finite, got inf"),
        ("train.eps=Infinity", "setting 'train.eps' must be finite, got inf"),
    ])
    def test_non_finite_or_negative_setting_is_one(self, workdir, tmp_path, capsys,
                                                   override, message):
        out_dir = tmp_path / "run"
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"), "--out-dir", str(out_dir),
                   "--config", str(workdir / "config.json"), "--set", override])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out_dir / "checkpoint.bin").exists()

    def test_divergence_before_validation_says_so(self, workdir, tmp_path, capsys,
                                                  monkeypatch):
        from conceptqa import model as model_mod
        real = model_mod.qa_loss_and_grads

        def poisoned(model, example, **kwargs):
            loss, grads = real(model, example, **kwargs)
            grads["heads.start.bias"] = np.full_like(grads["heads.start.bias"], np.nan)
            return loss, grads

        monkeypatch.setattr(model_mod, "qa_loss_and_grads", poisoned)
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(tmp_path / "run"), "--config", str(workdir / "config.json")])
        assert rc == 2
        out = capsys.readouterr().out
        assert "no validation ran;" in out
        assert "best val EM" not in out

    def test_config_override_flags_win(self, workdir, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["data", "synth", "--out", str(out), "--n", "3", "--seed", "1"])
        assert rc == 0
        assert len(json.loads(out.read_text())["data"][0]["paragraphs"]) == 3

    def test_divergence_raises_at_the_first_overflow(self, workdir, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--data", str(workdir / "flat.json"),
                       "--vocab", str(workdir / "vocab.json"),
                       "--dict", str(workdir / "icd.json"),
                       "--out-dir", str(tmp_path / "run"), "--config",
                       str(workdir / "config.json"),
                       "--set", "train.learning_rate=1e30", "--set", "train.warmup_steps=2"])
        assert rc == 2
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
        assert re.search(r"runtime error: TrainingDiverged: (overflow|invalid value) "
                         r"encountered in \w+ at step \d+; kept the parameters of step 0$",
                         capsys.readouterr().err.strip())

    @pytest.mark.parametrize("flags", [[], ["--train-first", "--checkpoints", "."]],
                             ids=["neither", "both"])
    def test_ablate_needs_one_model_source(self, workdir, tmp_path, capsys, flags):
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(tmp_path / "abl"), *flags])
        assert rc == 1
        assert ("error: ablate needs exactly one of --train-first and --checkpoints"
                in capsys.readouterr().err)
        assert not (tmp_path / "abl").exists()

    def test_synth_takes_the_most_slots_the_word_lists_allow(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["data", "synth", "--out", str(out), "--n", "2", "--slots", "25"]) == 0
        context = json.loads(out.read_text())["data"][0]["paragraphs"][0]["context"]
        assert context.count(" spoke of ") == 25

    @pytest.mark.parametrize("flags, message", [
        (["--n", "-3"], "n must be >= 0, got -3"),
        (["--context-words", "-5"], "target_context_words must be a positive number, got -5.0"),
        (["--question-words", "0"], "target_question_words must be a positive number, got 0.0"),
        (["--context-words", "nan"], "target_context_words must be a positive number, got nan"),
        (["--slots", "26"], "n_slots (--slots) must be between 1 and 25, got 26"),
        (["--slots", "0"], "n_slots (--slots) must be between 1 and 25, got 0"),
    ])
    def test_bad_synth_setting_is_one(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s.json"
        rc = main(["data", "synth", "--out", str(out), *flags])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

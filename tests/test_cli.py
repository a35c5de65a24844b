import json

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

    def test_synth_writes_squad(self, tmp_path):
        out = tmp_path / "synth.json"
        assert main(["data", "synth", "--out", str(out), "--n", "12",
                     "--seed", "5"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["data"][0]["paragraphs"]) == 12

    def test_encode_emits_jsonl(self, workdir, tmp_path):
        from conceptqa.data import load_encoded_jsonl
        out = tmp_path / "encoded.jsonl"
        assert main(["data", "encode", "--in", str(workdir / "flat.json"),
                     "--vocab", str(workdir / "vocab.json"),
                     "--dict", str(workdir / "icd.json"),
                     "--out", str(out)]) == 0
        encoded = load_encoded_jsonl(out)
        assert len(encoded) == 40
        assert all(e.example.gold_span is not None for e in encoded)

    def test_augment_grows_dataset(self, workdir, tmp_path):
        syn = tmp_path / "synonyms.json"
        syn.write_text(json.dumps(synthetic.default_synonym_table()), encoding="utf-8")
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
        (lambda h: h["tensors"][0].update(nbytes=h["tensors"][0]["nbytes"] + 4),
         "bytes for shape"),
        (lambda h: h["tensors"][-1].update(offset=h["tensors"][-1]["offset"] + 4),
         "the body has"),
        (lambda h: h["tensors"].pop(),
         "tensor table entry 34 must be 'layer0.ln2.gamma' with 64 bytes for shape [16], "
         "got None"),
        (lambda h: h["tensors"][0].update(shape=[2, 2]),
         "tensor table entry 0 must be 'embed.domain_projection' with 1024 bytes for shape "
         "[16, 16], got"),
        (lambda h: h["tensors"][0].update(offset=0.0),
         "tensor 'embed.domain_projection' at body offset 0.0: the body has"),
        (lambda h: h.update(config=3), "header 'config' must be dict, got 3"),
        (lambda h: h["config"].update(layers="2"), "config 'layers' must be int, got '2'"),
        (lambda h: h.pop("tensors"), "header 'tensors' must be list, got nothing"),
        (lambda h: h.update(tensors=h["tensors"] + h["tensors"][:1]),
         "the tensor table has 36 entries, the config 35 tensors"),
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

    def test_ablate_missing_checkpoint_fails(self, workdir, tmp_path):
        rc = main(["ablate", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(tmp_path / "abl"),
                   "--checkpoints", str(tmp_path)])
        assert rc == 1


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
        ("model=3", "setting model must be an object, got 3"),
        ("train=3", "setting train must be an object, got 3"),
    ])
    def test_bad_override_is_one(self, workdir, tmp_path, capsys, override, key):
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(tmp_path / "run"), "--set", override])
        assert rc == 1
        assert key in capsys.readouterr().err

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

    def test_config_override_flags_win(self, workdir, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["data", "synth", "--out", str(out), "--n", "3", "--seed", "1"])
        assert rc == 0
        assert len(json.loads(out.read_text())["data"][0]["paragraphs"]) == 3

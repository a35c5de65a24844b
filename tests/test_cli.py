import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conceptqa import cli, evaluation, synthetic, training
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

    def test_build_rejects_a_term_of_two_words(self, workdir, tmp_path, capsys):
        terms = tmp_path / "terms.txt"
        terms.write_text("prayer-time\nallah\n", encoding="utf-8")
        assert main(["icd", "build", "--corpus", str(workdir / "corpus"),
                     "--terms", str(terms), "--out", str(tmp_path / "icd.json")]) == 1
        assert ("term 'prayer-time' normalizes to 2 words, not one"
                in capsys.readouterr().err)
        assert not (tmp_path / "icd.json").exists()

    def test_build_reads_one_term_per_line(self, workdir, tmp_path, capsys):
        terms = tmp_path / "terms.txt"
        terms.write_text("prayer\n\n  allah  \n", encoding="utf-8")
        assert main(["icd", "build", "--corpus", str(workdir / "corpus"),
                     "--terms", str(terms), "--out", str(tmp_path / "icd.json")]) == 0
        from conceptqa.dictionary import load_dictionary
        assert list(load_dictionary(tmp_path / "icd.json").entries) == ["prayer", "allah"]

        terms.write_text("the prophet\nprayer\n", encoding="utf-8")
        out = tmp_path / "two.json"
        assert main(["icd", "build", "--corpus", str(workdir / "corpus"),
                     "--terms", str(terms), "--out", str(out)]) == 1
        assert f"{terms}:1: term 'the prophet' is 2 words, not one" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_corpus_is_validation_failure(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        rc = main(["icd", "build", "--corpus", str(empty), "--terms", str(empty / "x"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1


class TestKeptHeap:
    """``main`` keeps freed blocks in the heap with glibc's ``mallopt``, and the
    manifest records whether it did."""

    SETTING = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}

    def _synth_manifest(self, out_dir) -> dict:
        assert main(["data", "synth", "--out", str(out_dir / "s.json"), "--n", "2"]) == 0
        return json.loads((out_dir / "manifest.json").read_text())

    def test_manifest_records_the_heap_setting(self, tmp_path):
        if cli._keep_freed_heap() is None:
            pytest.skip("no glibc mallopt")
        assert self._synth_manifest(tmp_path)["environment"]["malloc"] == self.SETTING

    def test_attention_arrays_stop_page_faulting(self):
        """Once the heap is kept, forward + backward steps at L = 383 of the
        default model fault in fewer than 50 pages per step, over 20 steps.
        With glibc's defaults they fault in about 1,000 per step, though
        stretches of several steps read 0 as its dynamic threshold adapts;
        with the heap kept, one step in a run may grow the heap by about 430
        pages while the free blocks settle.  So the mean of 20 steps is
        read, not the most of a few."""
        import resource

        from conceptqa import model as model_mod

        if cli._keep_freed_heap() is None:
            pytest.skip("no glibc mallopt")
        model = model_mod.build_model(model_mod.ModelConfig(), seed=0)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, model.config.vocab_size, 383)
        boost = np.where(rng.random(383) < 0.1, 2.0, 1.0).astype(np.float32)

        def step():
            hidden, caches = model_mod.encoder_forward(model, ids, boost, return_caches=True)
            model_mod.encoder_backward(model, np.ones_like(hidden), caches)

        for _ in range(2):  # grow the heap to the step's working set
            step()
        faults = []
        for _ in range(20):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            step()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert sum(faults) < 50 * len(faults), \
            f"{sum(faults) / len(faults):.0f} faults per step: {faults}"

    def _no_library(name):
        raise OSError(f"cannot open {name}")

    @pytest.mark.parametrize("cdll", [_no_library, lambda name: object()],
                             ids=["no_library", "no_mallopt"])
    def test_no_mallopt_keeps_the_defaults(self, tmp_path, monkeypatch, cdll):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_freed_heap() is None
        assert self._synth_manifest(tmp_path)["environment"]["malloc"] is None


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
            "malloc": cli._keep_freed_heap(),
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

    def test_override_sets_one_stage_entry(self, workdir, tmp_path):
        out_dir = tmp_path / "run"
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"),
                   "--out-dir", str(out_dir), "--config", str(workdir / "config.json"),
                   "--set", "stages.0.epochs=3"])
        assert rc == 0
        stages = json.loads((out_dir / "manifest.json").read_text())["settings"]["stages"]
        assert [(s["stage"], s["epochs"]) for s in stages] == \
            [("adaptation", 3), ("specialization", 2)]
        # one validation record per epoch: 3 adaptation + 2 specialization
        assert len((out_dir / "history.csv").read_text().strip().split("\n")) == 1 + 5

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

    def test_eval_embeds_an_answer_longer_than_the_window(self, workdir, tmp_path):
        # record 0's gold answer is its whole context, more pieces than a
        # max_len 24 sequence holds: the embedding score packs it in windows
        fixture = synthetic.generate_records(40, seed=3)
        rec = fixture.records[0]
        fixture.records[0] = dataclasses.replace(rec, answer_text=rec.context,
                                                 answer_char_start=0, all_answers=[rec.context])
        synthetic.write_squad(fixture, tmp_path / "raw.json")
        flat, vocab = str(tmp_path / "flat.json"), str(tmp_path / "vocab.json")
        assert main(["data", "ingest", "--in", str(tmp_path / "raw.json"), "--out", flat]) == 0
        assert main(["vocab", "train", "--data", flat, "--size", "200", "--out", vocab]) == 0
        common = ["--data", flat, "--vocab", vocab, "--dict", str(workdir / "icd.json")]
        assert main(["train", *common, "--out-dir", str(tmp_path / "run"),
                     "--config", str(workdir / "config.json"), "--set", "model.max_len=24",
                     "--set", "model.hidden=8", "--set", "stages.1.epochs=1"]) == 0
        assert main(["eval", *common, "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                     "--out-dir", str(tmp_path / "eval")]) == 0
        preds = json.loads((tmp_path / "eval" / "predictions.json").read_text())
        assert preds[0]["gold_text"] == rec.context

    def test_eval_and_predict_report_contexts_cut_at_max_len(self, workdir, tmp_path, capsys):
        from conceptqa import data, tokenizer
        vocab = tokenizer.load_vocab(workdir / "vocab.json")
        records = data.load_dataset(workdir / "flat.json").records
        cut = sum(tokenizer.encode_qa(r.question, r.context, vocab, max_len=52).truncated
                  for r in records)
        assert 0 < cut < len(records) == 40
        common = ["--data", str(workdir / "flat.json"), "--vocab", str(workdir / "vocab.json"),
                  "--dict", str(workdir / "icd.json")]
        assert main(["train", *common, "--out-dir", str(tmp_path / "run"),
                     "--config", str(workdir / "config.json"), "--set", "model.max_len=52",
                     "--set", "model.hidden=8", "--set", "stages.1.epochs=1"]) == 0
        capsys.readouterr()
        scoring = [*common, "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")]
        line = f"{cut} of 40 contexts cut at max_len 52"
        assert main(["eval", *scoring, "--out-dir", str(tmp_path / "eval")]) == 0
        assert line in capsys.readouterr().out.splitlines()
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["n_truncated"] == cut
        assert main(["predict", *scoring, "--out", str(tmp_path / "preds.json")]) == 0
        assert line in capsys.readouterr().out.splitlines()

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
         "the body has 57984 bytes, the config's tensors take 58048"),
        (lambda h: h.update(tensors=[]), "unknown header key 'tensors'"),
        (lambda h: h["config"].update(layers=10**9),
         "config has 1000000000 layers of hidden 16, more than the 57984-byte body holds"),
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
        (lambda raw: raw[:-4], "the body has 57980 bytes, the config's tensors take 57984"),
        (lambda raw: raw + raw[-4:], "the body has 57988 bytes, the config's tensors take"),
        (lambda raw: raw[:4] + np.uint32(1).tobytes() + raw[8:],
         "unsupported checkpoint format 1"),
        (lambda raw: raw[:4] + np.uint32(2).tobytes() + raw[8:],
         "unsupported checkpoint format 2"),
    ], ids=["float_cut", "float_added", "format_1", "format_2"])
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
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"][:4] == [str(out_dir / f"checkpoint-{variant}.bin")
                                           for variant in ABLATION_VARIANTS]

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


class TestBlasThreads:
    """Outputs do not depend on the BLAS thread count: the row sums of the
    attention and of LayerNorm are BLAS products, which OpenBLAS may split
    over threads once a matrix is large enough."""

    def test_train_and_predict_are_byte_identical_at_one_and_two_threads(self, workdir,
                                                                         tmp_path):
        # ~200-word contexts at hidden 32: the (4, L, L) softmax row sums and
        # the (L, dh, L) context products pass OpenBLAS's threading thresholds
        fixture = synthetic.generate_records(10, seed=5, target_context_words=200)
        synthetic.write_squad(fixture, tmp_path / "raw.json")
        data, vocab = str(tmp_path / "flat.json"), str(tmp_path / "vocab.json")
        assert main(["data", "ingest", "--in", str(tmp_path / "raw.json"), "--out", data]) == 0
        assert main(["vocab", "train", "--data", data, "--size", "256", "--out", vocab]) == 0
        config = {**TRAIN_CONFIG, "model": {"layers": 1, "hidden": 32, "heads": 4,
                                            "lora_rank": 2, "max_rel_distance": 16}}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        common = ["--vocab", vocab, "--dict", str(workdir / "icd.json")]
        code = (
            "import sys\n"
            "from conceptqa.cli import main\n"
            "run, args = sys.argv[1], sys.argv[2:]\n"
            f"assert main(['train', '--data', {data!r}, *args, '--out-dir', run,\n"
            f"             '--config', {str(tmp_path / 'config.json')!r}]) == 0\n"
            f"assert main(['predict', '--checkpoint', run + '/checkpoint.bin',\n"
            f"             '--data', {data!r}, *args, '--out', run + '/predictions.json']) == 0\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            run = tmp_path / f"threads{threads}"
            result = subprocess.run([sys.executable, "-c", code, str(run), *common], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr[-2000:]
            assert json.loads((run / "manifest.json").read_text())[
                "environment"]["OPENBLAS_NUM_THREADS"] == threads
            outputs.append([(run / name).read_bytes()
                            for name in ("checkpoint.bin", "predictions.json")])
        assert outputs[0] == outputs[1]


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
        ("stages=[]", "error: no training steps: the stages run 0 epochs"),
        ('stages=[{"stage":"adaptation","epochs":0},{"stage":"specialization","epochs":0}]',
         "error: no training steps: the stages run 0 epochs"),
        ("split.ratios=oops", "split.ratios"),
        ("split.seed=oops", "split.seed"),
        ("split.bogus=1", "unknown setting key 'split.bogus'"),
        ("split.ratios=[0.5,0.5]", "setting split: ratios must be 3 numbers >= 0, got [0.5, 0.5]"),
        ('stages=[{"stage":"adaptation","boost_enabled":true}]',
         "unknown setting key 'stages.0.boost_enabled'"),
        ("train.seed=-1", "setting train: seed must be >= 0, got -1"),
        ("split.seed=-1", "setting split: seed must be >= 0, got -1"),
        ("train.beta1=0.9", "error: unknown setting key 'train.beta1'"),
        ("train.beta2=0.999", "error: unknown setting key 'train.beta2'"),
        ("train.eps=1e-8", "error: unknown setting key 'train.eps'"),
        ("train.weight_decay=-5", "setting train: weight_decay must be >= 0, got -5"),
        ("model=3", "setting model must be an object, got 3"),
        ("train=3", "setting train must be an object, got 3"),
        ("modle.hidden=8", "override 'modle.hidden': unknown settings section 'modle'"),
        ("model.gate_mode=per_layer", "setting model: unknown gate_mode 'per_layer'"),
        ("model.vocab_size=7", "error: unknown setting key 'model.vocab_size'"),
        ("stages.5.epochs=3",
         "override 'stages.5.epochs': '5' is not an index into a list of 2 entries"),
        ("stages.x.epochs=3",
         "override 'stages.x.epochs': 'x' is not an index into a list of 2 entries"),
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
        ('{"train": {"beta1": 0.9}}', "unknown setting key 'train.beta1'"),
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

    @pytest.mark.parametrize("term, words", [("the prophet", 2), ("!!!", 0),
                                             ("prayer-time", 2)])
    def test_dictionary_term_of_other_than_one_word_is_one(self, tmp_path, capsys, term,
                                                           words):
        # boost_of matches single words, so such a term could never boost a token
        path = tmp_path / "icd.json"
        path.write_text(json.dumps({"version": "t", "entries": [
            {"term": term, "importance_score": 1.0, "boost_factor": 3.0}]}), encoding="utf-8")
        assert main(["icd", "show", str(path)]) == 1
        assert (f"{path}: term {term!r} normalizes to {words} words, not one"
                in capsys.readouterr().err)

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
                grads["heads.start.weight"][...] = np.nan  # the views are the step's sum
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

    def test_a_stage_that_trains_nothing_is_one(self, workdir, tmp_path, capsys):
        rc = main(["train", "--data", str(workdir / "flat.json"),
                   "--vocab", str(workdir / "vocab.json"),
                   "--dict", str(workdir / "icd.json"), "--out-dir", str(tmp_path / "run"),
                   "--config", str(workdir / "config.json"), "--set", "stages.0.trainable=[]"])
        assert rc == 1
        assert ("setting stages.0: trainable must name at least one group"
                in capsys.readouterr().err)
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
        ("train.learning_rate=Infinity",
         "setting 'train.learning_rate' must be finite, got inf"),
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
            grads["heads.start.weight"][...] = np.nan  # the views are the step's sum
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


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["icd build", "data ingest", "data augment",
                                         "data synth", "data encode", "vocab train",
                                         "predict"], ids=lambda c: c.replace(" ", "_"))
    def test_out_into_a_missing_directory(self, workdir, trained, tmp_path, synonym_table,
                                          command):
        syn = tmp_path / "synonyms.json"
        syn.write_text(json.dumps(synonym_table), encoding="utf-8")
        flat, vocab, icd = (str(workdir / f) for f in ("flat.json", "vocab.json", "icd.json"))
        flags = {
            "icd build": ["--corpus", str(workdir / "corpus"),
                          "--terms", str(workdir / "terms.txt")],
            "data ingest": ["--in", str(workdir / "raw.json")],
            "data augment": ["--in", flat, "--synonyms", str(syn), "--dict", icd],
            "data synth": ["--n", "4"],
            "data encode": ["--in", flat, "--vocab", vocab, "--dict", icd],
            "vocab train": ["--data", flat, "--size", "64"],
            "predict": ["--checkpoint", str(trained / "checkpoint.bin"), "--data", flat,
                        "--vocab", vocab, "--dict", icd],
        }[command]
        out = tmp_path / "new" / "deeper" / "out.json"
        assert main([*command.split(), *flags, "--out", str(out)]) == 0
        assert out.is_file()
        assert json.loads((out.parent / "manifest.json").read_text())["outputs"] == [str(out)]

    @pytest.mark.parametrize("case", ["checkpoint_is_a_directory", "out_is_a_directory",
                                      "out_dir_is_a_file"])
    def test_a_path_that_cannot_be_read_or_written_is_one(self, workdir, trained, tmp_path,
                                                          capsys, case):
        inputs = ["--data", str(workdir / "flat.json"), "--vocab", str(workdir / "vocab.json"),
                  "--dict", str(workdir / "icd.json")]
        ckpt = str(trained / "checkpoint.bin")
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv, path = {
            "checkpoint_is_a_directory": (["eval", "--checkpoint", str(tmp_path), *inputs,
                                           "--out-dir", str(tmp_path / "ev")], tmp_path),
            "out_is_a_directory": (["predict", "--checkpoint", ckpt, *inputs,
                                    "--out", str(tmp_path)], tmp_path),
            "out_dir_is_a_file": (["eval", "--checkpoint", ckpt, *inputs,
                                   "--out-dir", str(taken)], taken),
        }[case]
        assert main(argv) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.fixture
    def work_ran(self, monkeypatch):
        """Names of the training and scoring functions that ran, each still
        doing its work."""
        ran = []
        for module, name in ((training, "train_two_stage"), (evaluation, "evaluate"),
                             (evaluation, "predict_all")):
            def record(*a, _name=name, _real=getattr(module, name), **k):
                ran.append(_name)
                return _real(*a, **k)
            monkeypatch.setattr(module, name, record)
        return ran

    @pytest.mark.parametrize("under_a_file", [False, True], ids=["file", "under_a_file"])
    def test_train_out_dir_that_is_a_file_fails_before_training(self, workdir, tmp_path, capsys,
                                                                work_ran, under_a_file):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out_dir = taken / "run" if under_a_file else taken
        assert main(["train", "--data", str(workdir / "flat.json"),
                     "--vocab", str(workdir / "vocab.json"), "--dict", str(workdir / "icd.json"),
                     "--config", str(workdir / "config.json"), "--out-dir", str(out_dir)]) == 1
        assert work_ran == []
        assert f"--out-dir {out_dir}: " in capsys.readouterr().err

    def test_eval_out_dir_that_is_a_file_fails_before_scoring(self, workdir, trained, tmp_path,
                                                             capsys, work_ran):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(workdir / "flat.json"), "--vocab", str(workdir / "vocab.json"),
                     "--dict", str(workdir / "icd.json"), "--out-dir", str(taken)]) == 1
        assert work_ran == []
        assert f"--out-dir {taken}: not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "under_a_file"])
    def test_predict_out_that_cannot_be_a_file_fails_before_scoring(self, workdir, trained,
                                                                    tmp_path, capsys, work_ran,
                                                                    case):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out, message = {"directory": (tmp_path, "is a directory"),
                        "under_a_file": (taken / "p.json", f"{taken} is not a directory")}[case]
        assert main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(workdir / "flat.json"), "--vocab", str(workdir / "vocab.json"),
                     "--dict", str(workdir / "icd.json"), "--out", str(out)]) == 1
        assert work_ran == []
        assert f"--out {out}: {message}" in capsys.readouterr().err

    def test_data_command_out_under_a_file_fails_before_reading(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        # the input does not exist: the output path is checked first
        assert main(["data", "ingest", "--in", str(tmp_path / "missing.json"),
                     "--out", str(taken / "flat.json")]) == 1
        assert f"--out {taken / 'flat.json'}: {taken} is not a directory" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("out_dir", ["/", "."], ids=["root", "dot_at_root"])
    def test_eval_out_dir_at_the_root_reaches_scoring(self, workdir, trained, monkeypatch,
                                                      capsys, out_dir):
        def stop(*a, **k):
            raise ValueError("scoring reached")
        monkeypatch.setattr(evaluation, "evaluate", stop)
        monkeypatch.chdir("/")
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(workdir / "flat.json"), "--vocab", str(workdir / "vocab.json"),
                     "--dict", str(workdir / "icd.json"), "--out-dir", out_dir]) == 1
        assert "error: scoring reached" in capsys.readouterr().err

"""A toy CLI pipeline writes the same bytes as the commit that pinned them.

``data synth``, ``data ingest``, ``vocab train``, ``train``, ``eval`` and
``predict`` run through ``cli.main`` at a toy size, and the sha256 of each
output the contract fixes is compared with ``PIPELINE_SHA256``: the training
history, the checkpoint, both prediction files and the eval report without
``mean_latency_ms`` (a wall-clock reading).  Unlike criterion 9, which
compares two runs in one process, this sees a change against the committed
code.  The digests hold for one numpy and BLAS build; a mismatch prints both.
The script run under ``PYTHONHASHSEED`` 1 and 2 must print them too, which
catches an output that follows the iteration order of a set of strings.

A change that alters these outputs on purpose prints the new digests with
``python tests/test_pipeline_golden.py`` and records the old and new digests
in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conceptqa
from conceptqa.cli import main
from conceptqa.dictionary import builtin_dictionary, save_dictionary

PIPELINE_SHA256 = {
    "run/history.csv": "7c1db92a9f5d8e11c02d28faa1023008faad665df65da49d912b19bda2aa6057",
    "run/checkpoint.bin": "86c9f08a406553e3b5e980c2470f97319d9862b364fc920b31da1be6f577ad84",
    "eval/predictions.json": "94dcf66ad274ea69f43d5d4ef55923e58e38aebe2bcbfa22f487d7088157ec55",
    "eval/report.json": "0064f2814cc61095c2b8800598a35c83309a198e28facffe2a8593401f21cd70",
    "predictions.json": "94dcf66ad274ea69f43d5d4ef55923e58e38aebe2bcbfa22f487d7088157ec55",
}

CONFIG = {
    "model": {"layers": 1, "hidden": 16, "heads": 2, "lora_rank": 2, "max_rel_distance": 4},
    "train": {"learning_rate": 5e-2, "warmup_steps": 2, "effective_batch": 4,
              "max_epochs": 8, "patience": 9, "seed": 0},
    "stages": [{"stage": "adaptation", "epochs": 1},
               {"stage": "specialization", "epochs": 7}],
    "split": {"ratios": [0.75, 0.25, 0.0], "seed": 0},
}


def run_pipeline(root: Path) -> dict[str, str]:
    """Run the toy pipeline in ``root``; the sha256 of each pinned output."""
    f = {k: str(root / k) for k in ("raw.json", "data.json", "vocab.json", "dict.json",
                                    "config.json", "run", "eval", "predictions.json")}
    save_dictionary(builtin_dictionary(), f["dict.json"])
    Path(f["config.json"]).write_text(json.dumps(CONFIG), encoding="utf-8")
    inputs = ["--data", f["data.json"], "--vocab", f["vocab.json"], "--dict", f["dict.json"]]
    scoring = ["--checkpoint", str(root / "run" / "checkpoint.bin"), *inputs]
    for argv in (["data", "synth", "--out", f["raw.json"], "--n", "40", "--seed", "5"],
                 ["data", "ingest", "--in", f["raw.json"], "--out", f["data.json"]],
                 ["vocab", "train", "--data", f["data.json"], "--size", "160",
                  "--out", f["vocab.json"]],
                 ["train", *inputs, "--out-dir", f["run"], "--config", f["config.json"]],
                 ["eval", *scoring, "--out-dir", f["eval"]],
                 ["predict", *scoring, "--out", f["predictions.json"]]):
        assert main(argv) == 0, argv
    report = json.loads((root / "eval" / "report.json").read_text(encoding="utf-8"))
    report.pop("mean_latency_ms")
    blobs = {name: (root / name).read_bytes() for name in PIPELINE_SHA256}
    blobs["eval/report.json"] = json.dumps(report, sort_keys=True).encode("utf-8")
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


def test_pipeline_outputs_match_the_pinned_digests(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        digests = run_pipeline(tmp_path)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert digests == PIPELINE_SHA256, (
        f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}")


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_pipeline_digests_do_not_depend_on_the_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(conceptqa.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, __file__], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert dict(line.split() for line in result.stdout.splitlines()) == PIPELINE_SHA256


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        result = run_pipeline(Path(tmp))
    for name, digest in result.items():
        print(f"{name} {digest}")

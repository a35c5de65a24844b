"""conceptqa benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload train_short --seed 1 --seconds 25 --trace 0

Repeats passes of the workload (see ``workloads.py``) through the public CLI
``conceptqa.cli.main`` in-process for ``--seconds`` seconds, checks every
output, and prints the metrics named in ``BENCHMARK.json``: the end-to-end
ones with ``--trace 0``, the per-layer ones with ``--trace 1``.  A traced run
alternates untraced and traced passes; their wall-time gap is the tracing
overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# The timed code runs single-threaded; this must precede the numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_program():
    """Import conceptqa from this checkout's sources, or exit with an error."""
    if not (SRC / "conceptqa" / "__init__.py").is_file():
        sys.exit(f"error: no conceptqa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conceptqa

    if Path(conceptqa.__file__).resolve().parent != SRC / "conceptqa":
        sys.exit(f"error: conceptqa imported from {conceptqa.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from files (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_passes(wl, args, checks, tracing, workloads):
    """Repeat passes for ``args.seconds``.  A traced run alternates untraced
    and traced passes, from an untraced first pass that also warms the
    process.  Returns the passes, the per-layer values of the traced ones and
    the training example lengths."""
    reference = workloads.make_reference()
    tracer = tracing.Tracer() if args.trace else None
    workroot = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    passes, layer_runs = [], []
    usable: list[int] = []
    test_lengths: list[int] = []
    first_sha = None
    start = time.perf_counter()
    try:
        while (len(passes) < 1 + 2 * args.trace
               or time.perf_counter() - start < args.seconds):
            traced = bool(args.trace) and len(passes) % 2 == 1
            workdir = workroot / f"pass{len(passes)}"
            try:
                with tracer if traced else contextlib.nullcontext():
                    p = workloads.run_pass(wl, args.seed, workdir, checks, reference)
                usable = usable or workloads.usable_train_examples(workdir)
                test_lengths = workloads.check_pass(wl, workdir, p, checks, first_sha)
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                traceback.print_exc()
                checks(f"pass {len(passes) + 1}", False, f"{type(exc).__name__}: {exc}")
                break
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            first_sha = first_sha or p.checkpoint_sha256
            p.traced = traced
            passes.append(p)
            print(f"pass {len(passes)}{' traced' if traced else ''}: "
                  f"setup {p.setup_s:.3f} s, "
                  + ", ".join(f"{k} {v:.3f} s" for k, v in p.cmd_s.items()))
            if traced:
                idx = tracing.SpanIndex(list(tracer.spans))
                values, notes = tracing.layer_metrics(idx, wl.n_test)
                calls = values["model.encoder_forward.calls"]
                checks("trace: gate_forward calls = layers x encoder_forward calls",
                       values["gating.gate_forward.calls"] == workloads.LAYERS * calls,
                       f"{values['gating.gate_forward.calls']} vs {calls}")
                examples = wl.total_epochs * len(usable)
                checks("trace: qa_loss_and_grads calls = epochs x usable examples",
                       idx.calls("model.qa_loss_and_grads") == examples,
                       f"{idx.calls('model.qa_loss_and_grads')} vs {examples}")
                layer_runs.append((values, notes, idx))
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    print(f"inputs: train examples {len(usable)} (L {_lengths(usable)}), "
          f"test examples {len(test_lengths)} (L {_lengths(test_lengths)})")
    print(f"checkpoint sha256 {first_sha}")
    if tracer is not None:
        print(f"trace: {tracer.n_bindings} function bindings wrapped")
    return passes, layer_runs, usable


def run_reference(passes) -> float:
    """Median reference-kernel seconds over every bracket of the run."""
    return statistics.median(r for p in passes for r in p.ref_s.values())


def end_to_end(wl, passes, usable, report) -> None:
    """The ``end_to_end`` metrics, medians over passes of scaled timings."""
    def raw(values) -> str:
        return f"raw median {statistics.median(values):.6g}"

    ref = run_reference(passes)
    examples = wl.total_epochs * len(usable)
    report("setup_s", [p.scaled("setup", ref) for p in passes],
           raw(p.setup_s for p in passes) + " s")
    report("train_examples_per_s", [examples / p.scaled("train", ref) for p in passes],
           f"{wl.total_epochs} epochs x {len(usable)} examples"
           + ("" if wl.timed_train else " in the set-up's train") + "; "
           + raw(examples / p.cmd_s["train"] for p in passes))
    for cmd in ("eval", "predict"):
        report(f"{cmd}_examples_per_s", [wl.n_test / p.scaled(cmd, ref) for p in passes],
               f"{wl.n_test} test examples; " + raw(wl.n_test / p.cmd_s[cmd] for p in passes))
    report("peak_rss_mb", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
    report("final_train_loss", [p.final_loss for p in passes])


def per_layer(passes, layer_runs, report) -> list[str]:
    """The ``per_layer`` metrics, medians over traced passes, plus the
    tracing overhead; returns call-tree lines of the last traced pass."""
    for name in layer_runs[0][0]:
        report(name, [values[name] for values, _, _ in layer_runs],
               layer_runs[-1][1].get(name, ""))
    ref = run_reference(passes)
    traced = [p.scaled_wall(ref) for p in passes if p.traced]
    untraced = [p.scaled_wall(ref) for p in passes[1:] if not p.traced]  # warm only
    if untraced:
        report("trace.overhead_pct",
               [100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)],
               f"scaled wall of {len(traced)} traced vs {len(untraced)} warm "
               "untraced pass(es)")
    idx = layer_runs[-1][2]
    lines = ["trace: largest self times: "
             + ", ".join(f"{n} {s:.3f}s" for n, s in idx.top_self(6))]
    for cmd in ("cli.cmd_train", "cli.cmd_eval", "cli.cmd_predict"):
        lines.append(f"trace: {cmd} {idx.total_s(cmd):.3f}s, call tree:")
        lines += [f"trace: {'  ' * level}{n} {s:.3f}s"
                  for level, n, s in idx.tree(cmd) if s >= 0.001]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"conceptqa benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    checks = workloads.Checks()
    passes, layer_runs, usable = run_passes(wl, args, checks, tracing, workloads)

    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics: dict[str, float] = {}
    lines: list[str] = []

    def report(name: str, values: list[float], note: str = "") -> None:
        q1, med, q3 = quartiles(values)
        metrics[name] = med
        lines.append(f"{name} = {med:.6g} {wanted.get(name)}  "
                     f"(median of {len(values)} pass(es); "
                     f"q1 {q1:.6g}, q3 {q3:.6g}){'  ' + note if note else ''}")

    if args.trace and layer_runs:
        lines += per_layer(passes, layer_runs, report)
    elif passes and not args.trace:
        end_to_end(wl, passes, usable, report)

    failed = len(checks.failures)
    attempted = max(checks.attempted, 1)
    print(f"ops: attempted {attempted}, failed {failed}, "
          f"ops_failed_frac {failed / attempted:.6g}")
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")
    for line in lines:
        print(line)
    if failed == 0 and set(metrics) != set(wanted):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(wanted))} "
                 "differ between this run and BENCHMARK.json")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in wanted.items()},
    }
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"env": env, "result": result, "passes": [vars(p) for p in passes],
         "failures": checks.failures}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    if layer_runs:
        with open(OUT / f"{tag}-spans.jsonl", "w", encoding="utf-8") as fh:
            for i, (_, _, idx) in enumerate(layer_runs):
                for s in idx.spans:
                    fh.write(json.dumps([i, *s[:4]]) + "\n")
    print(json.dumps(result))
    return 0


def _lengths(values: list[int]) -> str:
    if not values:
        return "none"
    return (f"{min(values)}-{max(values)}, median {statistics.median(values):g}, "
            f"{len(set(values))} distinct")


if __name__ == "__main__":
    sys.exit(main())

"""Each attention weight is projected once per layer.

The guard walks ``model.py`` and fails unless ``_attention_fwd`` makes exactly
one ``_lin_fwd`` call and ``_attention_bwd`` exactly one ``_lin_bwd`` call for
each of the q, k, v and o weights.  The relative-position rows go through the
same call as the content rows: a second projection of them is a second copy
of the LoRA-adapted weight and its gradient, summed by hand.
"""

import ast
from collections import Counter
from pathlib import Path

import conceptqa

MODEL = Path(conceptqa.__file__).resolve().parent / "model.py"
PROJECTIONS = ("_lin_fwd", "_lin_bwd")


def projections(path: Path) -> dict[str, Counter]:
    """Per attention function, its projection calls as ``op(weight)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        fn.name: Counter(f"{node.func.id}({ast.unparse(node.args[1])})"
                         for node in ast.walk(fn)
                         if isinstance(node, ast.Call)
                         and getattr(node.func, "id", None) in PROJECTIONS)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_attention_fwd", "_attention_bwd")
    }


def test_one_projection_per_weight():
    weights = ("wq", "wk", "wv", "wo")
    assert projections(MODEL) == {
        "_attention_fwd": Counter(f"_lin_fwd({w})" for w in weights),
        "_attention_bwd": Counter(f"_lin_bwd({w})" for w in weights),
    }


def test_guard_sees_each_pattern(tmp_path):
    path = tmp_path / "attn.py"
    path.write_text("def _attention_fwd(h, rel):\n"
                    "    q = _lin_fwd(h, wq, aq, bq, s)\n"
                    "    qr = _lin_fwd(rel, wq, aq, bq, s)\n"
                    "    v = _lin_fwd(h, wv, av, bv, s)\n"
                    "def _attention_bwd(dq):\n"
                    "    _lin_bwd(dq, wq, aq, bq, s, c)\n"
                    "    _lin_fwd(dq, wk, ak, bk, s)\n", encoding="utf-8")
    assert projections(path) == {
        "_attention_fwd": Counter({"_lin_fwd(wq)": 2, "_lin_fwd(wv)": 1}),
        "_attention_bwd": Counter({"_lin_bwd(wq)": 1, "_lin_fwd(wk)": 1}),
    }

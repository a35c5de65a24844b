"""Every settings field, read through ``cli._settings`` with a bad value.

Each draw sets one field of ``model``, ``train``, a ``stages`` entry or
``split`` to a wrong type, NaN, an infinity, a negative, zero or a small value
that may be out of range (for a list field, the whole list or one element).
The read either fails with a ValueError that names the section and the field,
or gives configs whose numbers are all finite and in range; ``model.vocab_size``
is always rejected.  Nothing is trained and nothing large is allocated.
"""

import argparse
import dataclasses
import json
import math

from hypothesis import given, settings, strategies as st

from conceptqa import cli
from conceptqa.data import SplitConfig
from conceptqa.model import ADAPTABLE_GROUPS, BOOST_ATTENTION, BOOST_OFF, BOOST_RESIDUAL, \
    GATE_OFF, GATE_SHARED, ModelConfig
from conceptqa.training import STAGE_SPECIALIZATION, StageConfig, TrainConfig

VOCAB_SIZE = 300

FIELDS = [(section, f.name) for section, cls in (("model", ModelConfig),
                                                 ("train", TrainConfig),
                                                 ("stages", StageConfig),
                                                 ("split", SplitConfig))
          for f in dataclasses.fields(cls)]

DEFAULTS = {"model": ModelConfig(), "train": TrainConfig(), "split": SplitConfig(),
            "stages": StageConfig("adaptation", 1, False, ("lora", "heads"))}

BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -1.0, True, None, "x", [], {}]),
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
    st.text(max_size=3),
)


def _bad_value(data, default):
    if isinstance(default, tuple) and data.draw(st.booleans(), label="one element"):
        value = list(default)
        value[data.draw(st.integers(0, len(value) - 1), label="at")] = data.draw(BAD)
        return value
    return data.draw(BAD, label="value")


def _override(section, name, value, data) -> tuple[str, str]:
    """The ``--set`` item, and the section label an error must name."""
    if section != "stages":
        return f"{section}.{name}={json.dumps(value)}", section
    n = data.draw(st.integers(0, 1), label="stage")
    stages = [{"stage": "adaptation"}, {"stage": "specialization"}]
    stages[n][name] = value
    return f"stages={json.dumps(stages)}", f"stages.{n}"


def _in_range(s: cli._Settings) -> bool:
    m, t = s.model, s.train
    numbers = [*(getattr(c, f.name) for c in (m, t, s.split) for f in dataclasses.fields(c)
                 if type(getattr(c, f.name)) in (int, float)), *s.split.ratios,
               *(stage.epochs for stage in s.stages)]
    return (all(type(v) in (int, float) and math.isfinite(v) for v in numbers)
            and min(m.layers, m.hidden, m.heads, m.lora_rank, m.max_len, m.ffn_multiplier,
                    m.max_answer_len) >= 1
            and m.max_rel_distance >= 0 and m.lora_alpha > 0 and m.hidden % m.heads == 0
            and m.vocab_size == VOCAB_SIZE
            and m.gate_mode in (GATE_SHARED, GATE_OFF)
            and m.boost_mode in (BOOST_RESIDUAL, BOOST_ATTENTION, BOOST_OFF)
            and type(m.residual_skip) is bool
            and min(t.learning_rate, t.effective_batch, t.warmup_steps, t.max_epochs,
                    t.patience) > 0
            and t.weight_decay >= 0 and t.seed >= 0
            and all(stage.epochs >= 0 and set(stage.trainable) <= set(ADAPTABLE_GROUPS)
                    and stage.boost_enabled == (stage.stage == STAGE_SPECIALIZATION)
                    for stage in s.stages)
            and all(0 <= r <= 1 for r in s.split.ratios)
            and abs(sum(s.split.ratios) - 1) <= 1e-9 and s.split.seed >= 0)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_bad_field_is_rejected_by_name_or_read_in_range(data):
    section, name = data.draw(st.sampled_from(FIELDS), label="field")
    value = _bad_value(data, getattr(DEFAULTS[section], name))
    override, label = _override(section, name, value, data)
    try:
        read = cli._settings(argparse.Namespace(config=None, set=[override]), VOCAB_SIZE)
    except ValueError as exc:
        assert label in str(exc) and name in str(exc), (override, str(exc))
    else:
        # the vocabulary gives model.vocab_size: no value of it is ever read
        assert (section, name) != ("model", "vocab_size") and _in_range(read), (override, read)

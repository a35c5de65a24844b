import pytest
from hypothesis import strategies as st

import conceptqa as cq
from conceptqa import data as data_mod
from conceptqa import model as model_mod
from conceptqa import synthetic
from conceptqa import tokenizer as tok
from conceptqa import training


@pytest.fixture(scope="session")
def builtin_dict():
    return cq.builtin_dictionary()


@pytest.fixture(scope="session")
def tiny_fixture():
    return synthetic.generate_records(16, seed=7)


@pytest.fixture(scope="session")
def tiny_vocab(tiny_fixture):
    return tok.train_vocab(synthetic.corpus_texts(tiny_fixture), 256)


@pytest.fixture(scope="session")
def tiny_encoded(tiny_fixture, tiny_vocab, builtin_dict):
    encoded, _ = data_mod.encode_dataset(tiny_fixture.records, tiny_vocab, builtin_dict)
    return encoded


@pytest.fixture(scope="session")
def tiny_model(tiny_vocab):
    cfg = model_mod.ModelConfig(layers=2, hidden=32, heads=4, vocab_size=len(tiny_vocab))
    return model_mod.build_model(cfg, seed=0)


@pytest.fixture(scope="session")
def memorized():
    """A small model trained to memorize its 8-record training set."""
    fix = synthetic.generate_records(8, seed=21)
    vocab = tok.train_vocab(synthetic.corpus_texts(fix), 192)
    dictionary = cq.builtin_dictionary()
    encoded, _ = data_mod.encode_dataset(fix.records, vocab, dictionary)
    cfg = model_mod.ModelConfig(layers=2, hidden=32, heads=4, vocab_size=len(vocab))
    model = model_mod.build_model(cfg, seed=0, dictionary_version=dictionary.version)
    tcfg = training.TrainConfig(learning_rate=1e-2, warmup_steps=20, seed=0)
    model = training.train_epochs_simple(model, encoded, tcfg, max_steps=200,
                                         total_steps=200)
    return model, encoded, vocab, dictionary


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)


def _mutate_json(data, node):
    """``node`` with one entry, found by descending from the root, replaced or deleted."""
    if not isinstance(node, (dict, list)) or not node or data.draw(st.integers(0, 9)) == 0:
        return data.draw(_JSON_VALUES)
    key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    action = data.draw(st.sampled_from(["descend", "replace", "delete"]))
    if action == "descend":
        node[key] = _mutate_json(data, node[key])
    elif action == "replace":
        node[key] = data.draw(_JSON_VALUES)
    else:
        del node[key]
    return node


@pytest.fixture(scope="session")
def mutate_json():
    """``_mutate_json``: one random replacement or deletion inside a JSON document."""
    return _mutate_json

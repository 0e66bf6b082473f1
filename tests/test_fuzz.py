"""Fuzzed user input: config documents and CSV files through `train`,
mutated checkpoints through `evaluate_checkpoint`, and malformed arrays
through the distance kernel, the public DAS functions, the encoder's
parameters, backward pass and optimizer step, the losses, the samplers and
the metrics.

Only `EngineError` subclasses may escape, because those are what the CLI
turns into exit codes 2 and 3.  The examples are derandomized and counted,
so every run tries the same inputs.  Values stay small where they size an
array, so no example asks for more than a few MB.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from densedml.config import RunConfig, config_from_dict, config_to_dict
from densedml.core import SeededRng, pairwise_distances
from densedml.das import (
    DasConfig,
    FrequencyRecorder,
    TransformationBank,
    combine_factors,
    draw_scales,
    draw_shifts,
    produce,
    produced_backward,
)
from densedml.data import generate_gaussian_clusters, save_csv
from densedml.encoder import (
    ACTIVATIONS,
    OPTIMIZER_RULES,
    EncoderParams,
    OptimizerState,
    backward,
    encode,
    init_params,
    optimizer_step,
    save_checkpoint,
)
from densedml.errors import EngineError
from densedml.losses import (
    LOSS_KINDS,
    LossSpec,
    PairSet,
    TripletSet,
    contrastive_loss,
    margin_loss,
    multi_similarity_loss,
    triplet_loss,
)
from densedml.metrics import evaluate_embeddings, f1_score, kmeans, nmi, recall_at_k
from densedml.sampling import SAMPLER_KINDS, anchor_layout, sample_triplets
from densedml.training import build_dataset, evaluate_checkpoint, train

from conftest import pack_floats, unpack_floats

# 4 classes of 6 points in 5 dimensions, split 2/2: a 3-step run takes a few ms
SMALL = {
    "steps": 3, "eval_ks": [1],
    "data": {"classes": 4, "per_class": 6, "input_dim": 5},
    "encoder": {"hidden": [8], "embed_dim": 4},
    "batch": {"classes_per_batch": 2},
}

# any key may get a value of the wrong type; the wrong types have tests of
# their own, so two cover them here
WRONG = [None, "x"]
# by the type of the key's default value
EDGES = {
    bool: [True, False, "yes", 0],
    int: [-1, 0, 1, 2, 3, 9, 2.0],
    float: [-1.0, 0.0, 5e-324, 1e-8, 0.5, 0.999, 1.0, 2.0, 1e300, -1e300, 1.7e308],
    type(None): [0.5, -1.0],
    list: [[0], [1], [1, 2], [9, 9], [1.5]],
    str: [*SAMPLER_KINDS, *LOSS_KINDS, *ACTIVATIONS, *OPTIMIZER_RULES, ""],
}
CSV = "<csv>"  # stands for the `csv_dataset` file
# steps stay at most 3; data.path names an existing CSV or none, since a
# missing file is an OSError (the CLI's exit 3), not an EngineError
SPECIAL = {"seed": [-1, 0, 7, 2**40], "steps": [-1, 0, 1, 3], "data.path": [CSV, ""]}


def _leaf_keys():
    """Every dotted config key but `out_dir`, which names a directory the
    run writes."""
    keys = {}
    for name, value in config_to_dict(RunConfig()).items():
        for sub, default in (value.items() if isinstance(value, dict) else [(None, value)]):
            keys[f"{name}.{sub}" if sub else name] = default
    return {k: v for k, v in keys.items() if k != "out_dir"}


KEYS = _leaf_keys()


def _values(key):
    edges = SPECIAL.get(key) or EDGES[type(KEYS[key])]
    return st.sampled_from(edges + ([] if key in ("steps", "data.path") else WRONG))


@pytest.fixture(scope="module")
def csv_dataset(tmp_path_factory):
    """6 classes of 5 points in 3 dimensions, split 3/3: neither SMALL's
    class count nor its width."""
    path = tmp_path_factory.mktemp("config_csv") / "data.csv"
    save_csv(generate_gaussian_clusters(6, 5, 3, 1.0, 0.6, SeededRng(3)), path)
    return str(path)


config_items = st.lists(st.sampled_from(sorted(KEYS)).flatmap(
    lambda key: st.tuples(st.just(key), _values(key))), max_size=6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on 1e300 inputs is expected
@settings(max_examples=300, deadline=None, derandomize=True)
@given(config_items)
def test_config_document_through_train(csv_dataset, items):
    doc = copy.deepcopy(SMALL)
    for key, value in items:
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = (
            csv_dataset if value == CSV else value)
    try:
        train(config_from_dict(doc))
    except EngineError:
        pass


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A checkpoint's JSON document, with both Adam slots, and the dataset it
    evaluates on."""
    cfg = config_from_dict(SMALL)
    dataset = build_dataset(cfg, SeededRng(cfg.seed).derive("data"))
    params = init_params([5, 8, 4], "relu", SeededRng(1))
    state = OptimizerState("adam", 1e-3)
    optimizer_step(params, np.ones_like(params.theta), state)
    path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.json"
    save_checkpoint(path, params, state, seed=3)
    return json.loads(path.read_text()), dataset, path


PATHS = [("version",), ("layer_sizes",), ("layer_sizes", 0), ("layer_sizes", 2),
         ("activation",), ("params",), ("seed",), ("optimizer",), ("optimizer", "slots"),
         ("optimizer", "slots", "m"), ("optimizer", "slots", "v")] + [
            ("optimizer", name) for name in ("rule", "lr", "momentum", "beta1", "beta2", "eps",
                                             "step_count")]
VALUES = [None, True, False, -1, 0, 1, 2, 2.5, 1e300, -1e300, float("nan"), float("inf"),
          "x", "", "relu", "sgd", [], [0], [5], [5, 8, 4], [5, 8, 3], [1.0] * 3,
          pack_floats([1.0] * 3), {}, {"m": []}]
# the packed vectors: set one float64 entry, or splice the base64 text
VECTORS = [("params",), ("optimizer", "slots", "m"), ("optimizer", "slots", "v")]
ENTRIES = [-0.0, 5e-324, 1e300, -1e300, 1.7e308, float("nan"), float("inf"), float("-inf")]
SPLICES = ["", "A", "AAAA", "A" * 36, "====", "@", " ", "\u00e9"]
mutations = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(PATHS), st.sampled_from(VALUES)),
    st.tuples(st.just("delete"), st.sampled_from(PATHS)),
    st.tuples(st.just("entry"), st.sampled_from(VECTORS), st.sampled_from([0, 3, -1]),
              st.sampled_from(ENTRIES)),
    st.tuples(st.just("splice"), st.sampled_from(VECTORS), st.integers(min_value=0, max_value=900),
              st.sampled_from(SPLICES)),
), min_size=1, max_size=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutations, st.none() | st.integers(min_value=0, max_value=400))
def test_checkpoint_mutation_through_evaluate(saved, edits, cut):
    """Up to three edits, then maybe cut the file short.  An edit sets or
    deletes an entry, sets one value of a packed vector, or replaces the four
    base64 characters at a position of one."""
    doc, dataset, path = saved
    doc = copy.deepcopy(doc)
    for op, where, *args in edits:
        try:
            parent = doc
            for step in where[:-1]:
                parent = parent[step]
            key = where[-1]
            if op == "set":
                parent[key] = copy.deepcopy(args[0])  # never edit a VALUES entry
            elif op == "delete":
                del parent[key]
            elif op == "entry":
                values = unpack_floats(parent[key])
                values[args[0]] = args[1]
                parent[key] = pack_floats(values)
            else:
                at, text = args
                parent[key] = parent[key][:at] + text + parent[key][at + 4:]
        except (KeyError, IndexError, TypeError, ValueError):
            pass  # an earlier edit removed or replaced the entry or its parent
    text = json.dumps(doc)
    path.write_text(text if cut is None else text[:cut])
    try:
        evaluate_checkpoint(path, dataset, [1])
    except EngineError:
        pass


# a file starts as a numeric table with integer labels, so some files parse
# and train; then up to two edits put in what a hand-edited or mis-exported
# file holds: an odd cell, or a row one cell short or long
NUMBERS = ["0", "1", "-1.5", "0.25", "1e-320", "-0", " 2 "]
LABELS = ["0", "1", "2", "3", "-1", " 2"]
ODD = ["nan", "1e400", "-inf", "\uff13", "", " ", "x", "1_0", "0x1", "1.5"]  # \uff13: full-width 3
EDITS = ODD + ["<short>", "<long>"]


@st.composite
def csv_files(draw):
    """(text, header, label_col): 0-6 data rows of 2-4 columns, maybe with a
    header line and a blank line."""
    arity = draw(st.integers(min_value=2, max_value=4))
    label_col = draw(st.sampled_from([-1, 0]))
    rows = draw(st.lists(st.lists(st.sampled_from(NUMBERS), min_size=arity, max_size=arity),
                         max_size=6))
    for row in rows:
        row[label_col] = draw(st.sampled_from(LABELS))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        row, edit = draw(st.sampled_from(rows)), draw(st.sampled_from(EDITS))
        if edit == "<short>":
            del row[max(1, len(row) - 1):]  # a row keeps at least one cell
        elif edit == "<long>":
            row.append("0")
        else:
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = edit
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), "")
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(f"c{i}" for i in range(arity)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), header, label_col


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_files())
def test_csv_file_through_train(csv_path, file):
    text, header, label_col = file
    csv_path.write_text(text, encoding="utf-8")
    doc = copy.deepcopy(SMALL)
    doc["data"] = {"path": str(csv_path), "header": header, "label_col": label_col}
    try:
        train(config_from_dict(doc))
    except EngineError:
        pass


# DAS state for the direct calls below: 3 classes, width 4, rings of 2
C, D = 3, 4


def rows_like(n, d):
    """n x d float rows, or those rows as a caller may get them wrong: of
    another rank, length or width, ragged, strings, NaN or inf."""
    good = np.linspace(-1.0, 1.0, n * d).reshape(n, d) + np.eye(n, d)
    return st.sampled_from([
        good, good.tolist(), good[:, :-1], np.ones((n, d + 1)), good[:-1], np.ones((n + 1, d)),
        good[None], good.ravel(), np.ones(d), np.zeros((n, 0)), np.full((n, d), np.nan),
        np.full((n, d), np.inf), good.astype(bool), good + 1j, [[1.0] * d, [1.0] * (d - 1)],
        [["a"] * d] * n, [], None, "x", 1.0,
    ])


def labels_like(n):
    """n labels in [0, C), or labels a caller may get wrong: of another rank
    or length, ragged, strings, floats, bools, NaN, out of range, or none."""
    good = [i % C for i in range(n)]
    return st.sampled_from([
        good, np.array(good, dtype=np.int64), np.array(good, dtype=">i4"), good[:-1], good + [0],
        [good], np.array(good)[:, None], [[0], [0, 1]], ["a"] * n, [0.5] * n, [True] * n,
        [float("nan")] * n, [-1] * n, [C] * n, [2**64] * n, np.array(good, dtype=object), [],
        None, 0, np.int64(C), "x",
    ])


def warm_bank():
    bank = TransformationBank(C, 2, D)
    bank.enqueue([0, 0, 1], np.arange(3.0 * D).reshape(3, D))
    return bank


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf rows are inputs here
@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(["recorder", "mask", "bank", "enqueue", "scales", "shifts", "combine",
                        "produce", "backward"]),
       st.integers(0, 4), st.sampled_from([3, 4, 5]), st.sampled_from([1, 2, D, 0, D + 1, 2.0,
                                                                       True, "x"]), st.data())
def test_das_functions_on_malformed_arrays(target, n, d, k, data):
    """Only EngineError escapes any public DAS function, whatever rows,
    labels, anchors, factors or gradients it is handed."""
    emb, labels = data.draw(rows_like(n, d)), data.draw(labels_like(n))
    rng = SeededRng(0)
    try:
        if target == "recorder":
            FrequencyRecorder(C, D).update(emb, labels, k)
        elif target == "mask":
            FrequencyRecorder(C, D).mask(k)
        elif target == "bank":
            warm_bank().update(emb, labels)
        elif target == "enqueue":
            warm_bank().enqueue(labels, emb)
        elif target == "scales":
            draw_scales(data.draw(rows_like(C, D)), labels, 0.3, rng)
        elif target == "shifts":
            draw_shifts(warm_bank(), labels, 0.3, rng)
        elif target == "combine":
            t = data.draw(st.integers(0, 2))
            anchors = data.draw(st.sampled_from([
                np.arange(n).repeat(t), [n] * t, [-1] * t, [0.5] * t, [[0]] * t, [[0], [0, 1]],
                ["a"] * t, None]))
            combine_factors(emb, labels, anchors, data.draw(rows_like(n * t, d)),
                            data.draw(rows_like(n * t, d)))
        elif target == "produce":
            cfg = DasConfig(T=data.draw(st.integers(0, 2)), K=k, Z=2,
                            rs=data.draw(st.sampled_from([0.0, 0.3])),
                            rb=data.draw(st.sampled_from([0.0, 0.3])))
            produce(emb, labels, FrequencyRecorder(C, D), warm_bank(), cfg, rng)
        else:
            batch = combine_factors(np.eye(3, D), [0, 1, 2], [0, 0, 2], np.ones((3, D)),
                                    np.zeros((3, D)))
            n_anchors = data.draw(st.sampled_from([3, 0, 2]))
            dim = data.draw(st.sampled_from([D, d]))
            produced_backward(batch, data.draw(rows_like(3, d)), n_anchors, dim)
    except EngineError:
        pass


# an encoder of 3 inputs, 4 hidden units and 2 outputs: 26 parameters
SIZES = [3, 4, 2]


def vectors_like(n):
    """n floats, or a vector as a caller may get it wrong: of another length
    or rank, ragged, strings, complex, None, NaN, or of another dtype."""
    good = np.linspace(-1.0, 1.0, n)
    return st.sampled_from([
        good, good.tolist(), good.astype(">f8"), good.astype(np.float32), good[:-1],
        np.ones(n + 1), good[None], good[:, None], [[1.0], [1.0, 2.0]], ["a"] * n,
        good + 1j, [np.complex128(1j)] + [0.0] * (n - 1), [None] * n, np.full(n, np.nan), [],
        None, "x", 1.0,
    ])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN inputs are inputs here
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")  # a dropped imaginary part
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["params", "backward", "step"]), st.sampled_from(OPTIMIZER_RULES),
       st.sampled_from([0.0, 0.9]), st.booleans(), st.data())
def test_encoder_on_malformed_arrays(target, rule, momentum, warm, data):
    """Only EngineError escapes the encoder's parameters, backward pass and
    optimizer step, whatever vector or gradient they are handed; a rejected
    optimizer step changes neither the parameters nor the optimizer state."""
    params = init_params(SIZES, "tanh", SeededRng(0))
    n = params.theta.size
    if target == "step":
        state = OptimizerState(rule, 0.1, momentum)
        if warm:
            optimizer_step(params, np.ones(n), state)
        theta, slots, count = params.theta.copy(), copy.deepcopy(state.slots), state.step_count
        try:
            optimizer_step(params, data.draw(vectors_like(n) | rows_like(1, n)), state)
        except EngineError:
            assert params.theta.tobytes() == theta.tobytes() and state.step_count == count
            assert {k: v.tobytes() for k, v in state.slots.items()} == {
                k: v.tobytes() for k, v in slots.items()}
        return
    try:
        if target == "params":
            EncoderParams(SIZES, "tanh", data.draw(vectors_like(n)))
        else:
            _, tape = encode(params, np.linspace(-1.0, 1.0, 15).reshape(5, 3))
            backward(params, tape, data.draw(rows_like(5, 2)))
    except EngineError:
        pass


# entries of hand-built rows: numbers of each kind, NaN and inf, a float64
# overflow, an int too large for float64, strings, bytes, None, complex
# numbers and a nested row
ENTRIES = [0.0, -1.5, 3, True, np.float32(0.5), np.int64(2), float("nan"), float("inf"),
           -1e308, 1e308, 10**400, "1.5", "a", b"1", None, 1j, np.complex128(1j), [1.0]]


@st.composite
def kernel_rows(draw):
    """Rows for the distance kernel as a caller may hand them over: arrays
    of rank 0 to 3 (numpy scalars and empty arrays among them) of real,
    integer, bool, complex, string and time dtypes, or nested lists, ragged
    or not, of ENTRIES."""
    if draw(st.booleans()):
        dtype = draw(st.sampled_from(["f8", ">f8", "f4", "i8", "u1", "?", "c16", "c8", "U3",
                                      "m8[s]"]))
        return draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                       max_side=4)))
    row = st.lists(st.sampled_from(ENTRIES), max_size=4)
    return draw(st.lists(row, max_size=4) | row | st.sampled_from(ENTRIES))


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")  # a dropped imaginary part
@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_rows())
def test_distance_kernel_on_malformed_rows(rows):
    """Only EngineError escapes the distance kernel; what it returns is
    square and symmetric bit for bit, with a zero diagonal."""
    try:
        got = pairwise_distances(rows)
    except EngineError:
        return
    n = got.shape[0]
    assert got.shape == (n, n) and got.tobytes() == got.T.copy().tobytes()
    assert not np.diag(got).any()


def indices_like(n, t):
    """t indices into n rows, or indices a caller may get wrong: out of
    range, negative, floats, bools, of another rank or length, ragged,
    strings, too large for int64, a scalar, or none."""
    good = np.arange(t) % max(n, 1)
    return st.sampled_from([
        good, good.tolist(), good.astype(np.uint8), good[:-1], np.arange(t + 1) % max(n, 1),
        [n] * t, [-1] * t, [0.5] * t, [True] * t, good[:, None], [[0], [0, 1]], ["a"] * t,
        [2**64] * t, np.int64(0), 0, [], None,
    ])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf rows are inputs here
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")  # a dropped imaginary part
@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(LOSS_KINDS), st.integers(0, 4), st.integers(0, 3), st.data())
def test_losses_on_malformed_arrays(kind, n, t, data):
    """Only EngineError escapes a loss, whatever embeddings, pairs or
    triplets, flags, distance matrix or labels it is handed."""
    emb = data.draw(rows_like(n, D))
    first, second, third = (data.draw(indices_like(n, t)) for _ in range(3))
    dist = data.draw(rows_like(n, n))
    try:
        if kind == "ms":
            multi_similarity_loss(emb, data.draw(labels_like(n)), LossSpec(kind="ms"))
        elif kind == "triplet":
            triplet_loss(emb, TripletSet(first, second, third), 0.2, dist)
        else:
            flags = data.draw(st.sampled_from([
                np.arange(t) % 2 == 0, [True] * t, [0.5] * t, ["a"] * t, [[True]] * t,
                [[True], [True, False]], True, [], None]))
            pairs = PairSet(first, second, flags)
            if kind == "contrastive":
                contrastive_loss(emb, pairs, 0.5, dist)
            else:
                margin_loss(emb, pairs, 0.2, 1.2, dist)
    except EngineError:
        pass


# rows at the row bound and labels numpy cannot order, beside rows_like's
# and labels_like's
BIG_ROWS = [np.full((4, D), 1e100), [[1e308] * D, [-1e308] * D]]
ODD_LABELS = [[None] * 4, [1, None, 1, None]]
KS = [[1], [1, 2], [0], [4], [1.5], [True], [np.int64(1)], [[1]], [], "x", None, 1]
COUNTS = [1, 2, 4, 5, 0, -1, 1.5, True, np.int64(2), "x", None]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf distances are inputs here
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")  # a dropped imaginary part
@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(["layout", "sample", "recall", "kmeans", "evaluate", "nmi", "f1"]),
       st.sampled_from(SAMPLER_KINDS), st.data())
def test_samplers_and_metrics_on_malformed_arrays(target, kind, data):
    """Only EngineError escapes the layout, the samplers and the metrics,
    whatever rows, labels, anchors, distances, ks or counts they are
    handed."""
    n = 4
    emb = data.draw(rows_like(n, D) | st.sampled_from(BIG_ROWS))
    labels = data.draw(labels_like(n) | st.sampled_from(ODD_LABELS))
    try:
        if target == "layout":
            anchor_layout(labels, data.draw(st.none() | indices_like(n, 3)))
        elif target == "sample":
            sample_triplets(kind, data.draw(rows_like(n, n)), anchor_layout([0, 0, 1, 1]),
                            SeededRng(0), embed_dim=D, semihard_margin=0.2, clip=0.5)
        elif target == "recall":
            recall_at_k(emb, labels, data.draw(st.sampled_from(KS)))
        elif target == "kmeans":
            kmeans(emb, data.draw(st.sampled_from(COUNTS)), SeededRng(0),
                   data.draw(st.sampled_from(COUNTS)))
        elif target == "evaluate":
            evaluate_embeddings(emb, labels, data.draw(st.sampled_from(KS)), SeededRng(0))
        else:
            (nmi if target == "nmi" else f1_score)(data.draw(labels_like(n)), labels)
    except EngineError:
        pass

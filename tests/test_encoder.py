import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from densedml.core import SeededRng, pairwise_distances
from densedml.encoder import (
    CHECKPOINT_VERSION,
    EncoderParams,
    OptimizerState,
    backward,
    encode,
    init_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from densedml.errors import (
    ConfigError,
    CorruptCheckpointError,
    ShapeMismatchError,
    ZeroNormError,
)

from conftest import as_version_two, finite_difference, max_rel_error, pack_floats, unpack_floats
from oracles import build_pairs, identity_params, with_theta


def loss_through_encoder(params, x, upstream):
    """Scalar probe: sum(upstream * embeddings)."""
    emb, _ = encode(params, x)
    return float(np.sum(upstream * emb))


class TestForward:
    def test_identity_layer_reduces_to_normalize(self):
        emb, _ = encode(identity_params(2), [[3.0, 4.0]])
        np.testing.assert_allclose(emb[0], [0.6, 0.8], atol=1e-15)

    def test_shapes_and_norms(self, rng):
        params = init_params([8, 16, 8], "relu", rng)
        emb, tape = encode(params, rng.normal(size=(4, 8)))
        assert emb.shape == (4, 8)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), np.ones(4), atol=1e-12)
        assert len(tape.pre_acts) == 2

    def test_random_params_unit_norm(self, rng):
        params = init_params([5, 7, 3], "tanh", rng)
        emb, _ = encode(params, rng.normal(size=(10, 5)))
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), np.ones(10), atol=1e-12)

    def test_deterministic(self, rng):
        params = init_params([4, 4], "relu", rng)
        x = rng.normal(size=(3, 4))
        a, _ = encode(params, x)
        b, _ = encode(params, x)
        np.testing.assert_array_equal(a, b)

    def test_zero_norm_output_raises(self):
        params = EncoderParams([2, 2], "identity", np.zeros(6))
        with pytest.raises(ZeroNormError):
            encode(params, [[1.0, 2.0]])

    def test_empty_batch(self, rng):
        with pytest.raises(ShapeMismatchError, match="empty batch"):
            encode(init_params([4, 4], "relu", rng), np.zeros((0, 4)))

    def test_wrong_input_dim(self, rng):
        params = init_params([4, 4], "relu", rng)
        with pytest.raises(ShapeMismatchError):
            encode(params, [[1.0, 2.0]])


class TestBackward:
    def test_zero_upstream_zero_grads(self, rng):
        params = init_params([3, 5, 2], "relu", rng)
        emb, tape = encode(params, rng.normal(size=(4, 3)))
        assert np.all(backward(params, tape, np.zeros_like(emb)) == 0)

    def test_two_layer_finite_difference(self, rng):
        params = init_params([3, 4, 2], "tanh", rng)
        x = rng.normal(size=(1, 3))
        upstream = rng.normal(size=(1, 2))
        emb, tape = encode(params, x)
        analytic = backward(params, tape, upstream)
        numeric = finite_difference(
            lambda th: loss_through_encoder(with_theta(params, th), x, upstream),
            params.theta.copy(),
        )
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_identity_hidden_layer_finite_difference(self, rng):
        # a linear hidden layer: the identity's forward and its unit derivative
        params = init_params([3, 4, 2], "identity", rng)
        x = rng.normal(size=(3, 3))
        upstream = rng.normal(size=(3, 2))
        _, tape = encode(params, x)
        np.testing.assert_array_equal(tape.inputs[1], tape.pre_acts[0])
        analytic = backward(params, tape, upstream)
        numeric = finite_difference(
            lambda th: loss_through_encoder(with_theta(params, th), x, upstream),
            params.theta.copy(),
        )
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_parallel_upstream_vanishes(self, rng):
        params = init_params([3, 3], "identity", rng)
        x = rng.normal(size=(1, 3))
        emb, tape = encode(params, x)
        assert np.max(np.abs(backward(params, tape, 2.5 * emb))) < 1e-10

    def test_shape_mismatch(self, rng):
        params = init_params([3, 2], "relu", rng)
        _, tape = encode(params, rng.normal(size=(4, 3)))
        with pytest.raises(ShapeMismatchError):
            backward(params, tape, np.zeros((3, 2)))

    @pytest.mark.parametrize("loss_kind", ["contrastive", "triplet", "margin", "ms"])
    def test_end_to_end_loss_gradient(self, loss_kind):
        from densedml.losses import (
            LossSpec,
            TripletSet,
            contrastive_loss,
            margin_loss,
            multi_similarity_loss,
            triplet_loss,
        )
        r = SeededRng(606)
        params = init_params([3, 5, 2], "tanh", r)
        x = r.normal(size=(4, 3))
        labels = np.array([0, 0, 1, 1])
        pairs = build_pairs(labels)
        trip = TripletSet(np.array([0, 2]), np.array([1, 3]), np.array([3, 1]))

        def loss_of(emb):
            if loss_kind == "contrastive":
                return contrastive_loss(emb, pairs, 0.5, pairwise_distances(emb))
            if loss_kind == "triplet":
                return triplet_loss(emb, trip, 0.2, pairwise_distances(emb))
            if loss_kind == "margin":
                return margin_loss(emb, pairs, 0.2, 1.2, pairwise_distances(emb))
            return multi_similarity_loss(emb, labels, LossSpec(kind="ms"))

        emb, tape = encode(params, x)
        out = loss_of(emb)
        analytic = backward(params, tape, out.grad)

        def probe(theta):
            e, _ = encode(with_theta(params, theta), x)
            return loss_of(e).value

        numeric = finite_difference(probe, params.theta.copy())
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_hundred_random_instances(self):
        # module invariant: finite-difference agreement on 100 random triples
        failures = 0
        for trial in range(100):
            r = SeededRng(5000 + trial)
            params = init_params([3, 4, 2], "tanh", r)
            x = r.normal(size=(2, 3))
            upstream = r.normal(size=(2, 2))
            _, tape = encode(params, x)
            analytic = backward(params, tape, upstream)
            numeric = finite_difference(
                lambda th: loss_through_encoder(with_theta(params, th), x, upstream),
                params.theta.copy(),
            )
            if max_rel_error(analytic, numeric) >= 1e-4:
                failures += 1
        assert failures == 0


class TestParams:
    def test_theta_holds_weights_then_biases(self, rng):
        params = init_params([3, 4, 2], "relu", rng)
        w, b = params.weights, params.biases
        want = np.concatenate([w[0].ravel(), w[1].ravel(), b[0], b[1]])
        assert params.theta.tobytes() == want.tobytes()
        params.weights[1][0, 0] = 7.0
        params.biases[0][...] = 1.0
        assert params.theta[12] == 7.0 and np.all(params.theta[20:24] == 1.0)

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["deepcopy", "pickle"],
    )
    def test_stepping_a_copy_leaves_the_original(self, rng, clone):
        params = init_params([3, 4, 2], "relu", rng)
        original = params.theta.copy()
        twin = clone(params)
        before = twin.theta.copy()
        optimizer_step(twin, np.ones_like(twin.theta), OptimizerState(rule="sgd", lr=0.1))
        for l in range(2):
            assert np.all(twin.weights[l] != params.weights[l])
            assert np.all(twin.biases[l] != params.biases[l])
        np.testing.assert_array_equal(twin.theta.copy(), before - 0.1)
        assert params.theta.copy().tobytes() == original.tobytes()


    def test_init_params_draws_each_layer_in_row_major_order(self):
        params = init_params([3, 4, 2], "tanh", SeededRng(11))
        r = SeededRng(11)
        for w, (d_in, d_out) in zip(params.weights, [(3, 4), (4, 2)]):
            bound = np.sqrt(6.0 / (d_in + d_out))
            assert w.tobytes() == r.uniform(-bound, bound, size=(d_in, d_out)).tobytes()
        assert not params.theta[20:].any() and params.layer_sizes == (3, 4, 2)

    @pytest.mark.parametrize(
        "sizes, activation, theta, message",
        [([3], "relu", np.zeros(3), "layer_sizes must list"),
         ([3, 0], "relu", np.zeros(0), "layer_sizes must list"),
         ([3, 2.0], "relu", np.zeros(8), "layer_sizes must list"),
         ((3, True), "relu", np.zeros(6), "layer_sizes must list"),
         ("32", "relu", np.zeros(8), "layer_sizes must list"),
         ([3, 2], "gelu", np.zeros(8), "unknown activation"),
         ([3, 2], "relu", np.zeros(7), r"theta \(7,\) != \(8,\)"),
         ([3, 2], "relu", np.zeros((2, 4)), r"theta \(2, 4\) != \(8,\)"),
         ([3, 2], "relu", [0.0] * 7 + [np.inf], "non-finite"),
         ([3, 2], "relu", [np.nan] + [0.0] * 7, "non-finite"),
         ([3, 2], "relu", [None] + [0.0] * 7, "non-finite")],
    )
    def test_constructor_rejects(self, sizes, activation, theta, message):
        with pytest.raises(ShapeMismatchError, match=message):
            EncoderParams(sizes, activation, theta)

    def test_constructor_copies_theta(self):
        theta = np.arange(8.0)
        params = EncoderParams([3, 2], "identity", theta)
        theta[0] = 5.0
        assert params.theta[0] == 0.0 and params.weights[0][0, 0] == 0.0


class TestOptimizer:
    def test_sgd_arithmetic(self):
        params = EncoderParams([1, 1], "identity", [1.0, 0.0])
        state = OptimizerState(rule="sgd", lr=0.1)
        optimizer_step(params, np.array([2.0, 0.0]), state)
        assert params.weights[0][0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_gradient_keeps_params(self, rng):
        params = init_params([3, 2], "relu", rng)
        before = params.theta.copy()
        state = OptimizerState(rule="sgd", lr=0.1)
        optimizer_step(params, np.zeros(8), state)
        np.testing.assert_array_equal(params.theta.copy(), before)
        assert state.step_count == 1

    def test_adam_first_step_magnitude(self):
        # scalar oracle: with g=1 everywhere the bias-corrected first step is
        # lr * 1 / (1 + eps)
        lr, eps = 1e-3, 1e-8
        params = EncoderParams([2, 2], "identity", np.full(6, 0.5))
        state = OptimizerState(rule="adam", lr=lr, eps=eps)
        optimizer_step(params, np.ones(6), state)
        expected = 0.5 - lr * 1.0 / (1.0 + eps)
        for arr in [params.weights[0], params.biases[0]]:
            np.testing.assert_allclose(arr, np.full_like(arr, expected), atol=1e-9)

    def test_adam_matches_scalar_oracle_over_steps(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        params = EncoderParams([1, 1], "identity", [1.0, 0.0])
        state = OptimizerState(rule="adam", lr=lr)
        grads = [0.5, -1.2, 2.0, 0.1]
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            optimizer_step(params, np.array([g, 0.0]), state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert params.weights[0][0, 0] == pytest.approx(theta, abs=1e-9)

    def test_sgd_momentum(self):
        params = EncoderParams([1, 1], "identity", np.zeros(2))
        state = OptimizerState(rule="sgd", lr=0.1, momentum=0.9)
        buf, theta = 0.0, 0.0
        for g in [1.0, 1.0, -0.5]:
            optimizer_step(params, np.array([g, 0.0]), state)
            buf = 0.9 * buf + g
            theta -= 0.1 * buf
            assert params.weights[0][0, 0] == pytest.approx(theta, abs=1e-12)

    def test_shape_mismatch(self, rng):
        params = init_params([3, 2], "relu", rng)
        state = OptimizerState(rule="sgd", lr=0.1)
        with pytest.raises(ShapeMismatchError):
            optimizer_step(params, np.zeros(7), state)

    @pytest.mark.parametrize("rule,momentum", [("adam", 0.0), ("sgd", 0.9), ("sgd", 0.0)])
    def test_rejected_update_changes_nothing(self, rng, rule, momentum):
        params = init_params([3, 4, 2], "relu", rng)
        state = OptimizerState(rule=rule, lr=0.1, momentum=momentum)
        n = params.theta.size
        for warm in (False, True):
            if warm:
                optimizer_step(params, rng.normal(size=n), state)
            theta, slots, count = params.theta.copy(), copy.deepcopy(state.slots), state.step_count
            for grad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n))):
                with pytest.raises(ShapeMismatchError):
                    optimizer_step(params, grad, state)
            state.rule = "adagrad"
            with pytest.raises(ConfigError, match="adagrad"):
                optimizer_step(params, np.zeros(n), state)
            state.rule = rule
            assert params.theta.tobytes() == theta.tobytes()
            assert state.step_count == count
            assert state.slots.keys() == slots.keys()
            for name, slot in slots.items():
                assert state.slots[name].tobytes() == slot.tobytes()


    def test_drifted_slot_rejected_before_update(self, rng):
        params = init_params([3, 2], "relu", rng)
        theta = params.theta.copy()
        state = OptimizerState(rule="adam", slots={"m": np.zeros(3)})
        with pytest.raises(ShapeMismatchError):
            optimizer_step(params, np.ones_like(theta), state)
        assert params.theta.tobytes() == theta.tobytes()
        assert state.step_count == 0 and list(state.slots) == ["m"]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng):
        params = init_params([4, 6, 3], "relu", rng)
        state = OptimizerState(rule="adam", lr=0.01)
        optimizer_step(params, rng.normal(size=params.theta.shape), state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, state, seed=42)
        loaded, loaded_state, seed = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta.copy(), params.theta.copy())
        assert loaded.activation == "relu"
        assert loaded_state.step_count == 1
        assert seed == 42
        for k in state.slots:
            np.testing.assert_array_equal(loaded_state.slots[k], state.slots[k])

    def test_optimizer_record_round_trips(self, tmp_path, rng):
        params = init_params([4, 6, 3], "relu", rng)
        for rule in ("adam", "sgd"):
            state = OptimizerState(
                rule=rule, lr=0.05, momentum=0.7, beta1=0.8, beta2=0.99, eps=1e-6
            )
            for _ in range(3):
                optimizer_step(params, rng.normal(size=params.theta.shape), state)
            path = tmp_path / f"{rule}.json"
            save_checkpoint(path, params, state, seed=3)
            _, loaded, _ = load_checkpoint(path)
            for f in dataclasses.fields(OptimizerState):
                if f.name != "slots":
                    assert getattr(loaded, f.name) == getattr(state, f.name), f.name
            assert loaded.slots.keys() == state.slots.keys()
            assert set(state.slots) == ({"m", "v"} if rule == "adam" else {"m"})
            for name, slot in state.slots.items():
                assert loaded.slots[name].tobytes() == slot.tobytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda opt: opt.update(rule="adagrad"),
            lambda opt: opt["slots"].update(w0=opt["slots"].pop("m")),
            lambda opt: opt["slots"].update(v=pack_floats(unpack_floats(opt["slots"]["v"])[:-1])),
        ],
        ids=["unknown_rule", "unknown_slot", "short_slot"],
    )
    def test_bad_optimizer_record(self, tmp_path, rng, edit):
        params = init_params([2, 3], "relu", rng)
        state = OptimizerState(rule="adam")
        optimizer_step(params, rng.normal(size=params.theta.shape), state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, state, seed=0)
        doc = json.loads(path.read_text())
        edit(doc["optimizer"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [("lr", "0.1"), ("lr", True), ("momentum", None), ("beta1", float("nan")),
         ("beta2", float("inf")), ("eps", [1e-8]), ("step_count", 2.5),
         ("step_count", -1), ("step_count", True), ("step_count", "3")],
    )
    def test_bad_optimizer_scalar(self, tmp_path, rng, field, value):
        params = init_params([2, 3], "relu", rng)
        state = OptimizerState(rule="sgd", momentum=0.5)
        optimizer_step(params, rng.normal(size=params.theta.shape), state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, state, seed=0)
        doc = json.loads(path.read_text())
        doc["optimizer"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match=f"optimizer {field} must be"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [("layer_sizes", [], "layer_sizes must list"), ("layer_sizes", [4], "layer_sizes must list"),
         ("seed", -1, "seed must be"), ("seed", 2.5, "seed must be"), ("seed", True, "seed must be")],
        ids=["no_layers", "one_layer", "negative_seed", "float_seed", "bool_seed"],
    )
    def test_bad_layer_sizes_or_seed(self, tmp_path, rng, field, value, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params([2, 3], "relu", rng), OptimizerState(), seed=0)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("sizes", [[2, 0], [2, -3], [2, 3.0], [2, True], "23"])
    def test_layer_sizes_must_be_positive_integers(self, tmp_path, rng, sizes):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params([2, 3], "relu", rng), OptimizerState(), seed=0)
        doc = json.loads(path.read_text())
        doc["layer_sizes"] = sizes
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match="layer_sizes must list"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_params_rejected_naming_the_file(self, tmp_path, rng, text):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params([2, 3], "relu", rng), OptimizerState(), seed=0)
        doc = json.loads(path.read_text())
        theta = unpack_floats(doc["params"])
        theta[4] = float(text)
        doc["params"] = pack_floats(theta)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: theta holds non-finite values"

    @pytest.mark.parametrize("slot", ["m", "v"])
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_optimizer_slot_rejected_naming_the_file(self, tmp_path, rng, slot, text):
        params = init_params([2, 3], "relu", rng)
        state = OptimizerState(rule="adam")
        optimizer_step(params, rng.normal(size=params.theta.shape), state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, state, seed=0)
        doc = json.loads(path.read_text())
        values = unpack_floats(doc["optimizer"]["slots"][slot])
        values[2] = float(text)
        doc["optimizer"]["slots"][slot] = pack_floats(values)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: optimizer slot {slot!r} holds non-finite values"

    @pytest.mark.parametrize(
        "field, name, shape_message",
        [(("params",), "params", "theta (8,) != (9,) for layer sizes [2, 3]"),
         (("optimizer", "slots", "m"), "optimizer slot 'm'",
          "optimizer slot 'm' is (8,), parameters are (9,)"),
         (("optimizer", "slots", "v"), "optimizer slot 'v'",
          "optimizer slot 'v' is (8,), parameters are (9,)")],
        ids=["params", "m", "v"],
    )
    @pytest.mark.parametrize(
        "encoding, message",
        [(lambda text: unpack_floats(text).tolist(), "{name} must be a base64 string, got list"),
         (lambda text: "@" + text[1:], "{name} is not base64: "),
         (lambda text: "\u00e9" + text[1:], "{name} is not base64: "),
         (lambda text: text[:-1], "{name} is not base64: "),
         (lambda text: text[:-4], "{name} holds 69 bytes, not a whole number of float64 values"),
         (lambda text: pack_floats(unpack_floats(text)[:-1]), "{shape}")],
        ids=["v2_list", "not_base64", "non_ascii", "bad_padding", "partial_value", "wrong_count"],
    )
    def test_bad_encoding_rejected_naming_the_file(self, tmp_path, rng, field, name,
                                                   shape_message, encoding, message):
        params = init_params([2, 3], "relu", rng)  # 9 parameters: 72 bytes, 96 base64 characters
        state = OptimizerState(rule="adam")
        optimizer_step(params, rng.normal(size=params.theta.shape), state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, state, seed=0)
        doc = json.loads(path.read_text())
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = encoding(parent[field[-1]])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: " + message.format(name=name,
                                                                     shape=shape_message))

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda doc: doc.update(version=1), "unsupported checkpoint version 1"),
         (lambda doc: doc.update(seed=-1), "seed must be an integer >= 0, got -1"),
         (lambda doc: doc["optimizer"].update(rule="adagrad"), "unknown optimizer rule 'adagrad'"),
         (lambda doc: doc["optimizer"].update(lr="0.1"),
          "optimizer lr must be a finite number, got '0.1'"),
         (lambda doc: doc["optimizer"]["slots"].update(w=pack_floats(np.zeros(9))),
          "unknown optimizer slot 'w'"),
         (lambda doc: doc.update(as_version_two(doc)), "unsupported checkpoint version 2")],
        ids=["version", "seed", "rule", "scalar", "slot_name", "version_two"],
    )
    def test_every_rejection_names_the_file(self, tmp_path, rng, edit, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params([2, 3], "relu", rng), OptimizerState(), seed=0)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    def test_integer_optimizer_scalars_load(self, tmp_path, rng):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params([2, 2], "relu", rng), OptimizerState(lr=1), seed=0)
        _, state, _ = load_checkpoint(path)
        assert state.lr == 1 and state.step_count == 0

    def test_version_one_is_rejected(self, tmp_path, rng):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params([2, 2], "relu", rng), OptimizerState(), seed=0)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_document_layout(self, tmp_path, rng):
        # the scalars are JSON numbers and each vector is packed; no top-level step
        params = init_params([2, 3], "relu", rng)
        state = OptimizerState(rule="adam")
        optimizer_step(params, rng.normal(size=params.theta.shape), state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, state, seed=4)
        doc = json.loads(path.read_text())
        assert list(doc) == ["version", "layer_sizes", "activation", "params", "optimizer", "seed"]
        assert doc["version"] == CHECKPOINT_VERSION == 3
        assert doc["params"] == pack_floats(params.theta)
        assert doc["optimizer"]["slots"] == {k: pack_floats(v) for k, v in state.slots.items()}
        assert doc["optimizer"]["step_count"] == 1 and doc["seed"] == 4

    def test_extreme_values_round_trip_bit_exactly(self, tmp_path, rng):
        tiny, huge = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
        values = [-0.0, 0.0, tiny, -tiny, 2.2e-308, -1e-310, huge, -huge, 1.0]
        params = EncoderParams([2, 3], "relu", values)
        state = OptimizerState(rule="adam", step_count=5,
                               slots={"m": -params.theta, "v": params.theta[::-1].copy()})
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, state, seed=1)
        loaded, loaded_state, _ = load_checkpoint(path)
        assert loaded.theta.tobytes() == params.theta.tobytes()
        assert np.signbit(loaded.theta[0]) and not np.signbit(loaded.theta[1])
        for name, slot in state.slots.items():
            assert loaded_state.slots[name].tobytes() == slot.tobytes()
        for vec in (loaded.theta, *loaded_state.slots.values()):
            assert vec.dtype == np.float64 and vec.dtype.isnative and vec.flags.writeable

    def test_save_load_save_is_byte_identical(self, tmp_path, rng):
        params = init_params([4, 6, 3], "tanh", rng)
        state = OptimizerState(rule="adam", lr=0.01)
        for _ in range(3):
            optimizer_step(params, rng.normal(size=params.theta.shape), state)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_checkpoint(first, params, state, seed=11)
        loaded, loaded_state, seed = load_checkpoint(first)
        save_checkpoint(second, loaded, loaded_state, seed)
        assert first.read_bytes() == second.read_bytes()

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path, rng):
        params = init_params([2, 2], "relu", rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, OptimizerState(), seed=0)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, rng, monkeypatch):
        params = init_params([4, 3], "relu", rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, OptimizerState(), seed=7)
        before, saved = path.read_bytes(), params.theta.copy()

        def torn_dump(doc, fh):
            fh.write('{"version": ')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", torn_dump)
        params.weights[0] += 1.0
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, params, OptimizerState(), seed=8)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
        loaded, _, seed = load_checkpoint(path)
        assert seed == 7
        np.testing.assert_array_equal(loaded.theta.copy(), saved)

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from densedml.core import SeededRng
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

from conftest import finite_difference, max_rel_error
from oracles import build_pairs, identity_params


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
        params = EncoderParams([np.zeros((2, 2))], [np.zeros(2)], "identity")
        with pytest.raises(ZeroNormError):
            encode(params, [[1.0, 2.0]])

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
            lambda th: loss_through_encoder(params.with_flat(th), x, upstream),
            params.flat(),
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
                return contrastive_loss(emb, pairs, 0.5)
            if loss_kind == "triplet":
                return triplet_loss(emb, trip, 0.2)
            if loss_kind == "margin":
                return margin_loss(emb, pairs, 0.2, 1.2)
            return multi_similarity_loss(emb, labels, LossSpec(kind="ms"))

        emb, tape = encode(params, x)
        out = loss_of(emb)
        analytic = backward(params, tape, out.grad)

        def probe(theta):
            e, _ = encode(params.with_flat(theta), x)
            return loss_of(e).value

        numeric = finite_difference(probe, params.flat())
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
                lambda th: loss_through_encoder(params.with_flat(th), x, upstream),
                params.flat(),
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
        original = params.flat()
        twin = clone(params)
        before = twin.flat()
        optimizer_step(twin, np.ones_like(twin.theta), OptimizerState(rule="sgd", lr=0.1))
        for l in range(2):
            assert np.all(twin.weights[l] != params.weights[l])
            assert np.all(twin.biases[l] != params.biases[l])
        np.testing.assert_array_equal(twin.flat(), before - 0.1)
        assert params.flat().tobytes() == original.tobytes()


class TestOptimizer:
    def test_sgd_arithmetic(self):
        params = EncoderParams([np.array([[1.0]])], [np.zeros(1)], "identity")
        state = OptimizerState(rule="sgd", lr=0.1)
        optimizer_step(params, np.array([2.0, 0.0]), state)
        assert params.weights[0][0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_gradient_keeps_params(self, rng):
        params = init_params([3, 2], "relu", rng)
        before = params.flat()
        state = OptimizerState(rule="sgd", lr=0.1)
        optimizer_step(params, np.zeros(8), state)
        np.testing.assert_array_equal(params.flat(), before)
        assert state.step_count == 1

    def test_adam_first_step_magnitude(self):
        # scalar oracle: with g=1 everywhere the bias-corrected first step is
        # lr * 1 / (1 + eps)
        lr, eps = 1e-3, 1e-8
        params = EncoderParams([np.full((2, 2), 0.5)], [np.full(2, 0.5)], "identity")
        state = OptimizerState(rule="adam", lr=lr, eps=eps)
        optimizer_step(params, np.ones(6), state)
        expected = 0.5 - lr * 1.0 / (1.0 + eps)
        for arr in [params.weights[0], params.biases[0]]:
            np.testing.assert_allclose(arr, np.full_like(arr, expected), atol=1e-9)

    def test_adam_matches_scalar_oracle_over_steps(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        params = EncoderParams([np.array([[1.0]])], [np.zeros(1)], "identity")
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
        params = EncoderParams([np.array([[0.0]])], [np.zeros(1)], "identity")
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
            theta, slots, count = params.flat(), copy.deepcopy(state.slots), state.step_count
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
        theta = params.flat()
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
        np.testing.assert_array_equal(loaded.flat(), params.flat())
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
            lambda opt: opt["slots"]["v"].pop(),
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
        before, saved = path.read_bytes(), params.flat()

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
        np.testing.assert_array_equal(loaded.flat(), saved)

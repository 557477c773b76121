"""Tests for the hand-rolled LSTM: BPTT gradients, training, adapters."""

from __future__ import annotations

import numpy as np
import pytest

from predcomp.lstm import (
    BETA1,
    BETA2,
    EPS,
    LstmPredictor,
    TrainConfig,
    _sigmoid,
    clip_gradients,
    init_lstm,
    loss_and_grads,
    lstm_forward,
    mse_loss,
    train_lstm,
    training_windows,
)
from predcomp.io import read_lstm, write_lstm
from predcomp.predictors import PredictorError, fit_predictor


def test_init_shapes_and_forget_bias():
    net = init_lstm(10, 3, hidden=5, seed=0)
    assert net.W.shape == (20, 6)
    assert net.b.shape == (20,)
    assert net.Wy.shape == (3, 5)
    assert net.by.shape == (3,)
    # forget-gate biases start at 1, everything else inside the init range
    assert np.all(net.b[5:10] == 1.0)
    rest = np.concatenate([net.b[:5], net.b[10:], net.W.ravel(), net.Wy.ravel(), net.by])
    assert np.all(np.abs(rest) <= 0.08)


def test_init_seeded_reproducibility():
    a = init_lstm(6, 2, hidden=4, seed=11)
    b = init_lstm(6, 2, hidden=4, seed=11)
    c = init_lstm(6, 2, hidden=4, seed=12)
    for key in a.params():
        assert np.array_equal(a.params()[key], b.params()[key])
    assert not np.array_equal(a.W, c.W)


def test_forward_shapes_and_window_check():
    net = init_lstm(4, 2, hidden=3, seed=1)
    Y, _ = lstm_forward(net, np.zeros((5, 4)))
    assert Y.shape == (5, 2)
    # a single window is promoted to a batch of one
    y1, _ = lstm_forward(net, np.zeros(4))
    assert y1.shape == (1, 2)
    with pytest.raises(PredictorError):
        lstm_forward(net, np.zeros((2, 7)))


def test_forward_batch_matches_per_row():
    net = init_lstm(6, 2, hidden=4, seed=5)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 6))
    Y, _ = lstm_forward(net, X)
    for i in range(4):
        yi, _ = lstm_forward(net, X[i])
        assert np.allclose(Y[i], yi[0], atol=1e-12)


def test_mse_loss_hand_value():
    loss, dY = mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
    assert loss == pytest.approx(2.5)
    assert np.allclose(dY, [[1.0, 2.0]])


def test_bptt_matches_finite_differences(gradient_check):
    # wide init keeps gradients clear of the finite-difference noise floor
    net = init_lstm(4, 2, hidden=3, seed=7, scale=0.5)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 2))
    assert gradient_check(net, X, target) < 1e-4


def test_clip_gradients():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
    total = clip_gradients(grads, max_norm=2.5)
    assert total == pytest.approx(5.0)
    assert np.allclose(grads["a"], [1.5, 0.0])
    assert np.allclose(grads["b"], [2.0])
    # below the cap nothing changes
    grads2 = {"a": np.array([0.3, 0.4])}
    total2 = clip_gradients(grads2, max_norm=2.5)
    assert total2 == pytest.approx(0.5)
    assert np.allclose(grads2["a"], [0.3, 0.4])


def test_training_windows_content_and_thinning():
    X, Y = training_windows(np.arange(10.0), nh=3, nz=2, max_windows=500)
    assert X.shape == (6, 3) and Y.shape == (6, 2)
    assert np.allclose(X[0], [0, 1, 2]) and np.allclose(Y[0], [3, 4])
    assert np.allclose(X[-1], [5, 6, 7]) and np.allclose(Y[-1], [8, 9])
    # thinning keeps evenly spaced offsets, deterministically
    Xs, Ys = training_windows(np.arange(10.0), nh=3, nz=2, max_windows=3)
    assert np.allclose(Xs, [[0, 1, 2], [2, 3, 4], [5, 6, 7]])
    assert np.allclose(Ys, [[3, 4], [5, 6], [8, 9]])


def test_training_windows_too_short():
    with pytest.raises(PredictorError):
        training_windows(np.arange(4.0), nh=3, nz=2)


def test_train_on_sine_reduces_loss_and_is_deterministic():
    t = np.arange(80, dtype=float)
    vals = np.sin(2 * np.pi * t / 20.0)
    X, Y = training_windows(vals, nh=8, nz=2, max_windows=500)
    cfg = TrainConfig(hidden=6, epochs=40, batch_size=8, learning_rate=0.01, seed=3)
    res = train_lstm(X, Y, cfg)
    assert len(res.train_loss) == 40
    assert len(res.val_loss) == 40
    assert res.train_loss[-1] < 0.01 * res.train_loss[0]
    assert res.val_loss[-1] < 1e-3
    res2 = train_lstm(X, Y, cfg)
    assert res.train_loss == res2.train_loss
    assert res.val_loss == res2.val_loss


def test_training_that_diverges_stops_within_its_first_epoch(monkeypatch):
    import predcomp.lstm as lstm
    calls = []

    def counted(*args):
        calls.append(1)
        return loss_and_grads(*args)

    monkeypatch.setattr(lstm, "loss_and_grads", counted)
    X, Y = training_windows(np.sin(np.arange(300.0) / 7.0), nh=24, nz=6)
    cfg = TrainConfig(hidden=4, learning_rate=1e300)
    assert cfg.epochs == 200
    with pytest.raises(PredictorError, match="training diverged: the loss is not finite; "
                                             "lower the learning rate"):
        train_lstm(X, Y, cfg)
    n_train = len(X) - int(round(cfg.validation_fraction * len(X)))
    assert 1 <= len(calls) <= -(-n_train // cfg.batch_size)


def test_train_without_validation_split():
    X, Y = training_windows(np.arange(30.0), nh=4, nz=1)
    cfg = TrainConfig(hidden=4, epochs=2, validation_fraction=0.0, seed=0)
    res = train_lstm(X, Y, cfg)
    assert res.val_loss == []
    assert len(res.train_loss) == 2


def test_train_rejects_tiny_window_sets():
    with pytest.raises(PredictorError):
        train_lstm(np.zeros((1, 4)), np.zeros((1, 2)), TrainConfig())


def test_net_dict_round_trip(tmp_path):
    net = init_lstm(5, 3, hidden=4, seed=9)
    write_lstm(tmp_path / "model.json", net)
    clone = read_lstm(tmp_path / "model.json")
    assert clone.nh == 5 and clone.nz == 3 and clone.hidden == 4
    for key in net.params():
        assert np.array_equal(net.params()[key], clone.params()[key])
    rng = np.random.default_rng(1)
    X = rng.normal(size=(2, 5))
    assert np.array_equal(lstm_forward(net, X)[0], lstm_forward(clone, X)[0])


def test_predictor_adapter():
    net = init_lstm(6, 3, hidden=4, seed=2)
    pred = LstmPredictor(net)
    window = np.arange(10.0)
    fc = pred.forecast(window, 2)
    # only the trailing nh values feed the net; horizon trims the head
    full, _ = lstm_forward(net, window[-6:][None, :])
    assert np.array_equal(fc, full[0, :2])
    with pytest.raises(PredictorError):
        pred.forecast(np.arange(5.0), 1)
    with pytest.raises(PredictorError):
        pred.forecast(window, 4)
    assert pred.refit(window) is pred


def test_fit_predictor_loads_an_lstm_from_its_model_path(tmp_path):
    net = init_lstm(6, 3, hidden=4, seed=2)
    path = tmp_path / "model.json"
    write_lstm(path, net)
    pred = fit_predictor({"kind": "lstm", "model_path": str(path)}, np.arange(100.0))
    assert isinstance(pred, LstmPredictor)
    assert (pred.net.nh, pred.net.nz) == (6, 3)
    window = np.linspace(-1.0, 1.0, 6)
    assert np.array_equal(pred.forecast(window, 3), LstmPredictor(net).forecast(window, 3))


def test_loss_and_grads_keys():
    net = init_lstm(4, 1, hidden=3, seed=4)
    loss, grads = loss_and_grads(net, np.zeros((2, 4)), np.zeros((2, 1)))
    assert loss >= 0.0
    assert set(grads) == {"W", "b", "Wy", "by"}
    for key, p in net.params().items():
        assert grads[key].shape == p.shape


@pytest.mark.parametrize("where", ["inputs", "targets"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_training_rejects_non_finite_windows_before_it_starts(monkeypatch, where, value):
    import predcomp.lstm as lstm

    def no_training(*args):
        raise AssertionError("a batch was trained")

    monkeypatch.setattr(lstm, "loss_and_grads", no_training)
    X, Y = training_windows(np.sin(np.arange(100.0)), nh=8, nz=2)
    (X if where == "inputs" else Y)[3, 1] = value
    with pytest.raises(PredictorError, match=f"training {where} contain non-finite values"):
        train_lstm(X, Y, TrainConfig(hidden=4, epochs=1))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_training_windows_reject_a_non_finite_history(value):
    values = np.arange(30.0)
    values[17] = value
    with pytest.raises(PredictorError, match="history contains non-finite values"):
        training_windows(values, nh=4, nz=2)


# ---------------------------------------------------------------------------
# the gates, BPTT and Adam as first written: the reference that the module's
# faster code must equal bit for bit

def _sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_reference(net, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B, T = X.shape
    H = net.hidden
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(T):
        z = np.concatenate([X[:, t:t + 1], h], axis=1)
        gates = z @ net.W.T + net.b
        i = _sigmoid_reference(gates[:, :H])
        f = _sigmoid_reference(gates[:, H:2 * H])
        o = _sigmoid_reference(gates[:, 2 * H:3 * H])
        g = np.tanh(gates[:, 3 * H:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        steps.append((z, i, f, o, g, c, c_new, tanh_c))
        h, c = h_new, c_new
    Y = h @ net.Wy.T + net.by
    return Y, (X, steps, h)


def _backward_reference(net, cache, dY):
    X, steps, h_last = cache
    B, T = X.shape
    H = net.hidden
    grads = {"W": np.zeros_like(net.W), "b": np.zeros_like(net.b),
             "Wy": np.zeros_like(net.Wy), "by": np.zeros_like(net.by)}
    grads["Wy"] = dY.T @ h_last
    grads["by"] = dY.sum(axis=0)
    dh = dY @ net.Wy
    dc = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        z, i, f, o, g, c_prev, c_new, tanh_c = steps[t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c ** 2)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        d_gates = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g ** 2),
        ], axis=1)
        grads["W"] += d_gates.T @ z
        grads["b"] += d_gates.sum(axis=0)
        dz = d_gates @ net.W
        dh = dz[:, 1:]
        dc = dc * f
    return grads


def _adam_step_reference(params, grads, m, v, step, lr):
    for key, p in params.items():
        m[key] = BETA1 * m[key] + (1 - BETA1) * grads[key]
        v[key] = BETA2 * v[key] + (1 - BETA2) * grads[key] ** 2
        m_hat = m[key] / (1 - BETA1 ** step)
        v_hat = v[key] / (1 - BETA2 ** step)
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def _same_bits(a, b):
    """Equal shapes, NaN where the other has NaN, and every other value bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def test_sigmoid_keeps_the_bits_of_the_masked_reference():
    rng = np.random.default_rng(20)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8,
               36.8, -36.8, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300]
    values = np.concatenate([special, rng.normal(0.0, 1.0, 800), rng.normal(0.0, 40.0, 600),
                             rng.uniform(-800.0, 800.0, 300)])
    z = rng.permutation(np.resize(values, 32 * 64)).reshape(32, 64)
    # whole, the gate block of a (B, 4H) row, and other strides
    for a in (z, z[:, :48], z[::3], z.T, z[:, 5::7], z.ravel()[::-1], z[:1, :48]):
        assert _same_bits(_sigmoid(a), _sigmoid_reference(a))


@pytest.mark.parametrize("batch, scale, spread", [(1, 0.08, 1.0), (32, 0.08, 1.0),
                                                  (32, 2.0, 30.0)])
def test_loss_and_grads_keep_the_bits_of_the_reference(batch, scale, spread):
    # the last case saturates most gates
    net = init_lstm(24, 6, hidden=16, seed=batch, scale=scale)
    rng = np.random.default_rng(batch)
    X = rng.normal(0.0, spread, (batch, 24))
    target = rng.normal(0.0, 1.0, (batch, 6))
    loss, grads = loss_and_grads(net, X, target)
    Y, cache = _forward_reference(net, X)
    want_loss, dY = mse_loss(Y, target)
    want = _backward_reference(net, cache, dY)
    assert loss == want_loss
    assert set(grads) == set(want)
    for key in want:
        assert _same_bits(grads[key], want[key]), key


def test_training_keeps_the_bits_of_the_reference(monkeypatch):
    import predcomp.lstm as lstm
    rng = np.random.default_rng(3)
    X, Y = training_windows(np.sin(np.arange(300.0) / 9.0) + 0.2 * rng.normal(size=300),
                            nh=24, nz=6, max_windows=200)
    cfg = TrainConfig(hidden=16, epochs=3, batch_size=32, learning_rate=0.01, seed=4)
    got = train_lstm(X, Y, cfg)
    monkeypatch.setattr(lstm, "lstm_forward", _forward_reference)
    monkeypatch.setattr(lstm, "lstm_backward", _backward_reference)
    monkeypatch.setattr(lstm, "_adam_step", _adam_step_reference)
    want = train_lstm(X, Y, cfg)
    assert len(got.train_loss) == len(got.val_loss) == 3
    assert got.train_loss == want.train_loss and got.val_loss == want.val_loss
    for key, p in want.net.params().items():
        assert _same_bits(got.net.params()[key], p), key

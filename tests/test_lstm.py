"""Tests for the hand-rolled LSTM: BPTT gradients, training, adapters."""

from __future__ import annotations

import numpy as np
import pytest

from predcomp.lstm import (
    LstmNet,
    LstmPredictor,
    TrainConfig,
    clip_gradients,
    gradient_check,
    init_lstm,
    loss_and_grads,
    lstm_forward,
    mse_loss,
    train_lstm,
    training_windows,
)
from predcomp.io import save_model
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


def test_bptt_matches_finite_differences():
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
    with pytest.raises(PredictorError, match="training diverged: the weights are not finite; "
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


def test_net_dict_round_trip():
    net = init_lstm(5, 3, hidden=4, seed=9)
    clone = LstmNet.from_dict(net.to_dict())
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
    save_model(path, net.to_dict())
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

"""Single-layer LSTM regressor, written out by hand.

The network reads a window of ``nh`` scalars and emits ``nz`` forecasts
from a linear head on the final hidden state.  Forward, backward
(backpropagation through time) and the Adam loop are all explicit numpy;
gradients are validated against central finite differences in the tests.

Weight layout: one stacked matrix per network, rows ordered
[input, forget, output, candidate] gates; each gate block sees the
concatenation [x_t, h_{t-1}].  Initialization is uniform(-0.08, 0.08)
with the forget-gate bias lifted to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seeding import spawn_rng
from .predictors import PredictorError, _as_history

#: Adam's decay rates and denominator guard; the half-width of the uniform init
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
INIT_SCALE = 0.08
_DIVERGED = "training diverged: the {} not finite; lower the learning rate"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) is exp(-z) for z >= 0 and exp(z) for z < 0: each branch's own bits
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class LstmNet:
    nh: int
    nz: int
    hidden: int
    W: np.ndarray   # (4*hidden, 1 + hidden)
    b: np.ndarray   # (4*hidden,)
    Wy: np.ndarray  # (nz, hidden)
    by: np.ndarray  # (nz,)

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b, "Wy": self.Wy, "by": self.by}


def init_lstm(nh: int, nz: int, hidden: int = 32, seed: int = 0,
              scale: float = INIT_SCALE) -> LstmNet:
    rng = spawn_rng(seed, "lstm-init")
    H = hidden
    W = rng.uniform(-scale, scale, size=(4 * H, 1 + H))
    b = rng.uniform(-scale, scale, size=4 * H)
    b[H:2 * H] = 1.0  # forget gate starts open
    Wy = rng.uniform(-scale, scale, size=(nz, H))
    by = rng.uniform(-scale, scale, size=nz)
    return LstmNet(nh, nz, hidden, W, b, Wy, by)


def lstm_forward(net: LstmNet, X: np.ndarray):
    """Run the net over a batch of windows.

    Args:
        X: (batch, nh) inputs.

    Returns:
        (Y, cache) with Y of shape (batch, nz).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B, T = X.shape
    if T != net.nh:
        raise PredictorError(f"window length {T} != nh {net.nh}")
    H = net.hidden
    WT = net.W.T
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(T):
        z = np.concatenate([X[:, t:t + 1], h], axis=1)          # (B, 1+H)
        gates = z @ WT                                          # (B, 4H)
        gates += net.b
        s = _sigmoid(gates[:, :3 * H])                          # i, f, o
        g = np.tanh(gates[:, 3 * H:])
        c_new = s[:, H:2 * H] * c + s[:, :H] * g
        tanh_c = np.tanh(c_new)
        h = s[:, 2 * H:] * tanh_c
        steps.append((z, s, g, c, tanh_c))
        c = c_new
    Y = h @ net.Wy.T + net.by
    return Y, (X, steps, h)


def lstm_backward(net: LstmNet, cache, dY: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a loss with upstream dL/dY; exact BPTT."""
    X, steps, h_last = cache
    B, T = X.shape
    H = net.hidden
    dW, db = np.zeros_like(net.W), np.zeros_like(net.b)
    dh = dY @ net.Wy
    dc = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        z, s, g, c_prev, tanh_c = steps[t]
        dc = dc + dh * s[:, 2 * H:] * (1.0 - tanh_c ** 2)
        d_ifo = np.concatenate([dc * g, dc * c_prev, dh * tanh_c], axis=1)
        d_ifo *= s                                              # through the sigmoids
        d_ifo *= 1.0 - s
        d_gates = np.concatenate([d_ifo, dc * s[:, :H] * (1.0 - g ** 2)], axis=1)
        dW += d_gates.T @ z
        db += d_gates.sum(axis=0)
        if t:
            dh = (d_gates @ net.W)[:, 1:]
            dc = dc * s[:, H:2 * H]
    return {"W": dW, "b": db, "Wy": dY.T @ h_last, "by": dY.sum(axis=0)}


def mse_loss(Y: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over the batch and its gradient wrt Y."""
    diff = Y - np.atleast_2d(target)
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


def loss_and_grads(net: LstmNet, X: np.ndarray, target: np.ndarray):
    Y, cache = lstm_forward(net, X)
    loss, dY = mse_loss(Y, target)
    return loss, lstm_backward(net, cache, dY)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def training_windows(values, nh: int, nz: int, max_windows: int = 500):
    """(input, target) window pairs carved from a history vector.

    Windows are taken at every offset, then thinned to at most
    ``max_windows`` evenly spaced ones (deterministic).  A non-finite value
    raises :class:`PredictorError`.
    """
    values = _as_history(values)
    total = len(values) - nh - nz + 1
    if total <= 0:
        raise PredictorError("history too short for the requested windows")
    offsets = np.arange(total)
    if total > max_windows:
        offsets = offsets[np.linspace(0, total - 1, max_windows).round().astype(int)]
    X = np.stack([values[off:off + nh] for off in offsets])
    Y = np.stack([values[off + nh:off + nh + nz] for off in offsets])
    return X, Y


def _adam_step(params, grads, m, v, step: int, lr: float) -> None:
    """Adam update number ``step`` of ``params``, with the moment estimates
    ``m`` and ``v``; all three are updated in place."""
    bias1, bias2 = 1 - BETA1 ** step, 1 - BETA2 ** step
    for key, p in params.items():
        g, mk, vk = grads[key], m[key], v[key]
        mk *= BETA1
        mk += (1 - BETA1) * g
        vk *= BETA2
        vk += (1 - BETA2) * g ** 2
        p -= lr * (mk / bias1) / (np.sqrt(vk / bias2) + EPS)


@dataclass
class TrainConfig:
    hidden: int = 32
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    validation_fraction: float = 0.2
    seed: int = 0


@dataclass
class TrainResult:
    net: LstmNet
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)


def train_lstm(X: np.ndarray, Y: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Adam on MSE with global-norm gradient clipping.

    The validation split is the tail of the window set (time-ordered
    holdout); batches are reshuffled every epoch from a seeded stream, so
    a fixed (data, config, seed) triple reproduces the loss history
    exactly.  Raises :class:`PredictorError` before training when an input
    or target is not finite, at the first batch whose loss is not finite,
    before its step, and when a weight ends non-finite.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    for name, a in (("inputs", X), ("targets", Y)):
        if not np.all(np.isfinite(a)):
            raise PredictorError(f"training {name} contain non-finite values")
    if len(X) != len(Y) or len(X) < 2:
        raise PredictorError("need at least two window pairs")
    n_val = int(round(cfg.validation_fraction * len(X)))
    n_val = min(max(n_val, 0), len(X) - 1)
    X_tr, Y_tr = X[:len(X) - n_val], Y[:len(X) - n_val]
    X_va, Y_va = X[len(X) - n_val:], Y[len(X) - n_val:]
    net = init_lstm(X.shape[1], Y.shape[1], cfg.hidden, cfg.seed)
    m = {k: np.zeros_like(v) for k, v in net.params().items()}
    v = {k: np.zeros_like(v_) for k, v_ in net.params().items()}
    rng = spawn_rng(cfg.seed, "lstm-batches")
    result = TrainResult(net)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(X_tr))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(X_tr), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(net, X_tr[idx], Y_tr[idx])
            if not np.isfinite(loss):
                raise PredictorError(_DIVERGED.format("loss is"))
            clip_gradients(grads, cfg.clip_norm)
            step += 1
            _adam_step(net.params(), grads, m, v, step, cfg.learning_rate)
            epoch_loss += loss
            n_batches += 1
        result.train_loss.append(epoch_loss / max(n_batches, 1))
        if len(X_va):
            Yp, _ = lstm_forward(net, X_va)
            result.val_loss.append(mse_loss(Yp, Y_va)[0])
    if not all(np.isfinite(p).all() for p in net.params().values()):
        raise PredictorError(_DIVERGED.format("weights are"))
    return result


@dataclass
class LstmPredictor:
    """Adapter exposing the predictor contract; no refit on detection."""

    net: LstmNet
    kind = "lstm"

    def forecast(self, window, steps: int) -> np.ndarray:
        window = _as_history(window)
        if len(window) < self.net.nh:
            raise PredictorError(f"input window shorter than nh={self.net.nh}")
        if steps > self.net.nz:
            raise PredictorError(f"horizon {steps} exceeds nz={self.net.nz}")
        Y, _ = lstm_forward(self.net, window[-self.net.nh:][None, :])
        return Y[0, :steps]

    def refit(self, history) -> "LstmPredictor":
        return self

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
from .predictors import PredictorError

#: Adam's decay rates and denominator guard; the half-width of the uniform init
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
INIT_SCALE = 0.08
_DIVERGED = "training diverged: the weights are not finite; lower the learning rate"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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

    def to_dict(self) -> dict:
        return {"kind": "lstm", "nh": self.nh, "nz": self.nz, "hidden": self.hidden,
                "arrays": {k: {"shape": list(v.shape), "data": [float(x) for x in v.ravel()]}
                           for k, v in self.params().items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "LstmNet":
        arrays = {k: np.asarray(v["data"], dtype=float).reshape(v["shape"])
                  for k, v in d["arrays"].items()}
        return cls(int(d["nh"]), int(d["nz"]), int(d["hidden"]),
                   arrays["W"], arrays["b"], arrays["Wy"], arrays["by"])


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
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(T):
        z = np.concatenate([X[:, t:t + 1], h], axis=1)          # (B, 1+H)
        gates = z @ net.W.T + net.b                             # (B, 4H)
        i = _sigmoid(gates[:, :H])
        f = _sigmoid(gates[:, H:2 * H])
        o = _sigmoid(gates[:, 2 * H:3 * H])
        g = np.tanh(gates[:, 3 * H:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        steps.append((z, i, f, o, g, c, c_new, tanh_c))
        h, c = h_new, c_new
    Y = h @ net.Wy.T + net.by
    return Y, (X, steps, h)


def lstm_backward(net: LstmNet, cache, dY: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a loss with upstream dL/dY; exact BPTT."""
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
        ], axis=1)                                              # (B, 4H)
        grads["W"] += d_gates.T @ z
        grads["b"] += d_gates.sum(axis=0)
        dz = d_gates @ net.W                                    # (B, 1+H)
        dh = dz[:, 1:]
        dc = dc * f
    return grads


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
    ``max_windows`` evenly spaced ones (deterministic).
    """
    values = np.asarray(values, dtype=float)
    total = len(values) - nh - nz + 1
    if total <= 0:
        raise PredictorError("history too short for the requested windows")
    offsets = np.arange(total)
    if total > max_windows:
        offsets = offsets[np.linspace(0, total - 1, max_windows).round().astype(int)]
    X = np.stack([values[off:off + nh] for off in offsets])
    Y = np.stack([values[off + nh:off + nh + nz] for off in offsets])
    return X, Y


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
    exactly.  Raises :class:`PredictorError` at the first batch whose loss
    is not finite, before its step, and when a weight ends non-finite.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
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
                raise PredictorError(_DIVERGED)
            clip_gradients(grads, cfg.clip_norm)
            step += 1
            params = net.params()
            for key, p in params.items():
                m[key] = BETA1 * m[key] + (1 - BETA1) * grads[key]
                v[key] = BETA2 * v[key] + (1 - BETA2) * grads[key] ** 2
                m_hat = m[key] / (1 - BETA1 ** step)
                v_hat = v[key] / (1 - BETA2 ** step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
            epoch_loss += loss
            n_batches += 1
        result.train_loss.append(epoch_loss / max(n_batches, 1))
        if len(X_va):
            Yp, _ = lstm_forward(net, X_va)
            result.val_loss.append(mse_loss(Yp, Y_va)[0])
    if not all(np.isfinite(p).all() for p in net.params().values()):
        raise PredictorError(_DIVERGED)
    return result


def gradient_check(net: LstmNet, X: np.ndarray, target: np.ndarray,
                   step: float = 1e-5) -> float:
    """Max relative error of BPTT against central finite differences.

    Per element the error is |ga - gn| / max(|ga|, |gn|); element pairs
    that agree below 1e-6 in absolute value are treated as matching (the
    quotient is meaningless at the finite-difference noise floor).
    """
    _, grads = loss_and_grads(net, X, target)
    worst = 0.0
    for key, p in net.params().items():
        flat = p.ravel()
        ga = grads[key].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up, _ = mse_loss(lstm_forward(net, X)[0], target)
            flat[j] = orig - step
            dn, _ = mse_loss(lstm_forward(net, X)[0], target)
            flat[j] = orig
            gn = (up - dn) / (2 * step)
            denom = max(abs(ga[j]), abs(gn))
            if denom < 1e-6:
                continue
            worst = max(worst, abs(ga[j] - gn) / denom)
    return worst


@dataclass
class LstmPredictor:
    """Adapter exposing the predictor contract; no refit on detection."""

    net: LstmNet
    kind = "lstm"

    def forecast(self, window, steps: int) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if len(window) < self.net.nh:
            raise PredictorError(f"input window shorter than nh={self.net.nh}")
        if steps > self.net.nz:
            raise PredictorError(f"horizon {steps} exceeds nz={self.net.nz}")
        Y, _ = lstm_forward(self.net, window[-self.net.nh:][None, :])
        return Y[0, :steps]

    def refit(self, history) -> "LstmPredictor":
        return self

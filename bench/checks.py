"""Output checks, computed apart from the program.

Each function returns a list of failure messages (empty when the check
passes).  Nothing here compares with a stored copy of earlier output:
every expected value is recomputed from the inputs, the written files or
the fitted parameters, or follows from a property the method must have.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

# --------------------------------------------------------------------------
# demo_grid: metrics.csv, eval winners, random baseline

#: grid parameter that acts as the threshold, and whether a larger value
#: alarms later (+1) or earlier (-1)
THRESHOLD_KEY = {"pnc": ("desInt", 1), "cusum": ("desInt", 1), "bocpd": ("cpthreshold", 1),
                 "ocd": ("diag", 1), "mosum": ("level", -1)}


def read_metrics(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r["pid"] = r["params"]
        r["params"] = {k: float(v) for k, v in (kv.split("=", 1) for kv in r["pid"].split(","))}
        r["fpc"] = int(r["fpc"])
        r["found"] = r["target_found"] == "1"
        r["valid"] = r["valid"] == "1"
        r["arlp"] = float(r["arlp"]) if r["arlp"] else None
    return rows


def check_simulate(doc: dict, out: Path) -> list[str]:
    errs = []
    manifest = json.loads((out / "manifest.json").read_text())
    ids = [d["id"] for d in manifest["datasets"]]
    if ids != [d["id"] for d in doc["datasets"]]:
        errs.append(f"manifest datasets {ids}")
    for ds in doc["datasets"]:
        with open(out / f"{ds['id']}.csv") as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != ds["source"]["n"]:
            errs.append(f"{ds['id']}.csv has {n_rows} rows, config says {ds['source']['n']}")
    return errs


def check_metrics(doc: dict, out: Path, rows: list[dict]) -> list[str]:
    errs = []
    n_points = sum(math.prod(len(v) for v in d.get("grid", {}).values()) for d in doc["detectors"])
    expected = n_points * len(doc["datasets"])
    keys = {(r["dataset"], r["detector"], r["pid"]) for r in rows}
    if len(rows) != expected or len(keys) != expected:
        errs.append(f"metrics.csv has {len(rows)} rows ({len(keys)} distinct), "
                    f"config gives {expected}")
    # ArlP = 100 (attribution time - K>A label) / phase length, from the manifest
    target = doc.get("evaluation", {}).get("target", "K>A")
    manifest = json.loads((out / "manifest.json").read_text())
    phase = {}
    for ds in manifest["datasets"]:
        times = [t for t, _ in ds["labels"]] + [ds["rows"] + 1]
        for j, (t, key) in enumerate(ds["labels"]):
            if key == target:
                phase[ds["id"]] = (t, times[j + 1] - t)
    for r in rows:
        if not r["found"]:
            continue
        label, length = phase[r["dataset"]]
        at = int(r["located_time"] or r["detect_time"])
        want = 100.0 * (at - label) / length
        if abs(want - r["arlp"]) > 1e-6 * max(1.0, abs(want)):
            errs.append(f"{r['dataset']}/{r['detector']}/{r['params']}: ArlP {r['arlp']} "
                        f"!= {want}")
    # detect time is monotone in the threshold among clean, successful rows
    kind_of = {d["id"]: d["kind"] for d in doc["detectors"]}
    groups: dict[tuple, list] = {}
    for r in rows:
        key, sign = THRESHOLD_KEY[kind_of[r["detector"]]]
        if r["fpc"] == 0 and r["found"]:
            rest = tuple(sorted((k, v) for k, v in r["params"].items() if k != key))
            groups.setdefault((r["dataset"], r["detector"], rest), []).append(
                (r["params"][key], int(r["detect_time"]), sign))
    for g, pts in groups.items():
        pts.sort()
        for (t_lo, d_lo, sign), (t_hi, d_hi, _) in zip(pts, pts[1:]):
            if sign * (d_hi - d_lo) < 0:
                errs.append(f"{g}: detect time {d_lo} at {t_lo} but {d_hi} at {t_hi}")
    return errs


def expected_winners(rows: list[dict], doc: dict) -> dict[str, list[tuple]]:
    """Winner rows under the Fpc-then-ArlP-then-params rule and the config's caps."""
    ev = doc.get("evaluation", {})
    out = {}
    cand = [r for r in rows if r["valid"] and r["found"]]
    best: dict[tuple, tuple] = {}
    for r in cand:
        if r["fpc"] <= ev.get("fpc_cap", 10):
            key = (r["fpc"], r["arlp"], r["pid"])
            g = (r["dataset"], r["detector"])
            if g not in best or key < best[g]:
                best[g] = key
    out["per_dataset"] = sorted((ds, det, k[0], k[1], k[2]) for (ds, det), k in best.items())
    scopes = [("overall", ev.get("overall_cap", 150), None)]
    if ev.get("subset"):
        scopes.append(("subset", ev.get("subset_cap", 30), set(ev["subset"])))
    for scope, cap, subset in scopes:
        in_scope = [r for r in rows if subset is None or r["dataset"] in subset]
        all_ds = {r["dataset"] for r in in_scope}
        agg: dict[tuple, list] = {}
        for r in in_scope:
            if r["valid"] and r["found"]:
                agg.setdefault((r["detector"], r["pid"]), []).append(r)
        best2: dict[str, tuple] = {}
        for (det, pid), rs in agg.items():
            if {r["dataset"] for r in rs} != all_ds:
                continue
            fpc = sum(r["fpc"] for r in rs)
            if fpc > cap:
                continue
            key = (fpc, sum(r["arlp"] for r in rs) / len(rs), pid)
            if det not in best2 or key < best2[det]:
                best2[det] = key
        out[scope] = sorted(("-", det, k[0], k[1], k[2]) for det, k in best2.items())
    return out


_ROW = re.compile(r"^(per_dataset|overall|subset)\s+(\S+)\s+(\S+)\s+(\d+)\s+(-?[\d.]+)\s+(\S+)$")
_BASE = re.compile(r"^(\S+)\s+n_fp=(\S+)\s+fpc=\s*(\S+)\s+arlp=")


def check_eval(doc: dict, rows: list[dict], eval_text: str) -> list[str]:
    errs = []
    printed: dict[str, list] = {}
    for line in eval_text.splitlines():
        m = _ROW.match(line)
        if m:
            scope, ds, det, fpc, arlp, pid = m.groups()
            printed.setdefault(scope, []).append((ds, det, fpc, arlp, pid))
    for scope, want in expected_winners(rows, doc).items():
        want_fmt = sorted((ds, det, f"{fpc:.0f}", f"{arlp:.2f}", pid)
                          for ds, det, fpc, arlp, pid in want)
        got = sorted(printed.get(scope, []))
        if got != want_fmt:
            errs.append(f"{scope} winners {got} != recomputed {want_fmt}")
    base = {}
    for line in eval_text.splitlines():
        m = _BASE.match(line)
        if m:
            base[(m.group(1), m.group(2))] = m.group(3)
    for ds in doc["datasets"]:
        for n_fp, want in (("0", "0.00"), ("10", "10.00")):
            got = base.get((ds["id"], n_fp))
            if got != want:
                errs.append(f"random baseline {ds['id']} n_fp={n_fp}: Fpc {got}, want {want}")
    return errs


# --------------------------------------------------------------------------
# CUSUM recursions

def cusum_from_rows(rows, threshold: float, allowance: float):
    """Alarms (index, located) of an upward chart replayed over
    (index, value, target) rows; the chart restarts after each alarm."""
    out = []
    s, last_zero = 0.0, None
    for idx, x, tgt in rows:
        if last_zero is None:
            last_zero = idx - 1
        s = max(0.0, s + x - tgt - allowance)
        if s == 0.0:
            last_zero = idx
        if s > threshold:
            out.append((idx, last_zero + 1))
            s, last_zero = 0.0, None
    return out


def reference_pnc_ar(values, coef, intercept: float, window_len: int, horizon: int,
                     threshold: float, allowance: float):
    """Plain predict-and-compare loop with AR forecasts from the fitted
    coefficients: alarms as (index, located)."""
    values = [float(v) for v in values]
    coef = [float(c) for c in coef]
    p, n = len(coef), len(values)
    alarms, origin = [], 0
    while origin + window_len < n:
        s, last_zero, alarm = 0.0, origin + window_len - 1, None
        t = origin + window_len
        while t < n and alarm is None:
            hist = values[t - p:t]
            for i in range(t, min(t + horizon, n)):
                dot = 0.0
                for j in range(p):
                    dot += coef[j] * hist[-1 - j]
                nxt = intercept + dot
                hist.append(nxt)
                s = max(0.0, s + values[i] - nxt - allowance)
                if s == 0.0:
                    last_zero = i
                if s > threshold:
                    alarm = i
                    break
            t += horizon
        if alarm is None:
            break
        alarms.append((alarm, last_zero + 1))
        origin = alarm + 1
    return alarms


# Each first_* function recomputes a reference detector's statistic from the
# start of monitoring up to its first alarm and returns (first alarm as
# (index, located) or None, [(index, statistic...)] up to that alarm).

def first_classic(values, threshold: float, allowance: float, window: int):
    s, last_zero, path = 0.0, window - 1, []
    for i in range(window, len(values)):
        tgt = sum(values[i - window:i]) / window
        s = max(0.0, s + values[i] - tgt - allowance)
        path.append((i, s))
        if s == 0.0:
            last_zero = i
        if s > threshold:
            return (i, last_zero + 1), path
    return None, path


def first_ocd(values, diag: float, h_tail: int, baseline_window: int):
    x = np.asarray(values, dtype=float)
    base = x[:baseline_window]
    mean = base.sum() / len(base)
    sd = math.sqrt(((base - mean) ** 2).sum() / (len(base) - 1))
    dev = np.concatenate(([0.0], np.cumsum(x[baseline_window:] - mean)))
    m = len(dev) - 1
    stats = np.full((h_tail, m), -np.inf)
    for tau in range(1, h_tail + 1):
        # tail sums ending at position j (0-based) over the last tau deviations
        stats[tau - 1, tau - 1:] = np.abs(dev[tau:] - dev[:m + 1 - tau]) / (sd * math.sqrt(tau))
    best = stats.max(axis=0)
    hits = np.flatnonzero(best > diag)
    end = int(hits[0]) + 1 if len(hits) else m
    path = [(baseline_window + j, float(best[j])) for j in range(end)]
    if not len(hits):
        return None, path
    j = int(hits[0])
    tau = int(np.argmax(stats[:, j])) + 1
    return (baseline_window + j, baseline_window + j - tau + 1), path


def first_mosum(values, min_hist: int, hist_fact: float, h_band: float, level: float,
                boundary_table: dict):
    x = np.asarray(values, dtype=float)
    mon = 2 * min_hist
    length = min(max(min_hist, math.ceil(hist_fact * mon)), 4 * min_hist, mon)
    t = np.arange(mon - length, mon, dtype=float)
    y = x[mon - length:mon]
    tb, yb = t.mean(), y.mean()
    slope = ((t - tb) * (y - yb)).sum() / ((t - tb) ** 2).sum()
    icpt = yb - slope * tb
    resid = x - (icpt + slope * np.arange(len(x), dtype=float))
    sd = math.sqrt((resid[mon - length:mon] ** 2).sum() / (length - 2))
    hs = boundary_table["h_bands"]
    jh = min(range(len(hs)), key=lambda j: abs(hs[j] - h_band))
    c = boundary_table["c"][jh][boundary_table["levels"].index(level)]
    band = max(math.ceil(h_band * length), 1)
    path = []
    for j, idx in enumerate(range(mon, len(x))):
        mosum = float(resid[max(idx + 1 - band, mon - length):idx + 1].sum())
        bound = c * sd * math.sqrt(length) * (1 + (j + 1) / length)
        path.append((idx, mosum, bound))
        if abs(mosum) > bound:
            return (idx, None), path
    return None, path


def path_errors(got, want, rel: float = 1e-7) -> list[str]:
    """Mismatches between a detector's traced statistic and a recomputed path."""
    if len(got) < len(want):
        return [f"trace has {len(got)} steps before the first alarm, recomputed {len(want)}"]
    for g, w in zip(got, want):
        if g[0] != w[0] or any(abs(a - b) > rel * max(1.0, abs(b)) for a, b in zip(g[1:], w[1:])):
            return [f"statistic {g} != recomputed {w}"]
    return []


def first_alarm(dets):
    return (dets[0].detect_time, dets[0].located_time) if dets else None


# --------------------------------------------------------------------------
# long_stream: online standardization

def online_score(counts, i: int) -> float:
    """Score at 0-based index i from the counts up to i: nu_hat + 1 is the
    np.polyfit slope of ln L on ln s where L > 0, b_hat the no-intercept
    least-squares slope of X on s^nu_hat."""
    x = np.asarray(counts[:i + 1], dtype=float)
    s = np.arange(1, i + 2, dtype=float)
    cum = np.cumsum(x)
    keep = cum > 0
    nu = np.polyfit(np.log(s[keep]), np.log(cum[keep]), 1)[0] - 1.0
    u = s ** nu
    b = (x * u).sum() / (u * u).sum()
    lam = b * (i + 1) ** nu
    return (x[-1] - lam) / math.sqrt(lam)


def check_online_scores(counts, scores, flagged, samples: int = 20) -> list[str]:
    errs = []
    n = len(counts)
    for i in np.linspace(n // samples, n - 1, samples).astype(int):
        if i in flagged:
            continue
        want = online_score(counts, int(i))
        if abs(scores[i] - want) > 1e-7 * max(1.0, abs(want)):
            errs.append(f"online score at {i}: {scores[i]!r} != {want!r}")
    return errs


# --------------------------------------------------------------------------
# model_fit: ARIMA fit statistics

def innovation_stats(history, p: int, d: int, q: int, phi, theta, intercept: float):
    """(sigma2, AICc) from the plain innovation recursion of
    (1 - phi(L))(w_t - mu) = (1 + theta(L)) e_t with zero pre-sample values."""
    w = [float(v) for v in history]
    for _ in range(d):
        w = [b - a for a, b in zip(w, w[1:])]
    c = [v - intercept for v in w]
    e: list[float] = []
    for t in range(len(c)):
        val = c[t]
        for i in range(p):
            if t - 1 - i >= 0:
                val -= phi[i] * c[t - 1 - i]
        for j in range(q):
            if t - 1 - j >= 0:
                val -= theta[j] * e[t - 1 - j]
        e.append(val)
    n, k = len(c), p + q + 2
    sigma2 = sum(v * v for v in e) / n
    return sigma2, n * math.log(sigma2) + 2 * k + 2 * k * (k + 1) / (n - k - 1)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)

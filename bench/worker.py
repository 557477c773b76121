"""One fresh interpreter of the benchmark.

    python3 bench/worker.py '<json request>'

The request names the workload, the seed, the mode (``setup``: set up the
inputs and stop; ``job``: also run the job untraced and check it;
``traced``: the same with spans at every layer boundary), the size
(``full`` or ``small``), the work directory and the CLOCK_MONOTONIC reading
taken just before this process was spawned, so that set-up time counts
from a fresh interpreter.  The worker prints one JSON object as its last
line of standard output.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIG = ROOT / "configs" / "demo.yaml"

#: the demo's in-control prefix, AR order and chart allowance
TRAIN_PREFIX = 600
AR_SPEC = {"kind": "ar", "p": 5}
ALLOWANCE = 0.5
THRESHOLD = 10.0

#: long_stream: length, steps of divergence at the end, and the two monitors
#: (name, l, b): the demo pnc_ar window and the demo lstm horizon
STREAM = {"full": 32000, "small": 4000}
DIVERGENT_TAIL = 800
MONITORS = (("long_horizon", 200, 50), ("short_horizon", 24, 6))

OPS = {
    "demo_grid": ("simulate", "grid", "eval"),
    "long_stream": ("standardize", "ar_fit", "pnc_long_horizon", "pnc_short_horizon",
                    "classic", "ocd", "mosum"),
    "model_fit": ("arima_auto", "lstm_train", "pnc_arima", "pnc_lstm", "arima_fixed",
                  "pnc_refit"),
}


# --------------------------------------------------------------------------
# inputs

def small_demo_config(path: Path) -> Path:
    """The demo config shrunk to 500-point series and short windows."""
    import yaml
    doc = yaml.safe_load(DEMO_CONFIG.read_text())
    for ds, t2 in zip(doc["datasets"], (350, 380, 320)):
        ds["source"].update(n=500, t2=t2)
    doc["train_prefix"] = 200
    for det in doc["detectors"]:
        p = det.get("params", {})
        if det["kind"] == "pnc":
            p.update(l=50, b=10)
        elif det["kind"] == "ocd":
            p["baseline_window"] = 100
        elif det["kind"] == "mosum":
            p["minHist"] = 100
    doc["evaluation"]["baseline"]["repetitions"] = 20
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def make_inputs(workload: str, seed: int, size: str, work: Path):
    """The workload's inputs and the seconds spent simulating series."""
    if workload == "demo_grid":
        cfg = DEMO_CONFIG if size == "full" else small_demo_config(work / "demo_small.yaml")
        return {"config": cfg}, 0.0
    from predcomp.simulate import WearIntensity, sample_wear_series
    if workload == "long_stream":
        n = STREAM[size]
        t = time.monotonic()
        series = sample_wear_series(WearIntensity(a=120.0, lam=0.02, c=3.0, d=0.02,
                                                  t2=n - DIVERGENT_TAIL),
                                    n, seed, stream="long_stream", name="long_stream")
        return {"counts": series}, time.monotonic() - t
    from predcomp.cli import build_dataset, prepare_series
    from predcomp.config import load_config
    doc = load_config(DEMO_CONFIG)
    ds = next(d for d in doc["datasets"] if d["id"] == "wear_mild")
    t = time.monotonic()
    raw = build_dataset(ds, seed)
    sim_s = time.monotonic() - t
    scores = prepare_series(doc, raw)
    return {"series": scores, "prefix": scores.values[:TRAIN_PREFIX], "lstm": doc["lstm"]}, sim_s


def setup(req: dict):
    t0 = time.monotonic()
    import numpy  # noqa: F401
    t1 = time.monotonic()
    import scipy.optimize, scipy.signal, scipy.special  # noqa: E401,F401
    t2 = time.monotonic()
    import predcomp.cli  # noqa: F401
    t3 = time.monotonic()
    inputs, sim_s = make_inputs(req["workload"], req["seed"], req["size"], Path(req["work"]))
    ready = time.monotonic()
    return inputs, {"setup_s": ready - req["spawned"], "import_s": t3 - t0,
                    "scipy_import_s": t2 - t1, "simulate_s": sim_s}


# --------------------------------------------------------------------------
# demo_grid

RUNNER_SPAN = {"pnc": "pnc.run", "cusum": "refdet.classic", "bocpd": "refdet.bocpd",
               "ocd": "refdet.ocd", "mosum": "refdet.mosum"}


def cli_commands(cfg: Path, out: Path):
    return (("simulate", ["simulate", "-c", str(cfg), "--out", str(out)]),
            ("grid", ["grid", "-c", str(cfg), "--out", str(out)]),
            ("eval", ["eval", "-c", str(cfg), "--metrics", str(out / "metrics.csv"),
                      "--out", str(out / "eval.txt")]))


def run_cli(args: list[str], seed: int, log: Path, deadline: float) -> int:
    env = dict(os.environ, PREDCOMP_SEED=str(seed))
    with open(log, "w") as fh:
        return subprocess.run([sys.executable, "-m", "predcomp.cli", *args], cwd=ROOT, env=env,
                              stdout=fh, stderr=subprocess.STDOUT,
                              timeout=max(deadline - time.monotonic(), 1.0)).returncode


def traced_cli(tracer, cli, cmds, seed: int, log: Path) -> dict:
    """The three commands in this process, with every layer call the
    commands make recorded as a span."""
    from predcomp.evaluate import DetectorGrid
    from tracing import patched

    def build_detector(det_cfg, doc, _orig=cli.build_detector):
        grid = _orig(det_cfg, doc)
        name, runner = RUNNER_SPAN[det_cfg["kind"]], grid.runner

        def traced_runner(series, **params):
            with tracer.span(name) as rec:
                dets = runner(series, **params)
            # run-length vector lengths 1..m over each BOCPD segment of m steps
            bounds = [-1] + [d.detect_time for d in dets] + [len(series) - 1]
            rec["obs"] = len(series)
            rec["cells"] = sum((b - a) * (b - a + 1) // 2 for a, b in zip(bounds, bounds[1:]))
            return dets
        return DetectorGrid(grid.detector_id, traced_runner, grid.grid)

    wraps = {"build_dataset": "simulate.series", "standardize": "standardize.offline",
             "run_grid": "evaluate.run_grid", "write_series_csv": "io.write",
             "write_metrics_csv": "io.write", "_read_metrics": "io.read",
             "select_best": "evaluate.select_best", "render_report": "evaluate.render_report",
             "random_baseline": "refdet.baseline"}
    replacements = {k: tracer.wrap(v, getattr(cli, k)) for k, v in wraps.items()}
    replacements["build_detector"] = build_detector
    codes = {}
    os.environ["PREDCOMP_SEED"] = str(seed)
    with patched(cli, replacements), open(log, "w") as fh, \
            contextlib.redirect_stdout(fh):
        for name, args in cmds:
            with tracer.span(f"cli.{name}"):
                codes[name] = cli.main(args)
    return codes


def job_demo_grid(inp, tracer, req, done: list):
    from predcomp import cli
    work, seed = Path(req["work"]), req["seed"]
    out = work / "demo"
    out.mkdir(parents=True, exist_ok=True)
    cmds = cli_commands(inp["config"], out)
    t = time.monotonic()
    if tracer.enabled:
        with tracer.span("job"):
            codes = traced_cli(tracer, cli, cmds, seed, work / "cli.log")
    else:
        codes = {name: run_cli(args, seed, work / f"{name}.log", req["deadline"])
                 for name, args in cmds}
    run_s = time.monotonic() - t
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    done.extend(OPS["demo_grid"])
    errors = {name: ([] if rc == 0 else [f"exit code {rc}"]) for name, rc in codes.items()}
    if all(rc == 0 for rc in codes.values()):
        check_demo(inp["config"], out, seed, errors)
    layers = {}
    if tracer.enabled:
        # the same grid from the CLI, untraced, must write the same bytes
        cli_out = work / "demo_cli"
        rc = run_cli(dict(cli_commands(inp["config"], cli_out))["grid"], seed,
                     work / "grid_cli.log", req["deadline"])
        if rc != 0 or (cli_out / "metrics.csv").read_bytes() != (out / "metrics.csv").read_bytes():
            errors["grid"].append("traced metrics.csv differs from the CLI's")
        layers = demo_layers(tracer)
    return run_s, rss, errors, layers


def demo_layers(tr) -> dict:
    runners = [s for s in tr.spans if s["name"] in RUNNER_SPAN.values()]
    bocpd = tr.named("refdet.bocpd")
    obs = sum(s["obs"] for s in bocpd)
    return {
        "cli.simulate_s": tr.total("cli.simulate"), "cli.grid_s": tr.total("cli.grid"),
        "cli.eval_s": tr.total("cli.eval"), "simulate.series_s": tr.total("simulate.series"),
        "standardize.offline_s": tr.total("standardize.offline"),
        "pnc.run_s": tr.total("pnc.run"),
        "refdet.bocpd.run_ms": 1e3 * tr.mean("refdet.bocpd"),
        "refdet.bocpd.us_per_obs": 1e6 * tr.total("refdet.bocpd") / obs if obs else 0.0,
        "refdet.bocpd.rl_cells": sum(s["cells"] for s in bocpd),
        "refdet.classic.run_ms": 1e3 * tr.mean("refdet.classic"),
        "refdet.ocd.run_ms": 1e3 * tr.mean("refdet.ocd"),
        "refdet.mosum.run_ms": 1e3 * tr.mean("refdet.mosum"),
        "refdet.baseline_s": tr.total("refdet.baseline"),
        "evaluate.run_grid_s": tr.total("evaluate.run_grid"),
        "evaluate.self_s": tr.self_time("evaluate.run_grid"),
        "evaluate.runs": len(runners),
        "io.write_s": tr.total("io.write"), "io.read_s": tr.total("io.read"),
        "trace.run_s": tr.total("job"),
    }


def check_demo(cfg: Path, out: Path, seed: int, errors: dict) -> None:
    import yaml
    import checks
    doc = yaml.safe_load(cfg.read_text())
    errors["simulate"] += checks.check_simulate(doc, out)
    rows = checks.read_metrics(out / "metrics.csv")
    errors["grid"] += checks.check_metrics(doc, out, rows)
    errors["grid"] += check_statistic_paths(cfg, seed)
    errors["eval"] += checks.check_eval(doc, rows, (out / "eval.txt").read_text())


def check_statistic_paths(cfg: Path, seed: int) -> list[str]:
    """Up to the first alarm, each detector's statistic on the first dataset
    is the same at its lowest and its highest threshold."""
    from predcomp.cli import build_dataset, prepare_series
    from predcomp.config import load_config
    from predcomp.pnc import PncConfig, run_stream
    from predcomp.predictors import fit_predictor
    from predcomp.refdet import (NigPrior, bocpd_detect, classic_cusum_detect, mosum_detect,
                                 ocd_detect)
    import checks
    doc = load_config(cfg)
    series = prepare_series(doc, build_dataset(doc["datasets"][0], seed))
    errs = []
    for det in doc["detectors"]:
        kind = det["kind"]
        key = checks.THRESHOLD_KEY[kind][0]
        p = dict(det.get("params", {}))
        p.update({k: v[0] for k, v in det.get("grid", {}).items() if k != key})
        paths = []
        for thr in (min(det["grid"][key]), max(det["grid"][key])):
            if kind == "pnc":
                pred = fit_predictor(det["predictor"], series.values[:doc["train_prefix"]])
                dets, st = run_stream(pred, PncConfig(p["l"], p["b"], thr, p["k"]), series,
                                      keep_trace=True)
                path = [(r.index, r.stat) for r in st.trace]
            elif kind == "cusum":
                dets, tr = classic_cusum_detect(series, thr, p["k"], p["window"], keep_trace=True)
                path = [(r[0], r[3]) for r in tr]
            elif kind == "bocpd":
                dets, info = bocpd_detect(series, p["hazard"], NigPrior(), p["r_min"], thr,
                                          keep_posterior=True)
                path = info["short_run_prob"]
            elif kind == "ocd":
                dets, tr = ocd_detect(series, thr, h_tail=p["h_tail"],
                                      baseline_window=p["baseline_window"], keep_trace=True)
                path = [(r[0], r[1]) for r in tr]
            else:
                dets, tr = mosum_detect(series, p["minHist"], p["histFact"], p["h"], thr,
                                        keep_trace=True)
                path = [(r[0], r[1]) for r in tr]
            paths.append((dets[0].detect_time if dets else len(series), path))
        first = min(paths[0][0], paths[1][0])
        a, b = ([pt for pt in path if pt[0] <= first] for _, path in paths)
        if a != b:
            errs.append(f"{det['id']}: statistic before the first alarm depends on {key}")
    return errs


# --------------------------------------------------------------------------
# long_stream

def feed(stream, values, push_ns=None) -> list:
    """Closed loop with one caller: each observation is pushed only after
    the previous decision returned."""
    dets = []
    if push_ns is None:
        for v in values:
            det = stream.push(v)
            if det is not None:
                dets.append(det)
        return dets
    clock = time.perf_counter_ns
    for v in values:
        t0 = clock()
        det = stream.push(v)
        push_ns.append(clock() - t0)
        if det is not None:
            dets.append(det)
    return dets


def long_stream_detectors(n: int) -> dict:
    """Reference detectors run once each on the scores: op -> (function, kwargs)."""
    return {"classic": ("classic_cusum_detect", {"threshold": THRESHOLD, "allowance": ALLOWANCE,
                                                 "target_window": 50}),
            "ocd": ("ocd_detect", {"diag": 16.0, "h_tail": 50, "baseline_window": 200}),
            "mosum": ("mosum_detect", {"min_hist": n // 16, "hist_fact": 0.5, "h_band": 0.25,
                                       "level": 0.05})}


def job_long_stream(inp, tracer, req, done: list):
    import numpy as np
    from predcomp import refdet
    from predcomp.pnc import PncConfig, PncStream
    from predcomp.predictors import fit_predictor
    from predcomp.standardize import standardize
    from tracing import TimedPredictor
    counts = inp["counts"]
    n = len(counts)
    push_ns = [] if tracer.enabled else None
    t = time.monotonic()
    with tracer.span("job"):
        with tracer.span("standardize.online"):
            std = standardize(counts, t0=0, mode="online")
        done.append("standardize")
        x = std.scores.values
        with tracer.span("predictors.fit"):
            pred = fit_predictor(AR_SPEC, x[:TRAIN_PREFIX])
        done.append("ar_fit")
        xs = x.tolist()
        streams, alarms = {}, {}
        for name, l, b in MONITORS:
            used = TimedPredictor(pred, tracer, "predictors.forecast") if tracer.enabled else pred
            streams[name] = PncStream(used, PncConfig(l, b, THRESHOLD, ALLOWANCE), name=name)
            with tracer.span(f"pnc.{name}"):
                alarms[name] = feed(streams[name], xs, push_ns)
            done.append(f"pnc_{name}")
        detectors, ref = long_stream_detectors(n), {}
        for op, (fn, kw) in detectors.items():
            with tracer.span(f"refdet.{op}"):
                ref[op], _ = getattr(refdet, fn)(std.scores, **kw)
            done.append(op)
    run_s = time.monotonic() - t
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    errors = {op: [] for op in OPS["long_stream"]}
    errors["standardize"] += checks.check_online_scores(counts.values, x, set(std.flagged))
    if getattr(pred, "kind", None) != "ar" or not np.all(np.isfinite(pred.coef)):
        errors["ar_fit"].append(f"AR fit gave {pred!r}")
    else:
        for name, l, b in MONITORS:
            want = checks.reference_pnc_ar(xs, pred.coef, pred.intercept, l, b, THRESHOLD,
                                           ALLOWANCE)
            got = [(d.detect_time, d.located_time) for d in alarms[name]]
            if got != want:
                errors[f"pnc_{name}"].append(f"alarms {got[:5]}... != reference {want[:5]}...")
    table = json.loads((ROOT / "src/predcomp/refdet/mosum_boundary.json").read_text())
    ocd, mosum = detectors["ocd"][1], detectors["mosum"][1]
    want = {"classic": checks.first_classic(xs, THRESHOLD, ALLOWANCE, 50),
            "ocd": checks.first_ocd(x, ocd["diag"], ocd["h_tail"], ocd["baseline_window"]),
            "mosum": checks.first_mosum(x, mosum["min_hist"], mosum["hist_fact"],
                                        mosum["h_band"], mosum["level"], table)}
    # the traced statistic comes from a second run with keep_trace, outside the timing
    picks = {"classic": lambda r: (r[0], r[3]), "ocd": lambda r: (r[0], r[1]),
             "mosum": lambda r: r}
    for op, (first, path) in want.items():
        got = checks.first_alarm(ref[op])
        if got != first:
            errors[op].append(f"first alarm {got} != recomputed {first}")
        fn, kw = detectors[op]
        _, trace = getattr(refdet, fn)(std.scores, keep_trace=True, **kw)
        errors[op] += checks.path_errors([picks[op](r) for r in trace], path)

    layers = {}
    if tracer.enabled:
        layers = long_stream_layers(tracer, streams, alarms, push_ns, n)
        # the same work on the first quarter of the stream, for the growth
        # ratios; these runs are short, so each is the median of three
        q = n // 4
        name, l, b = MONITORS[1]
        std_q, pnc_q = [], []
        for _ in range(3):
            t = time.perf_counter()
            standardize(counts.values[:q], t0=0, mode="online")
            std_q.append(time.perf_counter() - t)
            stream = PncStream(TimedPredictor(pred, tracer, "growth.forecast"),
                               PncConfig(l, b, THRESHOLD, ALLOWANCE))
            t = time.perf_counter()
            feed(stream, xs[:q], [])
            pnc_q.append(time.perf_counter() - t)
        std_q, pnc_q = sorted(std_q)[1], sorted(pnc_q)[1]
        layers["standardize.online_growth"] = (tracer.total("standardize.online") / n) / (std_q / q)
        layers["pnc.growth"] = (tracer.total("pnc.short_horizon") / n) / (pnc_q / q)
    return run_s, rss, errors, layers


def stream_anchors(alarms, l: int, b: int, n: int) -> int:
    """Window starts of a monitor: the hop grid of each segment between alarms."""
    count, origin = 0, 0
    for end in [d.detect_time + 1 for d in alarms] + [n]:
        count += len(range(origin + l, end, b))
        origin = end
    return count


def long_stream_layers(tr, streams, alarms, push_ns, n: int) -> dict:
    import numpy as np
    pushes = np.asarray(push_ns, dtype=float) / 1e3
    return {
        "standardize.online_s": tr.total("standardize.online"),
        "standardize.online_us_per_obs": 1e6 * tr.total("standardize.online") / n,
        "predictors.forecasts": tr.count("predictors.forecast"),
        "predictors.forecast_us": 1e6 * tr.mean("predictors.forecast"),
        "pnc.long_horizon.us_per_obs": 1e6 * tr.total("pnc.long_horizon") / n,
        "pnc.short_horizon.us_per_obs": 1e6 * tr.total("pnc.short_horizon") / n,
        "pnc.push_p50_us": float(np.percentile(pushes, 50)),
        "pnc.push_p999_us": float(np.percentile(pushes, 99.9)),
        "pnc.push_samples": len(pushes),
        "pnc.anchors": sum(stream_anchors(alarms[name], l, b, n) for name, l, b in MONITORS),
        "pnc.skipped_windows": sum(len(s.diagnostics.skipped_windows) for s in streams.values()),
        "refdet.classic.run_ms": 1e3 * tr.total("refdet.classic"),
        "refdet.ocd.run_ms": 1e3 * tr.total("refdet.ocd"),
        "refdet.mosum.run_ms": 1e3 * tr.total("refdet.mosum"),
        "trace.run_s": tr.total("job"),
    }


# --------------------------------------------------------------------------
# model_fit

AUTO_ORDERS_CHECKED = ((1, 0, 0), (2, 0, 1), (0, 1, 1))
FIXED_ORDER = (2, 0, 1)


def job_model_fit(inp, tracer, req, done: list):
    import predcomp.predictors as predictors
    from predcomp import lstm
    from predcomp.pnc import PncConfig, run_stream
    from tracing import TimedPredictor, patched
    small = req["size"] == "small"
    series, prefix, lcfg = inp["series"], inp["prefix"], inp["lstm"]
    css_calls = [0]
    css = predictors.css_innovations

    def counted_css(*args):
        css_calls[0] += 1
        return css(*args)

    def traced(pred, span):
        return TimedPredictor(pred, tracer, span) if tracer.enabled else pred

    # the small size searches p <= 2, d <= 1, q <= 1, which still holds the checked orders
    grid = {"MAX_P": 2, "MAX_D": 1, "MAX_Q": 1} if small else {}
    if tracer.enabled:
        grid["css_innovations"] = counted_css
    epochs = 8 if small else int(lcfg["epochs"])
    runs = {}
    t = time.monotonic()
    with tracer.span("job"):
        with tracer.span("predictors.arima_auto_fit"), patched(predictors, grid):
            auto = predictors.fit_predictor({"kind": "arima", "auto": True}, prefix)
        done.append("arima_auto")
        with tracer.span("lstm.train"):
            X, Y = lstm.training_windows(prefix, int(lcfg["nh"]), int(lcfg["nz"]),
                                         int(lcfg["max_windows"]))
            trained = lstm.train_lstm(X, Y, lstm.TrainConfig(
                hidden=int(lcfg["hidden"]), epochs=epochs, batch_size=int(lcfg["batch_size"]),
                learning_rate=float(lcfg["learning_rate"]), seed=req["seed"]))
        done.append("lstm_train")

        def pnc(op, pred, cfg):
            with tracer.span("pnc.run"):
                runs[op] = run_stream(pred, cfg, series, name=op, keep_trace=True) + (cfg,)
            done.append(op)

        pnc("pnc_arima", traced(auto, "predictors.forecast"),
            PncConfig(200, 50, THRESHOLD, ALLOWANCE))
        pnc("pnc_lstm", traced(lstm.LstmPredictor(trained.net), "lstm.forecast"),
            PncConfig(int(lcfg["nh"]), int(lcfg["nz"]), THRESHOLD, ALLOWANCE))
        with tracer.span("predictors.fit"):
            fixed = predictors.fit_predictor({"kind": "arima", "order": FIXED_ORDER}, prefix)
        done.append("arima_fixed")
        pnc("pnc_refit", traced(fixed, "predictors.forecast"),
            PncConfig(200, 50, THRESHOLD, ALLOWANCE, refit="on_detection"))
    run_s = time.monotonic() - t
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    errors = {op: [] for op in OPS["model_fit"]}
    for op, model in (("arima_auto", auto), ("arima_fixed", fixed)):
        if getattr(model, "kind", None) != "arima":
            errors[op].append(f"fit gave {model!r}")
            continue
        sigma2, aicc = checks.innovation_stats(prefix, model.p, model.d, model.q,
                                               list(model.phi), list(model.theta),
                                               model.intercept)
        if not (checks.close(sigma2, model.sigma2) and checks.close(aicc, model.aicc)):
            errors[op].append(f"sigma2/AICc {model.sigma2!r}/{model.aicc!r} != "
                              f"recomputed {sigma2!r}/{aicc!r}")
    if getattr(auto, "kind", None) == "arima":
        for order in AUTO_ORDERS_CHECKED:
            other = predictors.fit_predictor({"kind": "arima", "order": list(order)}, prefix)
            if auto.aicc > other.aicc + 1e-9 * max(1.0, abs(other.aicc)):
                errors["arima_auto"].append(f"auto AICc {auto.aicc} above {order}'s {other.aicc}")
    if not trained.train_loss[-1] < trained.train_loss[0]:
        errors["lstm_train"].append(f"final loss {trained.train_loss[-1]} not below "
                                    f"first {trained.train_loss[0]}")
    for op, (dets, stream, cfg) in runs.items():
        rows = [(r.index, r.value, r.target) for r in stream.trace]
        want = checks.cusum_from_rows(rows, cfg.threshold, cfg.allowance)
        got = [(d.detect_time, d.located_time) for d in dets]
        if got != want:
            errors[op].append(f"alarms {got} != CUSUM over the trace {want}")

    layers = {}
    if tracer.enabled:
        refits = runs["pnc_refit"][1].diagnostics.refits
        n_windows = len(X)
        layers = {
            "predictors.arima_auto_fit_s": tracer.total("predictors.arima_auto_fit"),
            "predictors.arima_auto_css_evals": css_calls[0],
            "predictors.forecasts": tracer.count("predictors.forecast"),
            "predictors.forecast_us": 1e6 * tracer.mean("predictors.forecast"),
            "lstm.train_s": tracer.total("lstm.train"),
            "lstm.train_us_per_window_epoch": 1e6 * tracer.total("lstm.train") / (n_windows
                                                                                  * epochs),
            "lstm.forecast_us": 1e6 * tracer.mean("lstm.forecast"),
            "pnc.refits_tried": len(refits),
            "pnc.refits_done": sum(ok for _, ok in refits),
            "pnc.refit_s": tracer.total("pnc.refit"),
            "pnc.skipped_windows": sum(len(r[1].diagnostics.skipped_windows)
                                       for r in runs.values()),
            "trace.run_s": tracer.total("job"),
        }
    return run_s, rss, errors, layers


JOBS = {"demo_grid": job_demo_grid, "long_stream": job_long_stream, "model_fit": job_model_fit}


def main() -> None:
    req = json.loads(sys.argv[1])
    inputs, setup_t = setup(req)
    result = {"setup": setup_t}
    if req["mode"] != "setup":
        from tracing import Tracer
        tracer = Tracer(f"{req['workload']}-{req['seed']}", enabled=req["mode"] == "traced")
        done: list[str] = []
        try:
            run_s, rss, errors, layers = JOBS[req["workload"]](inputs, tracer, req, done)
        except Exception as exc:  # an operation raised: it and every later one failed
            if len(done) == len(OPS[req["workload"]]):
                raise  # the checks themselves failed
            msg = f"raised {type(exc).__name__}: {exc}"
            errors = {op: ([] if op in done else [msg]) for op in OPS[req["workload"]]}
            run_s, rss, layers = None, None, {}
        result.update(run_s=run_s, peak_rss_mb=rss, errors=errors, done=done, layers=layers,
                      spans=tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Command line interface.

Subcommands: simulate, standardize, detect, train-lstm, grid, eval,
report.  Exit codes: 0 success, 1 usage error, 2 config or data error,
3 internal error.  Every command is a pure function of its inputs plus
the seed, so re-running with the same config produces identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import lstm as lstm_mod
from .config import ConfigError, check_t0, load_config
from .detectors import KINDS
from .evaluate import (DetectorGrid, EvalRecord, average_max_fpc, find_target, params_id,
                       render_report, run_grid, select_best)
from .io import (DataError, read_labels_csv, read_metrics_csv as _read_metrics, read_series_csv,
                 save_model, time_field, write_detections_csv, write_loss_csv, write_manifest,
                 write_metrics_csv, write_series_csv, write_text, write_trace_csv, write_trace_svg)
from .refdet.baseline import random_baseline
from .series import LabeledSeries
from .simulate import WearIntensity, sample_step_series, sample_wear_series
from .standardize import standardize


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2; we use 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config-driven builders

def build_dataset(ds_cfg: dict, seed: int) -> LabeledSeries:
    src = ds_cfg["source"]
    kind = src["kind"]
    if kind == "wear":
        intensity = WearIntensity(**{k: src[k] for k in ("a", "lam", "c", "d", "t2", "decay_cutoff")
                                     if k in src})
        return sample_wear_series(intensity, int(src["n"]), seed,
                                  stream=ds_cfg["id"], name=ds_cfg["id"],
                                  scale=float(src.get("scale", 1.0)))
    if kind == "step":
        return sample_step_series(src.get("pre_mean", 0.0), src.get("post_mean", 1.0),
                                  src.get("sigma", 1.0), int(src.get("cp_at", 1)),
                                  int(src["n"]), seed, stream=ds_cfg["id"], name=ds_cfg["id"])
    series = read_series_csv(src["path"], name=ds_cfg["id"])
    if src.get("labels"):
        series = LabeledSeries(series.values, read_labels_csv(src["labels"]), name=ds_cfg["id"])
    return series


def prepare_series(doc: dict, series: LabeledSeries) -> LabeledSeries:
    std = doc.get("standardize")
    if not std or not std.get("enabled", False):
        return series
    res = standardize(series, t0=std.get("t0", 0), mode=std.get("mode", "offline"))
    return res.scores


def build_detector(det_cfg: dict, doc: dict) -> DetectorGrid:
    run = KINDS[det_cfg["kind"]].build(det_cfg, doc)
    return DetectorGrid(det_cfg["id"], lambda series, **params: run(series, params)[0],
                        dict(det_cfg.get("grid", {})))


def _fixed_params(det_cfg: dict, overrides: list[str] | None = None) -> dict:
    """Single parameter point for `detect`.

    Grid lists must be singletons unless pinned with --set key=value.
    """
    import yaml as _yaml
    pinned = {}
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {item!r}")
        pinned[key] = _yaml.safe_load(raw)
    grid = det_cfg.get("grid", {})
    for key, vals in grid.items():
        if len(vals) != 1 and key not in pinned:
            raise ConfigError(f"detector {det_cfg['id']!r}: `detect` needs a single value "
                              f"for {key}, got {len(vals)}; pin it with --set {key}=...")
    return {**det_cfg.get("params", {}), **{k: v[0] for k, v in grid.items()}, **pinned}


def _entry(doc: dict, section: str, entry_id: str) -> dict:
    """The entry of ``datasets`` or ``detectors`` with this id."""
    for entry in doc.get(section, []):
        if entry["id"] == entry_id:
            return entry
    raise UsageError(f"unknown {section[:-1]} id {entry_id!r}")


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    doc = load_config(args.config)
    out = Path(args.out or doc["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for ds in doc.get("datasets", []):
        if args.only and ds["id"] != args.only:
            continue
        series = build_dataset(ds, doc["seed"])
        path = out / f"{ds['id']}.csv"
        write_series_csv(path, series)
        written.append((ds, series))
        print(f"wrote {path} ({len(series)} rows)")
    write_manifest(out / "manifest.json", doc["seed"], written)
    return 0


def cmd_standardize(args) -> int:
    t0 = check_t0(args.t0, "--t0")
    series = read_series_csv(args.input)
    res = standardize(series, t0=t0, mode=args.mode)
    write_series_csv(args.output, res.scores)
    fit = res.fit
    print(f"wrote {args.output}; flagged {len(res.flagged)} of {len(series)} scores"
          + (f"; nu_hat={fit.nu:.6f} slope={fit.slope:.6f}" if fit else "; trend not estimable"))
    return 0


def cmd_detect(args) -> int:
    doc = load_config(args.config)
    series = prepare_series(doc, build_dataset(_entry(doc, "datasets", args.dataset), doc["seed"]))
    det_cfg = _entry(doc, "detectors", args.detector)
    params = _fixed_params(det_cfg, args.set)
    run = KINDS[det_cfg["kind"]].build(dict(det_cfg, params=params, grid={}), doc)
    detections, trace = run(series, params, bool(args.trace or args.svg))
    if trace is None and (args.trace or args.svg):
        raise UsageError(f"--trace/--svg: {det_cfg['kind']} detectors have no chart trace")
    rows = [(series.name, det_cfg["id"], params_id(params), d) for d in detections]
    out = args.out or f"{det_cfg['id']}_{series.name}_detections.csv"
    write_detections_csv(out, rows)
    print(f"{len(detections)} detection(s); wrote {out}")
    for _, _, _, d in rows:
        loc = "" if d.located_time is None else f" located={time_field(d.located_time)}"
        print(f"  t={time_field(d.detect_time)}{loc}")
    if args.trace:
        write_trace_csv(args.trace, trace)
        print(f"wrote trace {args.trace}")
    if args.svg:
        write_trace_svg(args.svg, trace)
        print(f"wrote {args.svg}")
    return 0


def cmd_train_lstm(args) -> int:
    doc = load_config(args.config)
    if "lstm" not in doc:
        raise ConfigError("config lacks an lstm section")
    lcfg = doc["lstm"]
    series = prepare_series(doc, build_dataset(_entry(doc, "datasets", args.dataset), doc["seed"]))
    prefix = series.values[:min(int(doc["train_prefix"]), len(series))]
    X, Y = lstm_mod.training_windows(prefix, int(lcfg["nh"]), int(lcfg["nz"]),
                                     int(lcfg.get("max_windows", 500)))
    # each setting of the section, typed as its TrainConfig default
    train = {key: type(getattr(lstm_mod.TrainConfig, key))(lcfg[key]) for key in
             ("hidden", "epochs", "batch_size", "learning_rate", "clip_norm",
              "validation_fraction") if key in lcfg}
    cfg = lstm_mod.TrainConfig(seed=doc["seed"], **train)
    result = lstm_mod.train_lstm(X, Y, cfg)
    save_model(args.out, result.net.to_dict())
    if args.loss:
        write_loss_csv(args.loss, result.train_loss, result.val_loss)
    print(f"trained on {len(X)} windows; final train loss {result.train_loss[-1]:.6g}; "
          f"wrote {args.out}")
    return 0


def cmd_grid(args) -> int:
    doc = load_config(args.config)
    datasets = [prepare_series(doc, build_dataset(ds, doc["seed"]))
                for ds in doc.get("datasets", [])]
    detectors = [build_detector(det, doc) for det in doc.get("detectors", [])]
    if not datasets or not detectors:
        raise ConfigError("grid needs at least one dataset and one detector")
    target_key = doc.get("evaluation", {}).get("target", "K>A")
    records = run_grid(datasets, detectors, target_key=target_key)
    out = Path(args.out or doc["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out / "metrics.csv", records)
    print(f"wrote {out / 'metrics.csv'} ({len(records)} runs)")
    return 0


def cmd_eval(args) -> int:
    doc = load_config(args.config)
    records = _read_metrics(args.metrics)
    ev = doc.get("evaluation", {})
    lines = []
    for scope, cap_key in (("per_dataset", "fpc_cap"), ("overall", "overall_cap")):
        winners = select_best(records, scope=scope, fpc_cap=ev.get(cap_key))
        lines.append(render_report(winners, title=f"{scope} winners"))
    subset = ev.get("subset") or []
    if subset:
        winners = select_best(records, scope="subset", fpc_cap=ev.get("subset_cap"),
                              datasets=subset)
        lines.append(render_report(winners, title=f"subset winners ({', '.join(subset)})"))
    base_cfg = ev.get("baseline")
    if base_cfg:
        lines.append(_baseline_section(doc, records, base_cfg))
    return _emit(args.out, "\n".join(lines))


def _baseline_section(doc: dict, records: list[EvalRecord], base_cfg: dict) -> str:
    target_key = doc.get("evaluation", {}).get("target", "K>A")
    reps = int(base_cfg.get("repetitions", 100))
    budgets = base_cfg.get("n_fp", [0])
    out = ["random baseline", "===============", ""]
    for ds_cfg in doc.get("datasets", []):
        series = prepare_series(doc, build_dataset(ds_cfg, doc["seed"]))
        target = find_target(series, target_key)
        if target is None:
            continue
        for budget in budgets:
            n_fp = int(round(average_max_fpc([r for r in records if r.dataset_id == series.name]))) \
                if budget == "avg_max" else int(budget)
            res = random_baseline(series, target, n_fp, repetitions=reps, seed=doc["seed"])
            label = f"avg_max={n_fp}" if budget == "avg_max" else str(n_fp)
            out.append(f"{series.name:<12} n_fp={label:<12} fpc={res.fpc_mean:>7.2f} "
                       f"arlp={res.arlp_mean:>8.2f}")
    return "\n".join(out) + "\n"


def cmd_report(args) -> int:
    records = _read_metrics(args.metrics)
    scope = args.scope
    kwargs = {}
    if scope == "subset":
        if not args.datasets:
            raise UsageError("report --scope subset needs --datasets")
        kwargs["datasets"] = args.datasets.split(",")
    winners = select_best(records, scope=scope, fpc_cap=args.cap,
                          reversed_rule=args.reversed, **kwargs)
    return _emit(args.out, render_report(winners, title=f"{scope} winners"
                                         + (" (reversed rule)" if args.reversed else "")))


def _emit(out, text: str) -> int:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        write_text(out, text)
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="predcomp",
                description="Streaming change point detection with predictive monitoring.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate the configured datasets as CSV")
    sp.add_argument("-c", "--config", required=True)
    sp.add_argument("--only", help="only this dataset id")
    sp.add_argument("--out", help="output directory (default: config output_dir)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("standardize", help="standardize a series CSV")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--t0", type=int, default=0)
    sp.add_argument("--mode", choices=["offline", "online"], default="offline")
    sp.set_defaults(func=cmd_standardize)

    sp = sub.add_parser("detect", help="run one detector on one dataset")
    sp.add_argument("-c", "--config", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--detector", required=True)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="pin one grid parameter (repeatable)")
    sp.add_argument("--out", help="detections CSV path")
    sp.add_argument("--trace", help="write the chart trajectory CSV here")
    sp.add_argument("--svg", help="write a minimal SVG of the chart here")
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("train-lstm", help="train the LSTM predictor on a dataset prefix")
    sp.add_argument("-c", "--config", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True, help="model JSON path")
    sp.add_argument("--loss", help="loss history CSV path")
    sp.set_defaults(func=cmd_train_lstm)

    sp = sub.add_parser("grid", help="run the full detector x dataset grid")
    sp.add_argument("-c", "--config", required=True)
    sp.add_argument("--out", help="output directory (default: config output_dir)")
    sp.set_defaults(func=cmd_grid)

    sp = sub.add_parser("eval", help="winners and random baseline from metrics.csv")
    sp.add_argument("-c", "--config", required=True)
    sp.add_argument("--metrics", required=True)
    sp.add_argument("--out", help="write the evaluation text here (default: stdout)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("report", help="render a winners table from metrics.csv")
    sp.add_argument("--metrics", required=True)
    sp.add_argument("--scope", choices=["per_dataset", "overall", "subset"],
                    default="per_dataset")
    sp.add_argument("--cap", type=float, default=None, help="Fpc cap override")
    sp.add_argument("--datasets", help="comma-separated ids for subset scope")
    sp.add_argument("--reversed", action="store_true",
                    help="rank by ArlP first, then Fpc")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

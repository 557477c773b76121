"""Command line interface.

Subcommands: simulate, standardize, detect, train-lstm, grid, eval,
report.  Exit codes: 0 success, 1 usage error, 2 config or data error,
3 internal error.  Every command is a pure function of its inputs plus
the seed, so re-running with the same config produces identical bytes.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from . import lstm as lstm_mod
from .config import (EVALUATION, SOURCES, STANDARDIZE, TRAIN, ConfigError, check_detector,
                     kind_of, load_config, run_unit, typed)
from .evaluate import (DetectorGrid, EvalRecord, average_max_fpc, find_target, params_id,
                       render_report, run_grid, select_best)
from .io import (DataError, check_output, make_dir, read_metrics_csv as _read_metrics,
                 read_series_csv, time_field, write_detections_csv, write_loss_csv, write_lstm,
                 write_manifest, write_metrics_csv, write_series_csv, write_text, write_trace_csv,
                 write_trace_svg)
from .predictors import PredictorError
from .refdet.baseline import random_baseline
from .series import LabeledSeries
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
    kind, src = kind_of(ds_cfg["source"], SOURCES, f"dataset {ds_cfg['id']!r}: source")
    return SOURCES[kind].build(src, ds_cfg["id"], seed)


def prepare_series(doc: dict, series: LabeledSeries) -> LabeledSeries:
    std = doc["standardize"]
    return standardize(series, t0=std["t0"], mode=std["mode"]).scores if std["enabled"] else series


def build_detector(det_cfg: dict, doc: dict) -> DetectorGrid:
    return DetectorGrid(det_cfg["id"], grid=dict(det_cfg["grid"]), unit=lambda series, points: [
        detections for detections, _ in run_unit(det_cfg, doc, series, points)])


def _fixed_params(det_cfg: dict, overrides: list[str] | None = None) -> dict:
    """Single parameter point for `detect`.

    Grid lists must be singletons unless pinned with --set key=value.
    """
    pinned = {}
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {item!r}")
        pinned[key] = yaml.safe_load(raw)
    grid = det_cfg["grid"]
    for key, vals in grid.items():
        if len(vals) != 1 and key not in pinned:
            raise ConfigError(f"detector {det_cfg['id']!r}: `detect` needs a single value "
                              f"for {key}, got {len(vals)}; pin it with --set {key}=...")
    return {**det_cfg["params"], **{k: v[0] for k, v in grid.items()}, **pinned}


def _entry(doc: dict, section: str, entry_id: str) -> dict:
    """The entry of ``datasets`` or ``detectors`` whose id is ``entry_id``."""
    for entry in doc[section]:
        if entry["id"] == entry_id:
            return entry
    raise UsageError(f"unknown {section[:-1]} id {entry_id!r}")


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    doc = load_config(args.config)
    datasets = [_entry(doc, "datasets", args.only)] if args.only else doc["datasets"]
    check_output(args.out or doc["output_dir"], directory=True)
    # every series is built before the directory is made, so a bad source writes nothing
    written = [(ds, build_dataset(ds, doc["seed"])) for ds in datasets]
    out = make_dir(args.out or doc["output_dir"])
    for ds, series in written:
        path = out / f"{ds['id']}.csv"
        write_series_csv(path, series)
        print(f"wrote {path} ({len(series)} rows)")
    write_manifest(out / "manifest.json", doc["seed"], written)
    return 0


def cmd_standardize(args) -> int:
    t0 = typed({"--t0": args.t0}, {"--t0": STANDARDIZE["t0"]}, "", "")["--t0"]
    check_output(args.output)
    series = read_series_csv(args.input)
    res = standardize(series, t0=t0, mode=args.mode)
    write_series_csv(args.output, res.scores)
    fit = res.fit
    print(f"wrote {args.output}; flagged {len(res.flagged)} of {len(series)} scores"
          + (f"; nu_hat={fit.nu:.6f} slope={fit.slope:.6f}" if fit else "; trend not estimable"))
    return 0


def cmd_detect(args) -> int:
    doc = load_config(args.config)
    ds_cfg = _entry(doc, "datasets", args.dataset)
    det_cfg = _entry(doc, "detectors", args.detector)
    out = args.out or f"{det_cfg['id']}_{ds_cfg['id']}_detections.csv"
    check_output(out, args.trace, args.svg)
    if (args.trace or args.svg) and det_cfg["kind"] != "pnc":
        raise UsageError(f"--trace/--svg: {det_cfg['kind']} detectors have no chart trace")
    params = _fixed_params(det_cfg, args.set)
    pinned = dict(det_cfg, params=params, grid={})
    check_detector(pinned, f"detector {det_cfg['id']!r}")  # before the dataset is built
    series = prepare_series(doc, build_dataset(ds_cfg, doc["seed"]))
    ((detections, trace),) = run_unit(pinned, doc, series, [params], bool(args.trace or args.svg))
    if args.svg and not trace:  # refused before anything is written
        raise DataError(f"--svg: detector {det_cfg['id']!r} charted no step (empty trace)")
    rows = [(series.name, det_cfg["id"], params_id(params), d) for d in detections]
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
    check_output(args.out, args.loss)
    doc = load_config(args.config)
    lcfg = doc["lstm"]
    if lcfg is None:
        raise ConfigError("config lacks an lstm section")
    series = prepare_series(doc, build_dataset(_entry(doc, "datasets", args.dataset), doc["seed"]))
    X, Y = lstm_mod.training_windows(series.values[:doc["train_prefix"]], lcfg["nh"], lcfg["nz"],
                                     lcfg["max_windows"])
    result = lstm_mod.train_lstm(X, Y, lstm_mod.TrainConfig(
        seed=doc["seed"], **{key: lcfg[key] for key in TRAIN}))
    write_lstm(args.out, result.net)
    if args.loss:
        write_loss_csv(args.loss, result.train_loss, result.val_loss)
    print(f"trained on {len(X)} windows; final train loss {result.train_loss[-1]:.6g}; "
          f"wrote {args.out}")
    return 0


def cmd_grid(args) -> int:
    doc = load_config(args.config)
    if not doc["datasets"] or not doc["detectors"]:
        raise ConfigError("grid needs at least one dataset and one detector")
    check_output(args.out or doc["output_dir"], directory=True)
    target = doc["evaluation"]["target"]
    datasets = [prepare_series(doc, build_dataset(ds, doc["seed"])) for ds in doc["datasets"]]
    for series in datasets:
        if find_target(series, target) is None:
            raise ConfigError(f"dataset {series.name!r} has no {target} label (evaluation.target)")
    detectors = [build_detector(det, doc) for det in doc["detectors"]]
    records = run_grid(datasets, detectors, target_key=target)
    out = make_dir(args.out or doc["output_dir"])
    write_metrics_csv(out / "metrics.csv", records)
    print(f"wrote {out / 'metrics.csv'} ({len(records)} runs)")
    return 0


def cmd_eval(args) -> int:
    check_output(args.out)
    doc = load_config(args.config)
    records = _read_metrics(args.metrics)
    ev = doc["evaluation"]
    lines = []
    for scope, cap_key in (("per_dataset", "fpc_cap"), ("overall", "overall_cap")):
        winners = select_best(records, scope=scope, fpc_cap=ev[cap_key])
        lines.append(render_report(winners, title=f"{scope} winners"))
    if ev["subset"]:
        winners = select_best(records, scope="subset", fpc_cap=ev["subset_cap"],
                              datasets=ev["subset"])
        lines.append(render_report(winners, title=f"subset winners ({', '.join(ev['subset'])})"))
    if ev["baseline"] is not None:
        lines.append(_baseline_section(doc, records, ev["baseline"], args.metrics))
    return _emit(args.out, "\n".join(lines))


def _baseline_section(doc: dict, records: list[EvalRecord], base_cfg: dict, metrics) -> str:
    out = ["random baseline", "===============", ""]
    for ds_cfg in doc["datasets"]:
        series = build_dataset(ds_cfg, doc["seed"])  # standardizing keeps labels and length
        target = find_target(series, doc["evaluation"]["target"])
        if target is None:
            continue
        own = [r for r in records if r.dataset_id == series.name]
        if not own and "avg_max" in base_cfg["n_fp"]:
            raise DataError(f"{metrics}: no rows for dataset {series.name!r}, whose avg_max "
                            "baseline budget reads them")
        for budget in base_cfg["n_fp"]:
            n_fp = int(round(average_max_fpc(own))) if budget == "avg_max" else budget
            res = random_baseline(series, target, n_fp, repetitions=base_cfg["repetitions"],
                                  seed=doc["seed"])
            label = f"avg_max={n_fp}" if budget == "avg_max" else str(n_fp)
            out.append(f"{series.name:<12} n_fp={label:<12} fpc={res.fpc_mean:>7.2f} "
                       f"arlp={res.arlp_mean:>8.2f}")
    return "\n".join(out) + "\n"


def cmd_report(args) -> int:
    cap = typed({"--cap": args.cap}, {"--cap": EVALUATION["fpc_cap"]}, "", "")["--cap"]
    scope = args.scope
    if scope != "subset" and args.datasets is not None:
        raise UsageError(f"report --datasets is for --scope subset, not {scope}")
    if scope == "subset" and not args.datasets:
        raise UsageError("report --scope subset needs --datasets")
    check_output(args.out)
    records = _read_metrics(args.metrics)
    datasets = args.datasets.split(",") if args.datasets else None
    for ds in datasets or []:
        if ds not in {r.dataset_id for r in records}:
            raise UsageError(f"unknown dataset id {ds!r} in --datasets")
    winners = select_best(records, scope=scope, fpc_cap=cap, datasets=datasets,
                          reversed_rule=args.reversed)
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
    cfg = argparse.ArgumentParser(add_help=False)
    cfg.add_argument("-c", "--config", required=True)

    sp = sub.add_parser("simulate", parents=[cfg], help="generate the configured datasets as CSV")
    sp.add_argument("--only", help="only this dataset id")
    sp.add_argument("--out", help="output directory (default: config output_dir)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("standardize", help="standardize a series CSV")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--t0", type=int, default=STANDARDIZE["t0"][1])
    sp.add_argument("--mode", choices=["offline", "online"], default=STANDARDIZE["mode"][1])
    sp.set_defaults(func=cmd_standardize)

    sp = sub.add_parser("detect", parents=[cfg], help="run one detector on one dataset")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--detector", required=True)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="pin one grid parameter (repeatable)")
    sp.add_argument("--out", help="detections CSV path")
    sp.add_argument("--trace", help="write the chart trajectory CSV here")
    sp.add_argument("--svg", help="write a minimal SVG of the chart here")
    sp.set_defaults(func=cmd_detect)

    sp = sub.add_parser("train-lstm", parents=[cfg],
                        help="train the LSTM predictor on a dataset prefix")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True, help="model JSON path")
    sp.add_argument("--loss", help="loss history CSV path")
    sp.set_defaults(func=cmd_train_lstm)

    sp = sub.add_parser("grid", parents=[cfg], help="run the full detector x dataset grid")
    sp.add_argument("--out", help="output directory (default: config output_dir)")
    sp.set_defaults(func=cmd_grid)

    sp = sub.add_parser("eval", parents=[cfg], help="winners and random baseline from metrics.csv")
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
    except (ConfigError, DataError, PredictorError) as exc:  # a model that cannot be fitted
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

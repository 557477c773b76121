"""Benchmark of predcomp: offline grid, long online stream, model fitting.

    python3 bench/run.py --workload {demo_grid,long_stream,model_fit} \
        --seed N --seconds S --trace {0,1} [--small]

Run from the root of a checkout.  Every job runs in a fresh interpreter
(``bench/worker.py``), so set-up is timed from a cold start.  A run makes
whole rounds of the job, each set up, run and checked in its own process
on inputs made from (seed, round): at least ``ROUNDS[workload]`` of them,
and more while fewer than ``--seconds`` have passed.  Extra set-up-only
processes bring the set-up samples to ``SETUP_SAMPLES``.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json as
medians over those samples; with ``--trace 1`` it runs one traced round
and reports the per-layer metrics, writing the spans to
``bench/.work/<workload>/trace_<seed>.json``.  ``--small`` shrinks every
input so that the checks run in seconds; its numbers are not benchmark
numbers.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("demo_grid", "long_stream", "model_fit")
#: job rounds per run: two rounds on two inputs halve the variance that the
#: seed (BOCPD alarms, stream content) and the machine's swings within
#: seconds add to one job
ROUNDS = {"demo_grid": 2, "long_stream": 2, "model_fit": 2}
#: cold set-ups per run, counting the one every round makes
SETUP_SAMPLES = 2
#: a run must end within this many seconds of starting
RUN_LIMIT = 170.0


def spawn(req: dict, deadline: float) -> dict:
    """Run one worker in its own process group; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    req = dict(req, deadline=deadline, spawned=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(req)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {req['workload']} ran past the run's time limit")
    finally:
        # on a timeout or a SIGTERM, stop the worker and the CLI processes it started
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"worker for {req['workload']} failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def round_seed(seed: int, r: int) -> int:
    return seed * 100 + r


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="small inputs: exercise the checks in seconds")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    missing = [p for p in ("src/predcomp/cli.py", "configs/demo.yaml", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a predcomp checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.monotonic()
    deadline = start + RUN_LIMIT
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = {"workload": args.workload, "work": str(work),
            "size": "small" if args.small else "full"}
    once = args.trace or args.small
    extra = 0 if args.small else max(SETUP_SAMPLES - (1 if once else ROUNDS[args.workload]), 0)
    setups = [spawn(dict(base, seed=round_seed(args.seed, 0), mode="setup"), deadline)["setup"]
              for _ in range(extra)]
    rounds = []
    measure_from = time.monotonic()
    while True:
        t = time.monotonic()
        rounds.append(spawn(dict(base, seed=round_seed(args.seed, len(rounds)),
                                 mode="traced" if args.trace else "job"), deadline))
        setups.append(rounds[-1]["setup"])
        took = time.monotonic() - t
        if once or time.monotonic() + took > deadline - 10:
            break
        if (len(rounds) >= ROUNDS[args.workload]
                and time.monotonic() - measure_from >= args.seconds):
            break

    attempted = failed = 0
    correct = True
    for i, r in enumerate(rounds):
        attempted += len(r["errors"])
        for op, errs in r["errors"].items():
            if errs:
                failed += 1
                correct = correct and op not in r["done"]
                print(f"round {i}: {op} failed: {'; '.join(errs)}")
    done = [r for r in rounds if r["run_s"] is not None]
    if not done:
        print("no round ran to its end", file=sys.stderr)
        return 1

    def med(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        layers = dict(done[0]["layers"], **{
            "cli.import_s": med("import_s"), "cli.scipy_import_s": med("scipy_import_s")})
        if args.workload != "demo_grid":
            layers["simulate.series_s"] = med("simulate_s")
        # a layer that does not run on this workload reads 0
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        (work / f"trace_{args.seed}.json").write_text(json.dumps(done[0]["spans"]))
    else:
        values = {"setup_s": med("setup_s"),
                  "run_s": statistics.median(r["run_s"] for r in done),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in done)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s), {len(setups)} set-up(s), "
          f"{time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

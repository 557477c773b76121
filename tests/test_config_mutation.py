"""Every one-leaf change to a small config exits 0, 1 or 2, and a run that
fails writes nothing.

``SMALL`` is the demo config on two 400-point datasets, with one value per
grid list, so that ``detect`` takes each detector as it stands.  A leaf is a
value reached through mappings and non-empty lists; ``mutations`` sets each
leaf in turn to each of ``VALUES``.  A fixed seeded sample of these runs
through ``detect`` and a few through ``grid``, in-process, each in a
directory of its own that holds only its config.  The pnc ``l`` and ``b`` at
1e308 and 10**30 are always in the sample: they are above numpy's dimension
limit, so a run that allocated a window of that size would exit 3.
"""

from __future__ import annotations

import copy
import math

import pytest
import yaml

from predcomp.cli import main
from predcomp.config import _Loader
from predcomp.seeding import spawn_rng

SMALL = {
    "schema_version": 1, "seed": 0, "output_dir": "out", "train_prefix": 200,
    "standardize": {"enabled": True, "t0": 0, "mode": "offline"},
    "datasets": [
        {"id": "mild", "source": {"kind": "wear", "a": 120.0, "lam": 0.02, "c": 3.0, "d": 0.02,
                                  "t2": 250, "n": 400}},
        {"id": "noisy", "source": {"kind": "wear", "a": 100.0, "lam": 0.015, "c": 6.0, "d": 0.03,
                                   "t2": 220, "n": 400, "scale": 2.0}},
    ],
    "detectors": [
        {"id": "pnc_ar", "kind": "pnc", "predictor": {"kind": "ar", "p": 5},
         "params": {"l": 100, "b": 25, "k": 0.5}, "grid": {"desInt": [10.0]}},
        {"id": "cusum", "kind": "cusum", "params": {"k": 0.5, "window": 50},
         "grid": {"desInt": [10.0]}},
        {"id": "bocpd", "kind": "bocpd", "params": {"hazard": 0.005, "r_min": 5},
         "grid": {"cpthreshold": [0.5]}},
        {"id": "ocd", "kind": "ocd", "params": {"baseline_window": 100, "h_tail": 50},
         "grid": {"diag": [16.0]}},
        {"id": "mosum", "kind": "mosum", "params": {"minHist": 100, "histFact": 0.5},
         "grid": {"h": [0.25], "level": [0.05]}},
    ],
    "evaluation": {"target": "K>A", "fpc_cap": 10, "overall_cap": 150, "subset": ["mild"],
                   "subset_cap": 30, "baseline": {"n_fp": [0, 10, "avg_max"], "repetitions": 20}},
    "lstm": {"nh": 24, "nz": 6, "hidden": 16, "epochs": 80, "batch_size": 32,
             "learning_rate": 0.01, "max_windows": 400},
}
VALUES = [None, -1, 0, 1, 2, 0.5, -0.5, 1e308, math.inf, math.nan, 10**30, 1e-320, "x", "",
          "1e3", [], [1], [0.5, 0.5], {}, True]
HUGE_WINDOWS = [(("detectors", 0, "params", key), value) for key in ("l", "b")
                for value in (1e308, 10**30)]


def leaves(node, path=()):
    """The path of every leaf under ``node``, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path


def mutations() -> list[tuple[tuple, object]]:
    """Every (leaf path, value) pair."""
    return [(path, value) for path in leaves(SMALL) for value in VALUES]


def mutated(path: tuple, value) -> dict:
    doc = copy.deepcopy(SMALL)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return doc


def command(path: tuple, name: str, rng) -> list[str]:
    """The arguments of ``name`` on the config ``c.yaml``, writing under the
    working directory; ``detect`` takes the dataset and the detector that
    ``path`` lies in, and others at random."""
    if name == "grid":
        return ["grid", "-c", "c.yaml", "--out", "out"]
    ids = {}
    for section in ("datasets", "detectors"):
        i = path[1] if path[0] == section else int(rng.integers(len(SMALL[section])))
        ids[section] = SMALL[section][i]["id"]
    return ["detect", "-c", "c.yaml", "--dataset", ids["datasets"], "--detector",
            ids["detectors"], "--out", "out.csv"]


class _Dumper(yaml.SafeDumper):
    """Quotes each string that the config reader would read as another type."""
    yaml_implicit_resolvers = _Loader.yaml_implicit_resolvers


def run_mutation(run_dir, path: tuple, value, args: list[str]) -> tuple[int, list[str]]:
    """The exit code of ``args`` on the config with ``path`` set to ``value``,
    run in ``run_dir``, and the files the run left there besides its config."""
    run_dir.mkdir()
    (run_dir / "c.yaml").write_text(yaml.dump(mutated(path, value), Dumper=_Dumper))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(run_dir)
        code = main(args)
    return code, sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
                        if p.name != "c.yaml")


def _sample() -> list[tuple[tuple, object, list[str]]]:
    rng = spawn_rng(0, "config-mutation")
    pairs = [pair for pair in mutations() if pair not in HUGE_WINDOWS]
    detect = [pairs[i] for i in sorted(rng.choice(len(pairs), 150, replace=False))]
    grid = HUGE_WINDOWS[::3] + [  # l=1e308 and b=10**30, then the draw
        pairs[i] for i in sorted(rng.choice(len(pairs), 6, replace=False))]
    return ([(path, value, command(path, "detect", rng)) for path, value in HUGE_WINDOWS + detect]
            + [(path, value, command(path, "grid", rng)) for path, value in grid])


SAMPLE = _sample()


@pytest.mark.parametrize("path, value, args", SAMPLE, ids=[
    f"{args[0]}-{'.'.join(map(str, path))}={value!r}" for path, value, args in SAMPLE])
def test_a_one_leaf_change_exits_0_1_or_2_and_a_failure_writes_nothing(tmp_path, capsys,
                                                                        path, value, args):
    code, left = run_mutation(tmp_path / "run", path, value, args)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    if code:
        assert left == [], err


@pytest.mark.parametrize("path, value", HUGE_WINDOWS, ids=[
    f"{path[-1]}={value!r}" for path, value in HUGE_WINDOWS])
def test_a_pnc_window_longer_than_the_series_exits_2_naming_its_key(tmp_path, capsys, path,
                                                                      value):
    args = ["detect", "-c", "c.yaml", "--dataset", "mild", "--detector", "pnc_ar",
            "--out", "out.csv"]
    assert run_mutation(tmp_path / "run", path, value, args) == (2, [])
    assert (f"error: detector 'pnc_ar': {path[-1]} must be at most the length of series "
            f"'mild', 400, got {int(value)}") in capsys.readouterr().err

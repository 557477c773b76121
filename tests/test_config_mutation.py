"""Every one-leaf change to a small config exits 0, 1 or 2, and a run that
fails writes nothing.

``SMALL`` is the demo config on two 400-point wear datasets and a 400-point
step, with one value per grid list, and every step and BOCPD prior key given
at its default, so that ``detect`` takes each detector as it stands.  A leaf is a
value reached through mappings and non-empty lists; ``mutations`` sets each
leaf in turn to each of ``VALUES``.  A fixed seeded sample of these runs
through ``detect`` and a few through ``grid``, in-process, each in a
directory of its own that holds only its config.  The pnc ``l`` and ``b`` at
1e308 and 10**30 are always in the sample: they are above numpy's dimension
limit, so a run that allocated a window of that size would exit 3.  The
source ``n`` at those values, and a ``step`` source whose draw overflows,
run through ``simulate``, ``detect`` and ``grid`` on their own, as do a
step whose values are beyond the bound that standardization and the
detectors take, a subnormal step and a BOCPD prior beyond its bounds.
"""

from __future__ import annotations

import copy
import math

import pytest
import yaml

from predcomp.cli import main
from predcomp.config import MAX_N, SOURCES, ConfigError, _Loader, kind_of
from predcomp.seeding import spawn_rng
from predcomp.series import MAX_ABS

STEP = {"kind": "step", "pre_mean": 0.0, "post_mean": 1.0, "sigma": 1.0, "cp_at": 250, "n": 400}
SMALL = {
    "schema_version": 1, "seed": 0, "output_dir": "out", "train_prefix": 200,
    "standardize": {"enabled": True, "t0": 0, "mode": "offline"},
    "datasets": [
        {"id": "mild", "source": {"kind": "wear", "a": 120.0, "lam": 0.02, "c": 3.0, "d": 0.02,
                                  "t2": 250, "n": 400}},
        {"id": "noisy", "source": {"kind": "wear", "a": 100.0, "lam": 0.015, "c": 6.0, "d": 0.03,
                                   "t2": 220, "n": 400, "scale": 2.0}},
        {"id": "step", "source": STEP},
    ],
    "detectors": [
        {"id": "pnc_ar", "kind": "pnc", "predictor": {"kind": "ar", "p": 5},
         "params": {"l": 100, "b": 25, "k": 0.5}, "grid": {"desInt": [10.0]}},
        {"id": "cusum", "kind": "cusum", "params": {"k": 0.5, "window": 50},
         "grid": {"desInt": [10.0]}},
        {"id": "bocpd", "kind": "bocpd", "params": {"hazard": 0.005, "r_min": 5, "mu0": 0.0,
                                                    "kappa0": 1.0, "alpha0": 1.0, "beta0": 1.0},
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


COMMANDS = {"simulate": ["simulate", "-c", "c.yaml", "--out", "out"],
            "detect": ["detect", "-c", "c.yaml", "--dataset", "mild", "--detector", "cusum",
                       "--out", "out.csv"],
            "grid": ["grid", "-c", "c.yaml", "--out", "out"]}


@pytest.mark.parametrize("name", sorted(COMMANDS))
@pytest.mark.parametrize("n", [1e308, 10**30])
@pytest.mark.parametrize("kind", ["wear", "step"])
def test_a_source_n_too_long_to_allocate_exits_2_naming_n(tmp_path, capsys, kind, n, name):
    source = {**(SMALL["datasets"][0]["source"] if kind == "wear" else STEP), "n": n}
    assert run_mutation(tmp_path / "run", ("datasets", 0, "source"), source,
                        COMMANDS[name]) == (2, [])
    assert (f"error: datasets[0].source.n must be int <= {MAX_N}, got {n!r}"
            in capsys.readouterr().err)


def test_the_source_n_ceiling_is_checked_before_the_source():
    # the wear check would evaluate bin_means(n); no array of MAX_N values is made here
    assert kind_of({**STEP, "n": MAX_N}, SOURCES, "s")[1]["n"] == MAX_N
    for kind in ("wear", "step"):
        with pytest.raises(ConfigError, match=rf"s\.n must be int <= {MAX_N}, got {MAX_N + 1}"):
            kind_of({"kind": kind, "n": MAX_N + 1}, SOURCES, "s")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_step_draw_that_overflows_exits_2_naming_the_dataset(tmp_path, capsys, name):
    source = {**STEP, "sigma": 1e308}
    result = run_mutation(tmp_path / "run", ("datasets", 0, "source"), source, COMMANDS[name])
    err = capsys.readouterr().err
    assert result == (2, []), err
    assert "error: dataset 'mild': source: the draw overflows to " in err
    assert "Warning" not in err


@pytest.mark.parametrize("args", [
    *(["detect", "-c", "c.yaml", "--dataset", "step", "--detector", det["id"], "--out", "out.csv"]
      for det in SMALL["detectors"]),
    COMMANDS["grid"]], ids=[*(f"detect-{det['id']}" for det in SMALL["detectors"]), "grid"])
def test_a_series_beyond_the_value_bound_exits_2_naming_the_dataset(tmp_path, capsys, args):
    source = {**STEP, "pre_mean": 1e308}
    result = run_mutation(tmp_path / "run", ("datasets", 2, "source"), source, args)
    err = capsys.readouterr().err
    assert result == (2, []), err
    assert (f"error: dataset 'step': the value at time 1 is 1e+308; standardization and the "
            f"detectors take values of magnitude at most {MAX_ABS:g}") in err


def test_a_subnormal_step_standardizes_and_runs_without_a_warning(tmp_path, capsys):
    """Its trend fit overflows a regressor, which is refused as degenerate."""
    source = {**STEP, "sigma": 1e-320}
    result = run_mutation(tmp_path / "run", ("datasets", 2, "source"), source, COMMANDS["grid"])
    err = capsys.readouterr().err
    assert result == (0, ["out", "out/metrics.csv"]), err
    assert "Warning" not in err


@pytest.mark.parametrize("key, value, bounds", [
    ("mu0", 1e308, "[-1e+50, 1e+50]"), ("beta0", 1e308, "[1e-50, 1e+50]"),
    ("kappa0", 1e-308, "[1e-50, 1e+50]")])
def test_a_bocpd_prior_beyond_its_bounds_exits_2_naming_the_key(tmp_path, capsys, key, value,
                                                                 bounds):
    result = run_mutation(tmp_path / "run", ("detectors", 2, "params", key), value,
                          COMMANDS["grid"])
    err = capsys.readouterr().err
    assert result == (2, []), err
    assert f"error: detector 'bocpd': {key} must be in {bounds}, got {value!r}" in err

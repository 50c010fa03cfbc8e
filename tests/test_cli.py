"""End-to-end checks of the batch CLI: every subcommand is run in process
against a small JSON config, and the run directories are inspected for the
promised artifacts, exit codes, and reproducibility guarantees.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import andlab
from andlab.cli import main
from andlab import expconfig
from andlab.expconfig import ExperimentConfig

BASE = {
    "n_particles": 2,
    "dim": 1,
    "nu": 1,
    "seed": 7,
    "g": 20.0,
    "L0": 2,
    "j_max": 1,
    "trials": 0,
    "window_sites": 6,
    "omega": 0.15,
}


def write_config(tmp_path, **overrides):
    data = dict(BASE)
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(command, config, out, *extra):
    rc = main([command, "--config", config, "--out", str(out), *extra])
    dirs = [d for d in os.listdir(out) if d.startswith(command + "-")]
    assert len(dirs) == 1
    return rc, os.path.join(str(out), dirs[0])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_outputs_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    rc, run = run_cli("graph", cfg, tmp_path / "out")
    assert rc == 0

    header, rows = read_csv(os.path.join(run, "balls.csv"))
    assert header == ["radius", "size", "achieved_radius"]
    assert [int(r[0]) for r in rows] == list(range(BASE["L0"] + 2))
    sizes = [int(r[1]) for r in rows]
    assert sizes[0] == 1
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    # the budget is generous, so every requested radius is reached
    assert [int(r[2]) for r in rows] == [int(r[0]) for r in rows]

    payload = read_json(os.path.join(run, "graph.json"))
    assert payload["ball_sizes"] == {str(i): n for i, n in enumerate(sizes)}
    assert payload["class_threshold"] == 2
    assert payload["equivalence_classes"] == 3
    for key in ("inner", "outer", "edges"):
        assert payload["boundary"][key] > 0

    manifest = read_json(os.path.join(run, "manifest.json"))
    assert manifest["command"] == "graph"
    assert manifest["seed"] == BASE["seed"]
    recomputed = hashlib.sha256(
        json.dumps(manifest["config"], sort_keys=True).encode()).hexdigest()
    assert manifest["config_hash"] == recomputed
    assert run.endswith(recomputed[:8])


def test_graph_numeric_range_rule_sets_the_class_threshold(tmp_path):
    cfg = write_config(tmp_path)
    rc, run = run_cli("graph", cfg, tmp_path / "out", "--set", "range_rule=3.5")
    assert rc == 0
    payload = read_json(os.path.join(run, "graph.json"))
    assert payload["class_threshold"] == 3
    assert read_json(os.path.join(run, "manifest.json"))["config"]["range_rule"] == 3.5


def test_set_falls_back_to_the_raw_string(tmp_path):
    # "adjacency" is not JSON, so --set records it as a plain string
    cfg = write_config(tmp_path)
    rc, run = run_cli("graph", cfg, tmp_path / "out", "--set", "convention=adjacency")
    assert rc == 0
    assert read_json(os.path.join(run, "manifest.json"))["config"]["convention"] == "adjacency"


def test_set_overrides_move_the_run_directory(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc1 = main(["graph", "--config", cfg, "--out", str(out)])
    rc2 = main(["graph", "--config", cfg, "--out", str(out), "--set", "seed=8"])
    assert rc1 == rc2 == 0
    dirs = sorted(d for d in os.listdir(out) if d.startswith("graph-"))
    assert len(dirs) == 2
    seeds = sorted(read_json(os.path.join(out, d, "manifest.json"))["seed"]
                   for d in dirs)
    assert seeds == [7, 8]


# ---------------------------------------------------------------------------
# spectrum / localize
# ---------------------------------------------------------------------------

def test_spectrum_free_operator_eigenvalues(tmp_path):
    cfg = write_config(tmp_path, g=0.0, interaction_B=None, window_sites=3)
    rc, run = run_cli("spectrum", cfg, tmp_path / "out")
    assert rc == 0

    header, rows = read_csv(os.path.join(run, "spectrum.csv"))
    assert header == ["k", "eigenvalue", "peak_config", "peak_mass"]
    vals = np.array(sorted(float(r[1]) for r in rows))
    assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)

    matrix = np.load(os.path.join(run, "operator.npy"))
    assert matrix.shape == (3, 3)
    meta = read_json(os.path.join(run, "operator.json"))
    assert len(meta["domain"]) == 3
    assert meta["g"] == 0.0


def test_localize_diagonal_operator_is_a_bijection(tmp_path):
    # convention "none" leaves only the potential: exact point spectrum
    cfg = write_config(tmp_path, convention="none", interaction_B=None)
    rc, run = run_cli("localize", cfg, tmp_path / "out")
    assert rc == 0

    report = read_json(os.path.join(run, "localize.json"))
    assert report["bijection"] is True
    assert report["fraction_unimodal"] == 1.0
    assert report["min_peak_mass"] > 0.99

    header, rows = read_csv(os.path.join(run, "states.csv"))
    assert header[:3] == ["k", "eigenvalue", "main_center"]
    assert len(rows) == 15  # C(6,2) two-particle states in a 6-site window
    centers = {r[2] for r in rows}
    assert len(centers) == 15


# ---------------------------------------------------------------------------
# msa
# ---------------------------------------------------------------------------

def test_msa_exit_code_matches_report(tmp_path):
    cfg = write_config(tmp_path)
    rc, run = run_cli("msa", cfg, tmp_path / "out")

    header, rows = read_csv(os.path.join(run, "levels.csv"))
    assert header == ["j", "L", "generation", "log2_beta", "log2_delta",
                      "gamma_at_m"]
    assert [int(r[0]) for r in rows] == [-1, 0, 1]
    for r in rows:
        assert float(r[3]) >= float(r[4])  # delta carries the extra weight
        assert float(r[5]) >= 0.0

    payload = read_json(os.path.join(run, "msa.json"))
    ok = payload["density_bound"]["holds"] and all(
        scan["clean"] for scan in payload["scans"].values())
    assert rc == (0 if ok else 1)
    assert payload["window"]["size"] > 0


# ---------------------------------------------------------------------------
# wegner / replay
# ---------------------------------------------------------------------------

def test_wegner_zero_trials_is_vacuous(tmp_path):
    cfg = write_config(tmp_path, trials=0)
    rc, run = run_cli("wegner", cfg, tmp_path / "out")
    assert rc == 0
    report = read_json(os.path.join(run, "report.json"))
    assert report["vacuous"] is True
    assert not os.path.exists(os.path.join(run, "cdf.csv"))
    # replaying a vacuous report is a no-op, not an error
    assert main(["replay", "--run", run, "--trial", "0"]) == 0


def test_wegner_run_report_and_replay(tmp_path):
    cfg = write_config(tmp_path, trials=40)
    rc, run = run_cli("wegner", cfg, tmp_path / "out")
    assert rc == 0

    report = read_json(os.path.join(run, "report.json"))
    assert report["op"] == "wegner"
    assert report["holds"] is True
    assert report["n_trials"] == 40
    assert len(report["records"]) == 40
    assert len(report["centers"]) == 2

    header, rows = read_csv(os.path.join(run, "cdf.csv"))
    assert header == ["s", "empirical", "half_width", "log_bound"]
    assert len(rows) == len(BASE.get("s_grid", ())) or len(rows) == 10
    emp = [float(r[1]) for r in rows]
    assert all(0.0 <= e <= 1.0 for e in emp)
    assert all(a <= b + 1e-15 for a, b in zip(emp, emp[1:]))

    # honest replay of a recorded trial reproduces its digest bit for bit
    assert main(["replay", "--run", run, "--trial", "7"]) == 0
    assert main(["replay", "--run", run, "--trial", "39"]) == 0
    # a trial index outside the report is a usage error
    assert main(["replay", "--run", run, "--trial", "40"]) == 2


def test_replay_detects_tampering(tmp_path):
    cfg = write_config(tmp_path, trials=5)
    rc, run = run_cli("wegner", cfg, tmp_path / "out")
    assert rc == 0
    path = os.path.join(run, "report.json")
    report = read_json(path)

    # flip one hex digit of a recorded digest
    idx, seed, digest = report["records"][2]
    bad = ("0" if digest[0] != "0" else "1") + digest[1:]
    report["records"][2] = [idx, seed, bad]
    with open(path, "w") as fh:
        json.dump(report, fh)
    assert main(["replay", "--run", run, "--trial", str(idx)]) == 1

    # a seed that does not derive from the config seed is rejected outright
    report["records"][2] = [idx, seed + 1, digest]
    with open(path, "w") as fh:
        json.dump(report, fh)
    assert main(["replay", "--run", run, "--trial", str(idx)]) == 2


def test_wegner_reports_are_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, trials=12)
    _, run1 = run_cli("wegner", cfg, tmp_path / "a")
    _, run2 = run_cli("wegner", cfg, tmp_path / "b")
    for name in ("report.json", "cdf.csv", "manifest.json"):
        with open(os.path.join(run1, name), "rb") as fh:
            blob1 = fh.read()
        with open(os.path.join(run2, name), "rb") as fh:
            blob2 = fh.read()
        assert blob1 == blob2


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_counts_within_bounds(tmp_path):
    cfg = write_config(tmp_path)
    rc, run = run_cli("entropy", cfg, tmp_path / "out",
                      "--grid", "4000", "--depth", "2")
    assert rc == 0
    header, rows = read_csv(os.path.join(run, "entropy.csv"))
    assert header == ["L", "count", "bound", "grid", "saturated"]
    assert [int(r[0]) for r in rows] == [BASE["L0"], BASE["L0"] + 1]
    for r in rows:
        assert 1 <= int(r[1]) <= float(r[2])
        assert r[4] == "False"


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def error_type(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["type"]


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["graph", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert error_type(capsys) == "config-error"


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(dict(BASE, bogus_knob=1)))
    assert main(["graph", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert error_type(capsys) == "config-error"


@pytest.mark.parametrize("command, overrides", [
    pytest.param("graph", {"L0": 1}, id="L0=1"),
    # ill-typed values: counts are ints, reals are ints or floats, neither a bool
    pytest.param("spectrum", {"g": "abc"}, id="g=abc"),
    pytest.param("wegner", {"trials": 2.5}, id="trials=2.5"),
    pytest.param("wegner", {"seed": 1.5}, id="seed=1.5"),
    pytest.param("spectrum", {"window_sites": 2.5}, id="window_sites=2.5"),
    pytest.param("graph", {"dim": True}, id="dim=true"),
    pytest.param("graph", {"hull_depth": 3.0}, id="hull_depth=3.0"),
    pytest.param("graph", {"omega": False}, id="omega=false"),
    pytest.param("graph", {"partition_C": "3"}, id="partition_C=str"),
    pytest.param("graph", {"interaction_B": [10]}, id="interaction_B=list"),
    pytest.param("wegner", {"s_grid": [0.1, "x"]}, id="s_grid=str"),
    # one case per range check
    pytest.param("graph", {"n_particles": 0}, id="n_particles=0"),
    pytest.param("graph", {"dim": 0}, id="dim=0"),
    pytest.param("graph", {"nu": 0}, id="nu=0"),
    pytest.param("graph", {"b": 0}, id="b=0"),
    pytest.param("graph", {"j_max": -1}, id="j_max=-1"),
    pytest.param("graph", {"m": 0.0}, id="m=0"),
    pytest.param("graph", {"convention": "hopping"}, id="convention=hopping"),
    pytest.param("wegner", {"trials": -1}, id="trials=-1"),
    pytest.param("wegner", {"seed": 2 ** 63}, id="seed=2^63"),
    pytest.param("wegner", {"seed": -2 ** 63 - 1}, id="seed=-2^63-1"),
    pytest.param("graph", {"budget": 0}, id="budget=0"),
    pytest.param("spectrum", {"window_sites": 1}, id="window_sites=1"),
    pytest.param("graph", {"range_rule": "far"}, id="range_rule=far"),
    pytest.param("graph", {"range_rule": True}, id="range_rule=true"),
    # the derived objects' own checks run in validation, before a run starts
    pytest.param("spectrum", {"interaction_B": -1}, id="interaction_B=-1"),
    pytest.param("spectrum", {"range_rule": 0.5}, id="range_rule=0.5"),
    pytest.param("spectrum", {"A_prime": -1}, id="A_prime=-1"),
    pytest.param("graph", {"range_rule": -3, "interaction_B": None},
                 id="range_rule=-3,interaction_B=null"),
    pytest.param("graph", {"range_rule": 0.5}, id="graph-range_rule=0.5"),
    pytest.param("graph", {"out_dir": 5}, id="out_dir=5"),
    # reals are finite: a NaN passes every range check written as a comparison
    pytest.param("spectrum", {"b": math.nan}, id="b=NaN"),
    pytest.param("msa", {"m": math.nan}, id="m=NaN"),
    pytest.param("spectrum", {"g": math.inf}, id="g=Infinity"),
    pytest.param("msa", {"g": -20.0}, id="g=-20"),
    pytest.param("spectrum", {"b": math.inf}, id="b=Infinity"),
    pytest.param("wegner", {"s_grid": [0.1, math.nan]}, id="s_grid=NaN"),
    # a numeric string named one more run directory for its number's cutoff,
    # and an infinite cutoff made a run directory before int() overflowed
    pytest.param("graph", {"range_rule": "03"}, id="range_rule=03"),
    pytest.param("graph", {"range_rule": "3"}, id="range_rule=str3"),
    pytest.param("graph", {"range_rule": math.inf}, id="range_rule=Infinity"),
])
def test_invalid_config_value(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert error_type(capsys) == "config-error"
    assert not out.exists()   # rejected before any run directory is made


@pytest.mark.parametrize("command, overrides, message", [
    pytest.param("graph", {"b": -1}, "need finite b > 0, got -1", id="b=-1"),
    pytest.param("graph", {"L0": 1}, "need L0 >= 2", id="L0=1"),
    # a set hull_depth builds the hull without the scales
    pytest.param("graph", {"L0": 1, "hull_depth": 5}, "need L0 >= 2", id="L0=1,hull_depth=5"),
    pytest.param("graph", {"j_max": -1}, "need j_max >= 0", id="j_max=-1"),
    pytest.param("msa", {"m": 0}, "need finite m > 0, got 0", id="m=0"),
    pytest.param("wegner", {"trials": -1}, "need trials >= 0", id="trials=-1"),
    pytest.param("wegner", {"workers": 0}, "need workers >= 1", id="workers=0"),
    pytest.param("wegner", {"seed": 2 ** 63}, "seed must lie in", id="seed=2^63"),
    pytest.param("wegner", {"s_grid": [-1]}, "s_grid must be finite and positive",
                 id="s_grid=[-1]"),
    pytest.param("graph", {"range_rule": 0.5}, "range_rule must be 'L' or a finite number",
                 id="range_rule=0.5"),
])
def test_each_range_rule_is_refused_by_its_object(tmp_path, capsys, command, overrides,
                                                   message):
    """``validate`` keeps no copy of these rules: the object it builds (scales,
    gamma, the Monte-Carlo plan, the cutoff rule) refuses the value, still
    before any run directory is made."""
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, **overrides),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "config-error" and err["error"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("seed", [-2 ** 63, 2 ** 63 - 1])
def test_wegner_runs_at_the_ends_of_the_seed_range(tmp_path, seed):
    cfg = write_config(tmp_path, seed=seed, trials=2)
    rc, run_dir = run_cli("wegner", cfg, tmp_path / "out")
    assert rc == 0
    assert len(read_json(os.path.join(run_dir, "report.json"))["records"]) == 2


def test_runtime_error_inside_a_command(tmp_path, capsys):
    # 100 window sites hold 4,950 two-fermion configurations, over the 4,000 budget
    cfg = write_config(tmp_path)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--set", "window_sites=100"]) == 2
    assert error_type(capsys) == "runtime-error"


def test_module_entry_point_warns_nothing(tmp_path):
    """``python -m andlab.cli`` must not find the submodule imported already."""
    readme = {"n_particles": 2, "dim": 1, "seed": 7, "g": 20.0, "L0": 2,
              "trials": 200, "window_sites": 6, "omega": 0.15}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(readme))
    src = os.path.dirname(os.path.dirname(andlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "andlab.cli",
                           "graph", "--config", str(cfg), "--out", str(tmp_path / "runs")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cli_imports_no_scipy():
    """scipy is needed by the tests only: the console script runs without it."""
    src = os.path.dirname(os.path.dirname(andlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, andlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_invalid_workers(tmp_path, capsys):
    cfg = write_config(tmp_path, workers=0)
    assert main(["wegner", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert error_type(capsys) == "config-error"


def test_hull_deeper_than_cell_index(tmp_path, capsys):
    # b = 0.05 keeps all 70 generations nonzero: 70 > 62 bits of cell index
    cfg = write_config(tmp_path, b=0.05, hull_depth=70)
    assert main(["graph", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert error_type(capsys) == "config-error"


def test_hull_deeper_than_a_float_phase(tmp_path, capsys):
    # 60 nonzero generations fit the 62-bit index but not a float64 phase
    cfg = write_config(tmp_path, b=0.05, hull_depth=60)
    out = tmp_path / "out"
    assert main(["graph", "--config", cfg, "--out", str(out)]) == 2
    assert error_type(capsys) == "config-error"
    assert not out.exists()
    ExperimentConfig(b=0.05, hull_depth=52).validate()
    with pytest.raises(ValueError, match="float phase"):
        ExperimentConfig(b=0.05, hull_depth=53).validate()


@pytest.mark.parametrize("flags", [("--grid", "0"), ("--depth", "0"), ("--depth", "40")])
def test_entropy_rejects_bad_flags(tmp_path, capsys, flags):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["entropy", "--config", cfg, "--out", str(out), *flags]) == 2
    assert error_type(capsys) == "config-error"
    assert not out.exists()   # rejected before any run directory is made


@pytest.mark.parametrize("command", ["spectrum", "localize"])
def test_window_too_small_for_the_particles(tmp_path, capsys, command):
    """Seven particles on six sites: no configuration fits the window, so the
    spectrum cannot be written and a bijection on it would hold vacuously."""
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--set", "n_particles=7"]) == 2
    assert error_type(capsys) == "config-error"
    assert not out.exists()


def test_window_that_just_holds_the_particles(tmp_path):
    rc, run = run_cli("spectrum", write_config(tmp_path, n_particles=6), tmp_path)
    assert rc == 0
    assert len(read_csv(os.path.join(run, "spectrum.csv"))[1]) == 1


def test_empty_s_grid_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=5)
    out = tmp_path / "out"
    assert main(["wegner", "--config", cfg, "--out", str(out), "--set", "s_grid=[]"]) == 2
    assert error_type(capsys) == "config-error"
    assert not out.exists()
    with pytest.raises(ValueError, match="s_grid"):
        ExperimentConfig(s_grid=()).validate()


def test_validate_counts_only_nonzero_hull_generations():
    ExperimentConfig(b=2.5, hull_depth=70).validate()      # a_n = 0.0 past n = 14
    ExperimentConfig(b=0.5, nu=2, hull_depth=31).validate()
    for bad in (dict(b=0.5, nu=2, hull_depth=32), dict(b=0.05, hull_depth=70),
                dict(hull_depth=0)):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad).validate()


def test_config_hash_ignores_workers_and_out_dir():
    """Neither the pool size nor the output root changes a result, so a rerun
    with either changed names the same run; the seed still moves the hash."""
    base = ExperimentConfig().config_hash()
    assert ExperimentConfig(workers=2, out_dir="x").config_hash() == base
    assert ExperimentConfig(seed=2).config_hash() != base


@pytest.mark.parametrize("fields", [{}, {"s_grid": [0.5, 2.0], "out_dir": "x", "seed": -3,
                                     "hull_depth": 5, "interaction_B": None}])
def test_config_json_is_asdict_with_a_list_grid(fields):
    """``to_json`` walks the fields one level deep, yet gives what
    ``dataclasses.asdict`` gives with ``s_grid`` as a list, as values and as
    the manifest's bytes; the returned grid is the caller's to mutate."""
    cfg = ExperimentConfig.from_json(fields)
    data = cfg.to_json()
    want = {**dataclasses.asdict(cfg), "s_grid": list(cfg.s_grid)}
    assert data == want
    assert json.dumps(data, indent=1) == json.dumps(want, indent=1)
    grid = cfg.s_grid
    data["s_grid"].append(9.0)
    assert cfg.s_grid == grid and cfg.to_json() == want


def test_a_run_serializes_and_hashes_its_config_once(tmp_path, monkeypatch):
    """One ``wegner`` run calls ``to_json`` and ``hash_config`` once each; the
    manifest and the plan's scenario both hold that one config."""
    calls = {"to_json": 0, "hash_config": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(ExperimentConfig, "to_json",
                        counted("to_json", ExperimentConfig.to_json))
    monkeypatch.setattr(andlab.cli, "hash_config",
                        counted("hash_config", expconfig.hash_config))
    cfg = write_config(tmp_path, trials=3)
    rc, run = run_cli("wegner", cfg, tmp_path / "out")
    assert rc in (0, 1)
    assert calls == {"to_json": 1, "hash_config": 1}
    manifest = read_json(os.path.join(run, "manifest.json"))
    assert read_json(os.path.join(run, "report.json"))["plan"]["scenario"] == manifest["config"]
    assert manifest["config_hash"] == ExperimentConfig.from_json(manifest["config"]).config_hash()


def test_set_without_equals(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["graph", "--config", cfg, "--out", str(tmp_path),
                 "--set", "seed"]) == 2
    assert error_type(capsys) == "config-error"


def test_missing_config_file(tmp_path, capsys):
    assert main(["graph", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert error_type(capsys) == "config-error"


def test_replay_on_missing_run(tmp_path, capsys):
    assert main(["replay", "--run", str(tmp_path / "void"), "--trial", "0"]) == 2
    assert error_type(capsys) == "replay-error"

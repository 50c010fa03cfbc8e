"""End-to-end checks of the batch CLI: every subcommand is run in process
against a small JSON config, and the run directories are inspected for the
promised artifacts, exit codes, and reproducibility guarantees.
"""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from andlab.cli import main
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


def test_invalid_config_value(tmp_path, capsys):
    cfg = write_config(tmp_path, L0=1)
    assert main(["graph", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert error_type(capsys) == "config-error"


def test_invalid_workers(tmp_path, capsys):
    cfg = write_config(tmp_path, workers=0)
    assert main(["wegner", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert error_type(capsys) == "config-error"


def test_hull_deeper_than_cell_index(tmp_path, capsys):
    # b = 0.05 keeps all 70 generations nonzero: 70 > 62 bits of cell index
    cfg = write_config(tmp_path, b=0.05, hull_depth=70)
    assert main(["graph", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert error_type(capsys) == "config-error"


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

"""Batch front end: subcommands over a JSON experiment config.

Every run writes a directory containing a manifest (config + content hash)
and the command's report files; exit status is 0 when the run's one-sided
bound checks pass, 1 when a check fails, and 2 on configuration or budget
errors.  Nothing reads the clock: a config hash identifies a run exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import msa
from . import operators as ops
from . import potential as pot
from . import wegner as wg
from .configs import FermiConfig, boundaries, box_configs, capped_ball, \
    shift_equivalence_classes
from .errors import AndlabError
from .expconfig import ExperimentConfig, hash_config


def _fail(message: str, kind: str = "config-error") -> int:
    print(json.dumps({"error": message, "type": kind}), file=sys.stderr)
    return 2


def _staircase(cfg: ExperimentConfig) -> FermiConfig:
    """Canonical base configuration: particles stacked along the first axis."""
    return FermiConfig.make((i,) + (0,) * (cfg.dim - 1) for i in range(cfg.n_particles))


def _omega(cfg: ExperimentConfig) -> np.ndarray:
    return np.full(cfg.nu, cfg.omega)


def _load_config(path: str, overrides) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        data[key] = value
    return ExperimentConfig.from_json(data)


def _run_dir(command: str, config_hash: str, cfg: ExperimentConfig, out_flag) -> str:
    root = out_flag or cfg.out_dir or os.environ.get("ANDLAB_OUT") or "runs"
    path = os.path.join(root, f"{command}-{config_hash[:8]}")
    os.makedirs(path, exist_ok=True)
    return path


def _write_manifest(run_dir: str, command: str, config: dict, config_hash: str, warnings):
    """``config`` is the run's ``cfg.to_json()`` and ``config_hash`` its
    ``hash_config``, each computed once per run."""
    _write_json(os.path.join(run_dir, "manifest.json"),
                {"command": command, "config": config, "config_hash": config_hash,
                 "seed": config["seed"], "warnings": list(warnings)})
    for w in warnings:
        print(f"warning: {w}")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_graph(cfg: ExperimentConfig, run_dir: str) -> int:
    center = _staircase(cfg)
    balls = [capped_ball(center, L, cfg.budget) for L in range(cfg.L0 + 2)]
    rows = [(L, len(members), members.radius) for L, members in enumerate(balls)]
    _write_csv(os.path.join(run_dir, "balls.csv"),
               ["radius", "size", "achieved_radius"], rows)
    inner, outer, edges = boundaries(balls[cfg.L0].members)
    threshold = int(cfg.interaction_range(cfg.L0))
    classes = shift_equivalence_classes(cfg.n_particles, cfg.dim, threshold,
                                        budget=cfg.budget * 200)
    payload = {
        "center": center.to_json(),
        "ball_sizes": {str(L): n for L, n, _ in rows},
        "boundary": {"inner": len(inner), "outer": len(outer), "edges": len(edges)},
        "equivalence_classes": len(classes),
        "class_threshold": threshold,
    }
    _write_json(os.path.join(run_dir, "graph.json"), payload)
    print(f"graph: ball sizes {[n for _, n, _ in rows]}, "
          f"{len(classes)} shift classes at range {threshold}")
    return 0


def _window_operator(cfg: ExperimentConfig, domain=None):
    """The config's operator on ``domain`` (default: the window_sites box)."""
    if domain is None:
        domain = box_configs(cfg.n_particles,
                             (0,) * cfg.dim, (cfg.window_sites - 1,) * cfg.dim,
                             budget=cfg.budget)
    hull = cfg.hull(pot.AmplitudeField(cfg.seed))
    V = pot.config_potentials(hull, cfg.system(), _omega(cfg), domain)
    return ops.assemble(domain, V, cfg.g, cfg.interaction(cfg.L0), cfg.convention)


def cmd_spectrum(cfg: ExperimentConfig, run_dir: str) -> int:
    H = _window_operator(cfg)
    spec = ops.diagonalize(H)
    _write_csv(os.path.join(run_dir, "spectrum.csv"),
               ["k", "eigenvalue", "peak_config", "peak_mass"],
               ops.spectrum_rows(H, spec))
    ops.save_operator(os.path.join(run_dir, "operator"), H)
    print(f"spectrum: {H.n} configurations, eigenvalues in "
          f"[{spec.eigenvalues[0]:.6g}, {spec.eigenvalues[-1]:.6g}]")
    return 0


def cmd_localize(cfg: ExperimentConfig, run_dir: str) -> int:
    H = _window_operator(cfg)
    spec = ops.diagonalize(H)
    report = msa.localization_report(spec, H.domain)
    rows = [(s.k, s.eigenvalue, json.dumps(s.centers[0].to_json()),
             len(s.centers), s.peak_mass, s.decay_rate, s.r_squared, s.unimodal)
            for s in report.states]
    _write_csv(os.path.join(run_dir, "states.csv"),
               ["k", "eigenvalue", "main_center", "n_centers", "peak_mass",
                "decay_rate", "r_squared", "unimodal"], rows)
    _write_json(os.path.join(run_dir, "localize.json"),
                {"bijection": report.bijection,
                 "fraction_unimodal": report.fraction_unimodal,
                 "min_peak_mass": report.min_peak_mass})
    print(f"localize: bijection={report.bijection}, "
          f"unimodal fraction {report.fraction_unimodal:.3f}, "
          f"min peak mass {report.min_peak_mass:.3f}")
    return 0 if report.bijection else 1


def cmd_msa(cfg: ExperimentConfig, run_dir: str) -> int:
    seq = cfg.scales()
    _write_csv(os.path.join(run_dir, "levels.csv"),
               ["j", "L", "generation", "log2_beta", "log2_delta",
                "gamma_at_m"],
               [(lev.j, lev.L, lev.generation, lev.log2_beta, lev.log2_delta,
                 msa.gamma(cfg.m, lev.L)) for lev in seq.levels])
    density = pot.density_bound(cfg.L0, cfg.b, cfg.A, seq.C)

    center = _staircase(cfg)
    window = capped_ball(center, min(cfg.L0 ** 4, 30), cfg.budget)
    H = _window_operator(cfg, window.members)
    scans = {}
    for L in {0, cfg.L0 if window.radius > cfg.L0 else 0}:
        lev = seq.level(-1 if L == 0 else 0)
        rep = msa.sparseness_scan(H, L, cfg.m, cfg.g, lev.delta)
        scans[str(L)] = {"n_balls": rep.n_balls, "n_energies": rep.n_energies,
                         "singular_pairs": rep.singular_pairs,
                         "resonant_pairs": rep.resonant_pairs,
                         "clean": rep.clean}
    payload = {
        "density_bound": {"holds": density.holds,
                          "log2_inverse_weight": density.log2_inverse_weight,
                          "log2_bound": density.log2_bound,
                          "generation": density.generation},
        "window": {"radius": window.radius, "size": len(window)},
        "scans": scans,
    }
    _write_json(os.path.join(run_dir, "msa.json"), payload)
    clean = density.holds and all(s["clean"] for s in scans.values())
    print(f"msa: density bound holds={density.holds}; scans clean="
          f"{[s['clean'] for s in scans.values()]}")
    return 0 if clean else 1


def cmd_wegner(cfg: ExperimentConfig, run_dir: str, scenario: dict) -> int:
    """``scenario`` is ``cfg.to_json()``, which the plan echoes as provenance."""
    system = cfg.system()
    plan = wg.McPlan(cfg.trials, cfg.seed, tuple(cfg.s_grid),
                     scenario=scenario, workers=cfg.workers)
    if cfg.trials == 0:
        print("warning: zero trials requested; report is vacuous")
        _write_json(os.path.join(run_dir, "report.json"),
                    {"op": "wegner", "vacuous": True, "plan": plan.to_json()})
        return 0
    shift = 3 * cfg.L0 + 2
    center_x = _staircase(cfg)
    center_y = center_x.shifted((shift,) + (0,) * (cfg.dim - 1))
    report = wg.wegner_estimate(plan, system, _omega(cfg), center_x, center_y,
                                cfg.L0, cfg.g, cfg.b, cfg.hull_generations(),
                                cfg.interaction(cfg.L0), cfg.convention)
    payload = report.to_json()
    payload["op"] = "wegner"
    payload["centers"] = [center_x.to_json(), center_y.to_json()]
    _write_json(os.path.join(run_dir, "report.json"), payload)
    _write_csv(os.path.join(run_dir, "cdf.csv"),
               ["s", "empirical", "half_width", "log_bound"],
               list(zip(report.s_grid, report.empirical, report.half_widths,
                        report.log_bound)))
    print(f"wegner: {report.n_trials} trials, bound holds={report.holds}, "
          f"fitted log C5 = {report.log_c5_fit:.3g}")
    return 0 if report.holds else 1


def cmd_entropy(cfg: ExperimentConfig, run_dir: str, grid: int, depth: int) -> int:
    system = cfg.system()
    hull = pot.HaarHull(cfg.b, depth, pot.AmplitudeField(cfg.seed))
    rows = []
    ok = True
    for L in (cfg.L0, cfg.L0 + 1):
        rep = msa.equivalence_entropy_check(system, hull, L, grid)
        rows.append((L, rep.count, rep.bound, rep.grid_size, rep.saturated))
        ok = ok and rep.count <= rep.bound and not rep.saturated
    _write_csv(os.path.join(run_dir, "entropy.csv"),
               ["L", "count", "bound", "grid", "saturated"], rows)
    print("entropy: " + "; ".join(
        f"L={L}: {c} distinct operators (bound {b:.0f})" for L, c, b, _, _ in rows))
    return 0 if ok else 1


def cmd_replay(run_dir: str, trial: int) -> int:
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(run_dir, "report.json")) as fh:
        report = json.load(fh)
    if report.get("vacuous"):
        print("replay: report is vacuous, nothing to do")
        return 0
    if report.get("op") != "wegner":
        return _fail(f"replay does not understand op {report.get('op')!r}",
                     "replay-error")
    cfg = ExperimentConfig.from_json(manifest["config"])
    records = {int(idx): (int(seed), digest)
               for idx, seed, digest in report["records"]}
    if trial not in records:
        return _fail(f"trial {trial} not in the report", "replay-error")
    seed, digest = records[trial]
    if wg.trial_seed(cfg.seed, trial) != seed:
        return _fail("recorded seed does not derive from the config seed",
                     "replay-error")
    system = cfg.system()
    center_x = FermiConfig.from_json(report["centers"][0])
    center_y = FermiConfig.from_json(report["centers"][1])
    sx = wg.ball_scaffold(center_x, cfg.L0, cfg.interaction(cfg.L0), cfg.convention)
    sy = wg.ball_scaffold(center_y, cfg.L0, cfg.interaction(cfg.L0), cfg.convention)
    row = wg.wegner_trial(seed, system, _omega(cfg), sx, sy, cfg.g, cfg.b,
                          cfg.hull_generations())
    fresh = wg.value_digest(row)
    match = fresh == digest
    print(f"replay trial {trial}: digest "
          f"{'matches' if match else 'DIFFERS'} ({fresh[:16]}...)")
    return 0 if match else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# subcommand -> handler(cfg, run_dir, **its own flags); wegner also gets
# the config JSON that the manifest holds, as its plan's scenario
COMMANDS = {"graph": cmd_graph, "spectrum": cmd_spectrum, "localize": cmd_localize,
            "msa": cmd_msa, "wegner": cmd_wegner, "entropy": cmd_entropy}
_SHARED_FLAGS = ("command", "config", "set", "out")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="andlab",
        description="interacting-fermion localization laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (value parsed as JSON)")
        p.add_argument("--out", default=None, help="output root directory")
        if name == "entropy":
            p.add_argument("--grid", type=int, default=10_000)
            p.add_argument("--depth", type=int, default=2)
    rp = sub.add_parser("replay")
    rp.add_argument("--run", required=True, help="run directory with a report")
    rp.add_argument("--trial", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "replay":
        try:
            return cmd_replay(args.run, args.trial)
        except (OSError, KeyError, ValueError, AndlabError) as exc:
            return _fail(str(exc), "replay-error")
    try:
        cfg = _load_config(args.config, args.set)
        warnings = cfg.validate()
        if args.command == "entropy" and not (
                args.grid >= 1 and 1 <= args.depth <= cfg.hull_generations()):
            raise ValueError(f"need --grid >= 1 and 1 <= --depth <= {cfg.hull_generations()}")
        sites = cfg.window_sites ** cfg.dim
        if args.command in ("spectrum", "localize") and cfg.n_particles > sites:
            raise ValueError(f"{cfg.n_particles} particles do not fit in {sites} window sites")
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    config = cfg.to_json()
    config_hash = hash_config(config)
    run_dir = _run_dir(args.command, config_hash, cfg, args.out)
    _write_manifest(run_dir, args.command, config, config_hash, warnings)
    flags = {k: v for k, v in vars(args).items() if k not in _SHARED_FLAGS}
    if args.command == "wegner":
        flags["scenario"] = config
    try:
        code = COMMANDS[args.command](cfg, run_dir, **flags)
    except AndlabError as exc:
        return _fail(str(exc), "runtime-error")
    print(f"outputs in {run_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())

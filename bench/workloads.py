"""The four benchmark workloads.

Each workload generates its inputs from the benchmark seed when it is
constructed (that is set-up), then repeats one fixed *unit* of work:

- ``execute(mark)`` is the timed part.  It calls andlab through module
  attributes only, so the tracer's wrappers see every call, and calls
  ``mark()`` at the start of each operation (the scope of repeat ratios).
- ``check(output)`` turns one unit's output into a ``UnitResult``: items
  done, items whose check failed, and a digest of everything the unit
  produced.  It calls no andlab function, so it may run while traced.
- ``final_check(output)`` runs the checks that do call andlab (replays,
  seed derivations) once, untraced, after all timing; it returns the number
  of further failed items.

See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from andlab import cli, configs, expconfig, msa, operators, potential, torus, wegner

DEFAULT_SEED = 7

# the config of the README's CLI section; the benchmark seed replaces "seed"
README_CONFIG = {"n_particles": 2, "dim": 1, "seed": 7, "g": 20.0, "L0": 2,
                 "trials": 200, "window_sites": 6, "omega": 0.15}


@dataclass
class UnitResult:
    items: int
    failed: int
    digest: str
    bytes_written: int = 0


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return h.hexdigest()


class _Workload:
    trace_units = 4    # units per traced phase

    def final_check(self, output) -> int:
        return 0


class _CliWorkload(_Workload):
    """One in-process ``andlab`` CLI invocation per unit, on the README config."""

    command = ""

    def __init__(self, seed: int, out_dir: str, overrides: dict):
        os.makedirs(out_dir, exist_ok=True)
        config_path = os.path.join(out_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(README_CONFIG, fh)
        self.seed = seed
        self.argv = [self.command, "--config", config_path,
                     "--out", os.path.join(out_dir, "runs"), "--set", f"seed={seed}"]
        for key, value in overrides.items():
            self.argv += ["--set", f"{key}={json.dumps(value)}"]

    def execute(self, mark):
        mark()
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.main(self.argv)
        return code, captured.getvalue()

    @staticmethod
    def _read_run(output):
        """(exit code, run directory, {file name: bytes}) of one invocation."""
        code, stdout = output
        lines = stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("outputs in "):
            raise RuntimeError(f"CLI exited {code} without a run directory")
        run_dir = lines[-1][len("outputs in "):]
        files = {}
        for name in sorted(os.listdir(run_dir)):
            with open(os.path.join(run_dir, name), "rb") as fh:
                files[name] = fh.read()
        return code, run_dir, files

    @staticmethod
    def _digest(code, files):
        return _sha(code, *(name.encode() + b"\0" + data for name, data in files.items()))


class Scan(_CliWorkload):
    """``andlab msa`` on the README config: capped-ball window, assemble, and
    sparseness scans at L=0 and L=2.  Item: one scanned ball."""

    name = "scan"
    command = "msa"
    trace_units = 1

    def __init__(self, seed: int, out_dir: str, budget: int = None):
        super().__init__(seed, out_dir, {} if budget is None else {"budget": budget})

    def check(self, output) -> UnitResult:
        code, _, files = self._read_run(output)
        report = json.loads(files["msa.json"])
        scans = report["scans"].values()
        items = sum(s["n_balls"] for s in scans)
        # exit 1 is the program's verdict on the README config (unclean
        # scans); it is recorded in the digest, not treated as a failure
        ok = (code in (0, 1) and items > 0
              and all(s["n_energies"] > 0 for s in scans)
              and report["window"]["size"] > 0)
        return UnitResult(max(items, 1), 0 if ok else max(items, 1),
                          self._digest(code, files), sum(map(len, files.values())))


class MonteCarlo(_CliWorkload):
    """``andlab wegner`` on the README config (18 hull generations).
    Item: one Monte-Carlo trial."""

    name = "montecarlo"
    command = "wegner"
    replay_sample = 8

    def __init__(self, seed: int, out_dir: str, trials: int = 250):
        super().__init__(seed, out_dir, {"trials": trials})
        self.trials = trials

    def check(self, output) -> UnitResult:
        code, _, files = self._read_run(output)
        report = json.loads(files["report.json"])
        emp = report["empirical"]
        ok = (code in (0, 1) and report["n_trials"] == self.trials
              and len(report["records"]) == self.trials
              and all(0.0 <= p <= 1.0 for p in emp)
              and all(a <= b for a, b in zip(emp, emp[1:])))
        return UnitResult(self.trials, 0 if ok else self.trials,
                          self._digest(code, files), sum(map(len, files.values())))

    def final_check(self, output) -> int:
        """Every recorded seed derives from the config seed, and a seeded
        sample of trials replays to its recorded digest, as ``andlab replay``
        does."""
        _, run_dir, files = self._read_run(output)
        report = json.loads(files["report.json"])
        cfg = expconfig.ExperimentConfig.from_json(json.loads(files["manifest.json"])["config"])
        records = report["records"]
        failed = sum(1 for idx, seed, _ in records if wegner.trial_seed(cfg.seed, idx) != seed)
        cx, cy = (configs.FermiConfig.from_json(c) for c in report["centers"])
        inter = cfg.interaction(cfg.L0)
        sx = wegner.ball_scaffold(cx, cfg.L0, inter, cfg.convention)
        sy = wegner.ball_scaffold(cy, cfg.L0, inter, cfg.convention)
        omega = np.full(cfg.nu, cfg.omega)
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(len(records), size=min(self.replay_sample, len(records)),
                            replace=False)
        for t in sorted(int(i) for i in sample):
            idx, seed, digest = records[t]
            row = wegner.wegner_trial(seed, cfg.system(), omega, sx, sy, cfg.g, cfg.b,
                                      cfg.hull_generations())
            failed += wegner.value_digest(row) != digest
        return failed


class Localize(_Workload):
    """Strong-disorder windows in the style of acceptance criterion 7: N=2 on
    a 14-site box, one amplitude field per seed and a grid of five phases, g
    at 1.05x the separation threshold.  Item: one diagonalized window."""

    name = "localize"
    omegas = (0.11, 0.31, 0.53, 0.71, 0.93)
    threshold = 16 * 2 * 1 * math.exp(4.0)   # 16 N d e^(4m), N=2, d=1, m=1
    margin = 1.05
    min_pass = 0.95

    def __init__(self, seed: int, out_dir: str, fields: int = 5):
        self.system = torus.ShiftSystem(torus.preset_frequencies("golden", 1, 1))
        self.domain = configs.box_configs(2, (0,), (13,))
        rng = np.random.default_rng(seed)
        self.windows = [(int(s), np.array([om]))
                        for s in rng.integers(0, 2 ** 31, fields) for om in self.omegas]

    def execute(self, mark):
        out = []
        for field_seed, omega in self.windows:
            mark()
            hull = potential.HaarHull(0.5, 7, potential.AmplitudeField(field_seed))
            vals = {c: potential.config_potential(hull, self.system, omega, c)
                    for c in self.domain}
            sep = potential.min_gap(list(vals.values()))
            g = self.margin * self.threshold / sep
            spec = operators.diagonalize(operators.assemble(self.domain, vals, g=g))
            out.append((g * sep >= self.threshold, spec,
                        msa.localization_report(spec, self.domain)))
        return out

    def check(self, output) -> UnitResult:
        cleared = [c for c, _, _ in output]
        good = [rep.bijection and rep.all_unimodal and rep.min_peak_mass > 0.5
                for _, _, rep in output]
        # the unimodal/bijection claim is statistical: the unit passes at
        # >= 95 % of its windows; below that, every window short of it fails
        gate = sum(good) >= self.min_pass * len(good)
        failed = sum(1 for c, g in zip(cleared, good) if not c or not (g or gate))
        digest = _sha(*(spec.eigenvalues.tobytes() + spec.eigenvectors.tobytes()
                        + repr((rep.bijection, rep.fraction_unimodal, rep.min_peak_mass,
                                [s.decay_rate for s in rep.states])).encode()
                        for _, spec, rep in output))
        return UnitResult(len(output), failed, digest)


class Dominated(_Workload):
    """force_dominated + dominated_check in the style of acceptance
    criterion 13: center (0),(8), L=3, ell=1 on the 85-config 2L-ball, random
    profiles and q from the seed.  Item: one forced-and-checked profile."""

    name = "dominated"
    L, ell = 3, 1

    def __init__(self, seed: int, out_dir: str, profiles: int = 25):
        self.center = configs.FermiConfig.make([(0,), (8,)])
        self.domain = sorted(configs.distances_within(self.center, 2 * self.L))
        rng = np.random.default_rng(seed)
        self.profiles = [(float(rng.uniform(0.2, 0.8)),
                          {c: float(rng.random()) for c in self.domain})
                         for _ in range(profiles)]

    def execute(self, mark):
        out = []
        L, ell, center, domain = self.L, self.ell, self.center, self.domain
        for q, raw in self.profiles:
            mark()
            f = msa.force_dominated(raw, domain, center, L, ell, q)
            M = max(abs(v) for v in f.values())
            ok = (msa.dominated_check(f, domain, center, L, ell, q)
                  and abs(f[center]) <= msa.dominated_bound(L, ell, q, M) + 1e-12)
            out.append((f, ok))
        return out

    def check(self, output) -> UnitResult:
        failed = sum(1 for _, ok in output if not ok)
        digest = _sha(*(np.asarray([f[c] for c in self.domain]).tobytes()
                        for f, _ in output))
        return UnitResult(len(output), failed, digest)


WORKLOADS = {w.name: w for w in (Scan, MonteCarlo, Localize, Dominated)}

# sizes for the self-test: every code path, a fraction of a second each
TINY = {"scan": {"budget": 30}, "montecarlo": {"trials": 12},
        "localize": {"fields": 1}, "dominated": {"profiles": 3}}

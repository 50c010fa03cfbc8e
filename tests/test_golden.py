"""Golden digests: small outputs whose sha256 must never move.

The digests pin, bit for bit, one ``andlab msa`` report, one ``andlab wegner``
report, the localization report and envelope fit of a fixed 91-configuration
strong-disorder window, and one forced dominated profile.  A refactor of the
graph, operator or report layers that changes any of them changes a number
the package prints; such a change must say why and update the digest.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from andlab.cli import main
from andlab.configs import FermiConfig, box_configs, distances_within
from andlab.msa import envelope_decay_fit, force_dominated, localization_report
from andlab.operators import assemble, diagonalize
from andlab.potential import AmplitudeField, HaarHull, config_potentials
from andlab.torus import ShiftSystem, preset_frequencies

README_CONFIG = {"n_particles": 2, "dim": 1, "seed": 7, "g": 20.0, "L0": 2,
                 "trials": 200, "window_sites": 6, "omega": 0.15}

GOLDEN = {
    "msa.json": "6501fa610a172d1504c10d47ea13c5557621fe79907bdd46dfb289fd93861ef7",
    "wegner report.json": "86da718b2edb8fa008283c12d3e7246da415da962033a51ca708f33b07a32550",
    "localization_report": "8cbe1419ea78afcf7fe670b84e2ac474be62247a65d4b051abb21b50d993db88",
    "envelope_decay_fit": "8daa707dcce1a2dcb7757f12e71e21f4e3ef15a5ba1121d0430b7b9bf17b4988",
    "force_dominated": "dd6ca8b64562f39c6868daa56e482a4fd9d4e7cf4638fb33cdb9c8c324b7dbc9",
}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _cli_report(tmp_path, command, name, *overrides):
    tmp_path.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "runs"
    args = [command, "--config", str(config), "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    main(args)
    (run_dir,) = [d for d in os.listdir(out) if d.startswith(command + "-")]
    return (out / run_dir / name).read_bytes()


def _window():
    system = ShiftSystem(preset_frequencies("golden", 1, 1))
    domain = box_configs(2, (0,), (13,))
    hull = HaarHull(0.5, 7, AmplitudeField(8))
    omega = np.array([0.11])
    vals = config_potentials(hull, system, omega, domain)
    spec = diagonalize(assemble(domain, vals, g=40.0))
    return spec, domain


def digests(tmp_path) -> dict:
    out = {
        "msa.json": _sha(_cli_report(tmp_path / "msa", "msa", "msa.json", "budget=30")),
        "wegner report.json": _sha(_cli_report(tmp_path / "wegner", "wegner",
                                               "report.json", "trials=8")),
    }
    spec, domain = _window()
    out["localization_report"] = _sha(repr(localization_report(spec, domain)))
    out["envelope_decay_fit"] = _sha(repr(envelope_decay_fit(spec, domain)))
    center = FermiConfig.make([(0,), (8,)])
    dom = sorted(distances_within(center, 6))
    rng = np.random.default_rng(7)
    f = force_dominated({c: float(rng.random()) for c in dom}, dom, center, 3, 1, 0.5)
    out["force_dominated"] = _sha(np.asarray([f[c] for c in dom]).tobytes())
    return out


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, computed):
    assert computed[name] == GOLDEN[name]

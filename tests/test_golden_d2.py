"""Golden digests of README-config CLI runs in d = 2.

The digests in ``test_golden.py`` all come from d = 1 runs, which never reach
the d >= 2 matching of the configuration metric.  These pin, bit for bit,
the ``msa`` report of a 2- and a 3-particle window and the ``localize``
reports of a 6-particle window, each on the README config with the listed
overrides.  The table also pins the ``localize`` reports of the README config
itself (d = 1, no overrides), the regime with many fitted and tied states.
"""

import pytest

from test_golden import _cli_report, _sha

GOLDEN_D2 = [
    ("msa", "msa.json", ("dim=2", "budget=600"),
     "dc33fb540f7ee4063ecc586ccdacc4a10e0f022f76d6b3a320ed899282fb5745"),
    ("msa", "msa.json", ("dim=2", "budget=600", "n_particles=3"),
     "021abca4214eeac621594ad84cd5379aef9336f09710739574e79f23f67c9290"),
    ("localize", "states.csv", ("n_particles=6", "dim=2", "window_sites=3"),
     "2906bb8d002158e92feef73bb53a0f84e8fa8b071ff88b4842d0cbc0bc57ddbb"),
    ("localize", "localize.json", ("n_particles=6", "dim=2", "window_sites=3"),
     "c097f17e2c8b869a15dc337591a03126a53ff3646928fac11d1893063d26c431"),
    ("localize", "states.csv", (),
     "f2764b2b795aa1c7dd6d5275e59567aba12c51a9d3735d45dc5229448feec926"),
    ("localize", "localize.json", (),
     "6f7aba3ca912c94c8e82e19190196d70934abbcfa76f12b7fee7b0438bc2cd9c"),
]


@pytest.mark.parametrize("command, name, overrides, digest", GOLDEN_D2,
                         ids=[f"{c}-{n}-{'-'.join(o)}" for c, n, o, _ in GOLDEN_D2])
def test_golden_digest_d2(tmp_path, command, name, overrides, digest):
    assert _sha(_cli_report(tmp_path / "run", command, name, *overrides)) == digest

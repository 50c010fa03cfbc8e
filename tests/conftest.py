"""Shared fixtures and the acceptance-line reporter.

Acceptance tests push one "PASS"/"FAIL" line per criterion into
ACCEPTANCE_LINES; the terminal-summary hook prints them after the run so the
lines survive pytest's output capture.
"""

import math

import numpy as np
import pytest

from andlab import configs
from andlab.msa import envelope_matrix

ACCEPTANCE_LINES = []


@pytest.fixture
def fresh_graphs():
    """An empty ``configs.domain_graph`` cache, so a test that counts graph
    builds or neighbour searches sees the ones its own calls make."""
    configs._graphs.clear()
    yield
    configs._graphs.clear()


@pytest.fixture
def neighbor_calls(monkeypatch, fresh_graphs):
    """List of every configuration the configuration-graph searches expand."""
    calls = []

    def counted(x, real=configs.neighbors):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(configs, "neighbors", counted)
    return calls


def _propagator_excess(spec, times):
    """Worst |<x| e^{-itH} |y>| minus ``envelope_matrix`` over the sampled
    times.  The envelope bounds every propagator entry by the triangle
    inequality, so the excess is nonpositive up to rounding on any input: a
    rounding check of ``envelope_matrix``, not a claim about localization."""
    env = envelope_matrix(spec)
    worst = -math.inf
    for t in np.atleast_1d(times):
        phase = np.exp(-1j * float(t) * spec.eigenvalues)
        prop = (spec.eigenvectors * phase) @ spec.eigenvectors.T
        worst = max(worst, float(np.max(np.abs(prop) - env)))
    return worst


def record_criterion(number, ok, label):
    line = "criterion %2d %s  %s" % (number, "PASS" if ok else "FAIL", label)
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)

"""Shared fixtures and the acceptance-line reporter.

Acceptance tests push one "PASS"/"FAIL" line per criterion into
ACCEPTANCE_LINES; the terminal-summary hook prints them after the run so the
lines survive pytest's output capture.
"""

import pytest

from andlab import configs

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

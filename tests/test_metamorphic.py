"""Metamorphic check: scaling the grid and g by one factor keeps every status.

The rational R(k1, k2) = ((k1 - k2) I + i g P) / (k1 - k2 + i g) depends on
the momenta only through (k1 - k2) / g, and the identity reflection on none,
so scaling the grid and g of the default config by λ leaves every identity of
R, a, a†, T, b and the boundary generators as true as it was.  H(n) scales
by λ^n, and so does each charge residual: at λ < 1 none may grow past the
tolerance.  A charge applied with a different roundoff or prune where the
weights k^n are small would turn some record's status here.
"""

import pytest

from zfcheck.harness import RunConfig, config_from_dict, run_suites

LAMBDAS = (1e-2, 1e-3)


def skeleton(report):
    """Each record's suite, relation, sample, status and cause, in order."""
    return [(r.suite, r.relation, r.sample, r.status, r.cause) for r in report.records]


@pytest.fixture(scope="module")
def unscaled():
    return run_suites(RunConfig())


@pytest.mark.parametrize("lam", LAMBDAS)
def test_scaling_grid_and_coupling_keeps_every_status(unscaled, lam):
    base = RunConfig()
    cfg = config_from_dict({"grid": [lam * k for k in base.grid], "g": lam * base.g})
    report = run_suites(cfg)
    assert skeleton(report) == skeleton(unscaled)
    assert report.counts == unscaled.counts

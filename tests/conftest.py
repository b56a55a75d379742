import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from zfcheck.boundary import BoundaryContext
from zfcheck.fock import FockSpace, FockState, SpectralGrid
from zfcheck.relations import one_hot
from zfcheck.rmatrix import ReflectionMatrixSpec, eval_r, identity_b, phase_diagonal_b, rational_r
from zfcheck.vertex import VertexContext

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance-gate verdict lines collected by test_acceptance."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

GRID = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)


@pytest.fixture(scope="session")
def grid():
    return SpectralGrid(GRID)


@pytest.fixture(scope="session")
def rspec():
    return rational_r(2, 0.7)


@pytest.fixture(scope="session")
def space(grid, rspec):
    return FockSpace(grid, rspec, n_max=3)


@pytest.fixture(scope="session")
def space4(grid, rspec):
    # One extra unit of particle headroom, for double-creation relations
    # measured on two-particle samples.
    return FockSpace(grid, rspec, n_max=4)


@pytest.fixture(scope="session")
def bspec_identity():
    return identity_b(2)


@pytest.fixture(scope="session")
def bspec_phase():
    return phase_diagonal_b(2, 1.0, [1, -1])


@pytest.fixture(scope="session")
def vctx(space, bspec_phase):
    return VertexContext(space, bspec_phase)


@pytest.fixture(scope="session")
def vctx_id(space, bspec_identity):
    return VertexContext(space, bspec_identity)


@pytest.fixture(scope="session")
def vctx4(space4, bspec_phase):
    return VertexContext(space4, bspec_phase)


@pytest.fixture(scope="session")
def bctx(vctx):
    return BoundaryContext(vctx)


@pytest.fixture(scope="session")
def bctx_id(vctx_id):
    return BoundaryContext(vctx_id)


@pytest.fixture(scope="session")
def bctx4(vctx4):
    return BoundaryContext(vctx4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


def random_state(rng, space, n, terms=2):
    """Random n-particle state with distinct momenta, peak amplitude 1."""
    words = []
    while len(words) < terms:
        gs = sorted(int(x) for x in rng.choice(len(space.grid), size=n, replace=False))
        cs = [int(c) for c in rng.integers(0, space.N, size=n)]
        w = tuple(zip(gs, cs))
        if w not in words:
            words.append(w)
    s = FockState(
        {w: complex(rng.standard_normal(), rng.standard_normal()) for w in words}
    )
    return s.scaled(1.0 / s.maxamp())


def gauge(k, N):
    """G(k) = diag_j(e^{0.3ik(j+1)^2} (1 + 0.2j tanh k)): k-dependent and not unitary."""
    j = np.arange(N)
    return np.diag(np.exp(0.3j * k * (j + 1) ** 2) * (1 + 0.2 * j * np.tanh(k)))


def gauged_r(rspec, k1, k2):
    """(G(k1) (x) G(k2)) R(k1, k2) (G(k1) (x) G(k2))^-1.

    A change of basis on each leg keeps YBE, unitarity and R(k, k) = P, but
    the gauged value does not commute with P, so it tells the two legs of a
    pair matrix apart where the rational R cannot.
    """
    g = np.kron(gauge(k1, rspec.N), gauge(k2, rspec.N))
    return g @ eval_r(rspec, k1, k2) @ np.linalg.inv(g)


def exp_reflection(x):
    """B(k) = exp(kX), from numpy's eigendecomposition of a real X with distinct eigenvalues.

    B(k) B(-k) = I holds to roundoff for any X, but the reflection equation
    with the rational R does not hold for a generic X.
    """
    lam, v = np.linalg.eig(np.asarray(x, dtype=float))
    v_inv = np.linalg.inv(v)
    return ReflectionMatrixSpec(
        N=len(lam), family="exp(kX)",
        evaluator=lambda k: ((v * np.exp(k * lam)) @ v_inv).astype(complex),
    )


def at_component(bctx, i, k, state):
    """at_i(k) state: row i of the at(k) column on the 1-vector [state]."""
    return bctx.apply_a_tilde(k, [[state]])[0][i]


def atdag_component(bctx, i, k, state):
    """at†_i(k) state: the at†(k) row on the one-hot vector of color i."""
    return bctx.apply_a_tilde_dagger(k, [one_hot(state, bctx.N)[i]])[0][0]

"""Acceptance gate: six end-to-end criteria, one summary line each.

Every test here measures a criterion at its stated tolerance and appends a
single PASS/FAIL line to ``LINES``; the conftest terminal-summary hook prints
them at the end of the run.  Tolerances are written literally at the call
sites so a reader can audit the gate without chasing constants.
"""

import itertools
import json
from functools import partial

import numpy as np
import pytest

from conftest import atdag_component, relation
from oracles import aux_entries, dense_T_oracle, max_entry_deviation
from zfcheck.boundary import BoundaryContext
from zfcheck.cli import main
from zfcheck.fock import FockSpace, FockState, SpectralGrid
from zfcheck.harness import RunConfig, random_state, render_json, run_suites
from zfcheck.hierarchy import apply_H, check_symmetry_breaking
from zfcheck.rmatrix import (
    RMatrixSpec,
    check_unitarity,
    check_yang_baxter,
    eval_b,
    eval_r,
    identity_b,
    lift_pair,
    max_abs,
    phase_diagonal_b,
    rational_r,
    worst_over,
)
from zfcheck.vertex import VertexContext

LINES: list[str] = []

GRID = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
SEED = 20260816
SEVEN = ("BNl-1", "BNl-2", "BNl-3", "BNl-4", "BNl-5", "eq:bb", "rbrb")
SUBSTITUTION = ("rhoB-aa", "rhoB-adad", "rhoB-aad", "rhoB-involution", "coset")


def conclude(slot: int, label: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(desc for desc, _ in checks)
    line = f"[{slot}/6] {label}: {status} ({detail})"
    LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def rspec():
    return rational_r(2, 0.7)


@pytest.fixture(scope="module")
def spaces(rspec):
    grid = SpectralGrid(GRID)
    return {n: FockSpace(grid, rspec, n_max=n) for n in (3, 4, 5)}


def _samples(space, rng, sectors, per=2):
    out = [("vac", space.vacuum())]
    for n in sectors:
        for i in range(per):
            out.append((f"{n}p-{i}", random_state(rng, space, n)))
    return out


def test_exchange_matrix_identities(rspec):
    # 50 random triples and pairs, then two controls that must blow up.
    rng = np.random.default_rng(SEED)
    ybe = 0.0
    for _ in range(50):
        k1, k2, k3 = rng.uniform(-3.0, 3.0, size=3)
        ybe = max(ybe, check_yang_baxter(rspec, k1, k2, k3).value)
    unit = 0.0
    for _ in range(50):
        k1, k2 = rng.uniform(-3.0, 3.0, size=2)
        unit = max(unit, check_unitarity(rspec, k1, k2).value)

    def scaled(k1, k2, base=rspec.evaluator):
        return 1.01 * base(k1, k2)

    bad = RMatrixSpec(N=2, evaluator=scaled, family="scaled")
    control_unit = check_unitarity(bad, 0.9, -1.7).value
    k1, k2, k3 = 0.4, -0.6, 1.1
    a = lift_pair(eval_r(rspec, k1, k2), 3, 0, 1, 2)
    b = lift_pair(np.eye(4, dtype=complex), 3, 0, 2, 2)
    c = lift_pair(eval_r(rspec, k2, k3), 3, 1, 2, 2)
    control_ybe = max_abs(a @ b @ c - c @ b @ a)

    conclude(
        1,
        "exchange-matrix identities",
        [
            (f"YBE max {ybe:.2e} < 1e-12 over 50 triples", ybe < 1e-12),
            (f"unitarity max {unit:.2e} < 1e-12 over 50 pairs", unit < 1e-12),
            (
                f"negative controls {control_unit:.2e}, {control_ybe:.2e} > 1e-2",
                control_unit > 1e-2 and control_ybe > 1e-2,
            ),
        ],
    )


def test_bulk_exchange_algebra_extensional(spaces):
    # Every ordered grid pair, against the whole <=2-particle canonical
    # basis plus 16 random 3-particle states, plus rewrite confluence.
    space4, space5 = spaces[4], spaces[5]
    basis = [space4.vacuum()]
    for n in (1, 2):
        basis.extend(space4.basis_state(w) for w in space4.canonical_words(n))
    rng = np.random.default_rng(SEED + 1)
    randoms = [random_state(rng, space5, 3) for _ in range(16)]

    pairs = list(itertools.product(GRID, GRID))
    worst_basis = 0.0
    for k1, k2 in pairs:
        fns = [relation("fock", tag, space4, k1, k2) for tag in ("AN-1", "AN-2", "AN-3")]
        for s in basis:
            for fn in fns:
                worst_basis = max(worst_basis, fn(s))
    worst_random = 0.0
    for k1, k2 in pairs:
        fns = [relation("fock", tag, space5, k1, k2) for tag in ("AN-1", "AN-2", "AN-3")]
        for s in randoms:
            for fn in fns:
                worst_random = max(worst_random, fn(s))

    space3 = spaces[3]
    G = len(GRID)
    confluence = relation("fock", "confluence", space3)
    worst_conf = 0.0
    for _ in range(10):
        gs = [int(g) for g in rng.integers(0, G, size=3)]  # repeats allowed
        cs = [int(c) for c in rng.integers(0, 2, size=3)]
        word = tuple(zip(gs, cs))
        for perm in itertools.permutations(range(3)):
            shuffled = tuple(word[p] for p in perm)
            worst_conf = max(
                worst_conf, confluence(FockState({shuffled: 1.0 + 0j}))
            )

    conclude(
        2,
        "bulk exchange algebra",
        [
            (
                f"basis sweep max {worst_basis:.2e} < 1e-10 "
                f"({len(pairs)} pairs x {len(basis)} states x 3 relations)",
                worst_basis < 1e-10,
            ),
            (
                f"16 random 3-particle states max {worst_random:.2e} < 1e-10",
                worst_random < 1e-10,
            ),
            (f"confluence max {worst_conf:.2e} < 1e-12", worst_conf < 1e-12),
        ],
    )


def test_vertex_operator(spaces):
    space = spaces[3]
    ctx = VertexContext(space, phase_diagonal_b(2, 1.0, [1, -1]))
    rng = np.random.default_rng(SEED + 2)

    vac = space.vacuum()
    vac_worst = max(relation("vertex", "TOmega", ctx, k0)(vac) for k0 in (0.5, -2.0, 3.0))

    samples = _samples(space, rng, (1, 2))
    deep = _samples(space, rng, (1, 2, 3))
    inter = 0.0
    for k0, k in ((0.5, 1.0), (2.0, 2.0), (-1.0, 1.0), (3.0, -3.0)):
        fns = [relation("vertex", tag, ctx, k0, k) for tag in ("defT-adag", "defT-a")]
        for _, s in samples:
            inter = max(inter, *(fn(s) for fn in fns))
    rtt = 0.0
    for k1, k2 in ((0.5, 1.0), (2.0, 2.0), (-1.0, 1.0), (3.0, -3.0)):
        fn = relation("vertex", "rtt", ctx, k1, k2)
        for _, s in deep:
            rtt = max(rtt, fn(s))
    roundtrip = 0.0
    for k0 in (0.5, -2.0, 3.0):
        fn = relation("vertex", "T-inverse", ctx, k0)
        for _, s in deep:
            roundtrip = max(roundtrip, fn(s))

    oracle = 0.0
    for k0 in (0.5, -2.0):
        for n in (0, 1, 2, 3):
            words = [()] if n == 0 else space.canonical_words(n)
            for w in words:
                s = space.basis_state(w)
                got = aux_entries(partial(ctx.apply_T, k0), s, ctx.N)
                want = dense_T_oracle(space, k0, s)
                oracle = max(oracle, max_entry_deviation(got, want))

    conclude(
        3,
        "vertex operator",
        [
            (f"vacuum fixed exactly (max {vac_worst:.1e})", vac_worst == 0.0),
            (f"intertwining max {inter:.2e} < 1e-11", inter < 1e-11),
            (f"RTT max {rtt:.2e} < 1e-11", rtt < 1e-11),
            (f"inverse roundtrip max {roundtrip:.2e} < 1e-11", roundtrip < 1e-11),
            (
                f"dense-sector oracle max {oracle:.2e} < 1e-12 on sectors 0..3",
                oracle < 1e-12,
            ),
        ],
    )


def test_boundary_algebra_two_families(spaces):
    space4 = spaces[4]
    rng = np.random.default_rng(SEED + 3)
    pairs = ((1.0, 2.0), (1.0, 1.0), (2.0, -2.0), (-3.0, 1.0))
    checks = []
    for name, bspec in (
        ("identity", identity_b(2)),
        ("k-dependent-diagonal", phase_diagonal_b(2, 1.0, [1, -1])),
    ):
        ctx = BoundaryContext(VertexContext(space4, bspec))
        samples = _samples(space4, rng, (1, 2))
        seven = 0.0
        for k1, k2 in pairs:
            fns = [relation("boundary", tag, ctx, k1, k2) for tag in SEVEN]
            for _, s in samples:
                for fn in fns:
                    seven = max(seven, fn(s))
        rho = 0.0
        for k in (1.0, -2.0, 3.0):
            fn = relation("boundary", "rho", ctx, k)
            for _, s in samples:
                rho = max(rho, fn(s))
        rhob = 0.0
        coset = 0.0
        for k1, k2 in pairs:
            fns = {tag: relation("boundary", tag, ctx, k1, k2) for tag in SUBSTITUTION}
            for _, s in samples:
                coset = max(coset, fns["coset"](s))
                for tag in ("rhoB-aa", "rhoB-adad", "rhoB-aad", "rhoB-involution"):
                    rhob = max(rhob, fns[tag](s))
        checks.extend(
            [
                (
                    f"{name}: 7 relations max {seven:.2e} < 1e-10 "
                    "(generic/equal/opposite pairs)",
                    seven < 1e-10,
                ),
                (f"{name}: twist identity max {rho:.2e} < 1e-11", rho < 1e-11),
                (f"{name}: substitution max {rhob:.2e} < 1e-10", rhob < 1e-10),
                (f"{name}: coset max {coset:.2e} < 1e-13", coset < 1e-13),
            ]
        )
    conclude(4, "boundary algebra, both families", checks)


def test_conserved_charges(spaces):
    space = spaces[3]
    rng = np.random.default_rng(SEED + 4)
    ctx = BoundaryContext(VertexContext(space, phase_diagonal_b(2, 1.0, [1, -1])))

    eigen = 0.0
    for k in (1.0, 2.0, 3.0):
        for i in range(2):
            dressed = atdag_component(ctx, i, k, space.vacuum())
            image = apply_H(ctx, 2, dressed)
            eigen = max(eigen, (image - dressed.scaled(k**2)).maxamp())

    samples = _samples(space, rng, (1, 2, 3))
    odd = 0.0
    for order in (1, 3, 5):
        for _, s in samples:
            odd = max(odd, apply_H(ctx, order, s).maxamp())

    flow_samples = [s for _, s in _samples(space, rng, (1, 2))]
    commute = worst_over(relation("hierarchy", "H-commute", ctx, 2, 4), flow_samples).value
    iom = 0.0
    for order in (2, 4):
        for k in (1.0, -2.0):
            fn = relation("hierarchy", "H-iom", ctx, order, k)
            iom = max(iom, worst_over(fn, flow_samples).value)

    vacuum = 0.0
    broken_ok = True
    for bspec in (identity_b(2), phase_diagonal_b(2, 1.0, [1, -1])):
        bctx = BoundaryContext(VertexContext(space, bspec))
        rep = check_symmetry_breaking(bctx)
        vacuum = max(vacuum, rep.residual.value)
        support = set()
        for k in GRID:
            bmat = eval_b(bspec, k)
            for i in range(2):
                for j in range(2):
                    if abs(bmat[i, j]) > 1e-13:
                        support.add((i, j))
        broken_ok = broken_ok and rep.broken == tuple(sorted(support))

    conclude(
        5,
        "conserved charges",
        [
            (
                f"quadratic charge eigenvalues k^2 max {eigen:.2e} < 1e-11",
                eigen < 1e-11,
            ),
            (f"orders 1,3,5 annihilate max {odd:.2e} < 1e-10", odd < 1e-10),
            (f"orders 2,4 commute max {commute:.2e} < 1e-9", commute < 1e-9),
            (f"charges fix reflection ops max {iom:.2e} < 1e-9", iom < 1e-9),
            (
                f"vacuum reflection values max {vacuum:.2e} < 1e-12, "
                "broken pairs = matrix support",
                vacuum < 1e-12 and broken_ok,
            ),
        ],
    )


def test_determinism_and_exit_codes(tmp_path, capsys):
    first = render_json(run_suites(RunConfig()))
    second = render_json(run_suites(RunConfig()))
    byte_identical = first == second

    small = {
        "grid": [-1.0, 1.0],
        "n_max": 2,
        "samples_per_sector": {"1": 1, "2": 1},
        "rmatrix_samples": 5,
    }
    green = tmp_path / "green.json"
    green.write_text(json.dumps(small))
    red = tmp_path / "red.json"
    red.write_text(
        json.dumps(
            {
                **small,
                "reflection": {
                    "family": "constant-diagonal",
                    "entries": [2.0, 1.0],
                },
            }
        )
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")

    code_pass = main(["verify", "--config", str(green)])
    code_fail = main(["verify", "--config", str(red)])
    code_cfg = main(["verify", "--config", str(broken)])
    capsys.readouterr()

    conclude(
        6,
        "determinism and exit codes",
        [
            (
                "two identical runs render byte-identical reports",
                byte_identical,
            ),
            (
                f"exit codes (pass, fail, config) = "
                f"({code_pass}, {code_fail}, {code_cfg})",
                (code_pass, code_fail, code_cfg) == (0, 1, 2),
            ),
        ],
    )

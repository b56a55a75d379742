"""Vertex operator closed form vs the push-through recursion, plus b(k)."""

import math
from functools import partial
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GRID, exp_reflection, random_state
from oracles import (
    aux_entries,
    dense_b_oracle,
    dense_chain_inv_oracle,
    dense_chain_oracle,
    dense_T_oracle,
    dense_operator_matrix,
    max_entry_deviation,
    scalar_times_state,
    word_matrix_map_oracle,
)
from zfcheck import harness, rmatrix, vertex
from zfcheck.errors import GridDomainError, NotWhitelistedError
from zfcheck.fock import FockSpace, FockState, SpectralGrid, states_equal
from zfcheck.harness import RunConfig, build_reflection, config_from_dict, run_suites
from zfcheck.relations import NumMat, identity_residual, one_hot
from zfcheck.rmatrix import (
    constant_diagonal_b,
    eval_b,
    eval_r,
    identity_b,
    phase_diagonal_b,
    rational_r,
    worst_over,
)
from zfcheck.vertex import (
    VertexContext,
    b_exchange_evaluators,
    b_involution_evaluator,
    b_vacuum_evaluator,
    rtt_evaluator,
    t_inverse_evaluator,
    t_relation_evaluators,
    t_vacuum_evaluator,
)

AUX_MOMENTA = (0.5, -2.0, 3.0)
AUX_BUILD_MOMENTA = (0.37, -1.6, 2.2)


class TestVacuumAction:
    @pytest.mark.parametrize("k0", AUX_MOMENTA)
    def test_T_fixes_vacuum_exactly(self, vctx, k0):
        res = t_vacuum_evaluator(vctx, k0)(vctx.space.vacuum())
        assert res == 0.0

    def test_b_vacuum_is_numeric_reflection_matrix(self, vctx):
        for k in vctx.grid:
            res = b_vacuum_evaluator(vctx, k)(vctx.space.vacuum())
            assert res < 1e-13

    def test_b_vacuum_identity_family(self, vctx_id):
        res = b_vacuum_evaluator(vctx_id, 1.0)(vctx_id.space.vacuum())
        assert res < 1e-14


class TestOneParticle:
    def test_T_on_single_creation_matches_direct_contraction(self, vctx):
        # (T(k0) a†_c(k) vac)_{il} = sum_{c'} R(k0,k)[(i,c'),(l,c)] a†_{c'}(k) vac
        space = vctx.space
        N = vctx.N
        k0, k = 0.7, 2.0
        mat = eval_r(space.r, k0, k)
        vac = space.vacuum()
        for c in range(N):
            got = aux_entries(partial(vctx.apply_T, k0), space.apply_creation(c, k, vac), N)
            for i in range(N):
                for l in range(N):
                    want = sum(
                        (
                            space.apply_creation(cp, k, vac).scaled(
                                mat[i * N + cp, l * N + c]
                            )
                            for cp in range(N)
                        ),
                        start=space.vacuum().scaled(0.0),
                    )
                    assert (got[i, l] + want.scaled(-1.0)).maxamp() < 1e-15


class TestDenseOracle:
    """The chain-matrix closed form against the defining-relation recursion."""

    @pytest.mark.parametrize("k0", AUX_MOMENTA)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_apply_T_matches_recursion(self, vctx, rng, k0, n):
        s = random_state(rng, vctx.space, n)
        got = aux_entries(partial(vctx.apply_T, k0), s, vctx.N)
        want = dense_T_oracle(vctx.space, k0, s)
        assert max_entry_deviation(got, want) < 1e-12

    def test_apply_T_matches_recursion_on_repeated_momenta(self, vctx):
        space = vctx.space
        s = space.basis_state(((2, 0), (2, 1), (4, 1)))
        got = aux_entries(partial(vctx.apply_T, -1.3), s, vctx.N)
        want = dense_T_oracle(space, -1.3, s)
        assert max_entry_deviation(got, want) < 1e-12


@pytest.fixture(scope="module")
def block_ctx():
    """Per N, the default config's grid and coupling with a k-dependent b."""
    out = {}
    for N in (2, 3):
        cfg = config_from_dict(
            {
                "N": N,
                "reflection": {
                    "family": "k-dependent-diagonal",
                    "c": 1.0,
                    "signs": [(-1) ** c for c in range(N)],
                },
            }
        )
        space = FockSpace(SpectralGrid(cfg.grid), rational_r(N, cfg.g), n_max=3, prune=cfg.prune)
        out[N] = VertexContext(space, build_reflection(cfg))
    return out

# (operator, matrix it reads, momentum) for the three closed-form maps.
MAPS = (
    ("apply_T", "chain", 0.37),
    ("apply_T_inverse", "chain_inv", -1.6),
    ("apply_b", "b_matrix", 2.0),
)


def _block_deviation(ctx: VertexContext, state: FockState) -> float:
    """Largest gap between the block contraction and the word-by-word oracle."""
    worst = 0.0
    for op, matrix, k in MAPS:
        got = aux_entries(partial(getattr(ctx, op), k), state, ctx.N)
        want = word_matrix_map_oracle(ctx, lambda gs: getattr(ctx, matrix)(k, gs), state)
        worst = max(worst, max_entry_deviation(got, want))
    return worst


class TestBlockContraction:
    """The momentum-block contraction against the word-by-word oracle."""

    @pytest.mark.parametrize("N", [2, 3])
    def test_every_basis_word(self, block_ctx, N):
        ctx = block_ctx[N]
        for n in range(4):
            for word in ctx.space.canonical_words(n):
                assert _block_deviation(ctx, ctx.space.basis_state(word)) <= 1e-13, word

    @pytest.mark.parametrize("N", [2, 3])
    def test_whole_blocks(self, block_ctx, N):
        # Every color assignment of one momentum tuple in one state.  Inside
        # an equal-momentum run, each color order is its own basis word.
        ctx = block_ctx[N]
        for gs in ((1,), (0, 4), (2, 2), (1, 3, 3), (5, 5, 5)):
            words = [w for w in ctx.space.canonical_words(len(gs)) if tuple(g for g, _ in w) == gs]
            state = FockState({w: complex(1 + t, -0.5 * t) for t, w in enumerate(words)})
            assert _block_deviation(ctx, state) <= 1e-13, gs

    @given(
        N=st.sampled_from([2, 3]),
        blocks=st.lists(
            st.tuples(
                st.lists(st.integers(0, len(GRID) - 1), max_size=3),
                st.lists(st.integers(0, 26), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=3,
        ),
        amps=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=12, max_size=12),
    )
    def test_drawn_combinations(self, block_ctx, N, blocks, amps):
        # Each drawn block is one momentum tuple with a few color codes.
        ctx = block_ctx[N]
        words = set()
        for momenta, codes in blocks:
            gs = sorted(momenta)
            for code in codes:
                words.add(tuple((g, code // N**p % N) for p, g in enumerate(gs)))
        state = FockState(dict(zip(sorted(words), amps)))
        assert _block_deviation(ctx, state) <= 1e-13


class TestLinearity:
    """A batch of multi-column aux vectors against sums of one-hot images."""

    @given(
        N=st.sampled_from([2, 3]),
        columns=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 3), st.integers(0, 10**6), st.complex_numbers(max_magnitude=2.0)
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=9,
        ),
    )
    def test_vector_image_is_sum_of_one_hot_images(self, block_ctx, N, columns):
        # Each drawn column is a few (sector, word pick, amplitude) triples;
        # consecutive runs of N columns make one aux vector.
        ctx = block_ctx[N]
        sectors = [ctx.space.canonical_words(n) for n in range(4)]

        def word(n, pick):
            return ctx.space.basis_state(sectors[n][pick % len(sectors[n])])

        states = [FockState.combine((a, word(n, pick)) for n, pick, a in col) for col in columns]
        states += [FockState()] * (-len(states) % N)
        vecs = [states[v : v + N] for v in range(0, len(states), N)]
        zero = FockState()
        for op, _, k in MAPS:
            apply = getattr(ctx, op)
            images = apply(k, vecs)
            assert len(images) == len(vecs)
            for vec, image in zip(vecs, images):
                one_hots = [
                    apply(k, [[s if c == l else zero for c in range(N)]])[0]
                    for l, s in enumerate(vec)
                ]
                for i in range(N):
                    want = FockState.combine((1.0, oh[i]) for oh in one_hots)
                    assert states_equal(image[i], want, tol=0.0)[1] <= 1e-13, (op, i)


class TestSeamCoverage:
    def test_every_contraction_goes_through_a_seam(self, monkeypatch):
        # The vertex mutants patch apply_T, apply_T_inverse and apply_b; a
        # contraction that bypassed them would hide from those mutants.
        depth = [0]
        seen = []  # the seam depth of each contraction
        contract = VertexContext._contract

        def spied_contract(self, *args):
            seen.append(depth[0])
            return contract(self, *args)

        def seam(original):
            def method(*args, **kwargs):
                depth[0] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return method

        monkeypatch.setattr(VertexContext, "_contract", spied_contract)
        for name in ("apply_T", "apply_T_inverse", "apply_b"):
            monkeypatch.setattr(VertexContext, name, seam(getattr(VertexContext, name)))
        report = run_suites(RunConfig())
        assert report.counts["pass"] > 0 and not report.failed
        assert seen, "no contraction ran"
        bypassed = seen.count(0)
        assert not bypassed, f"{bypassed} contractions bypassed the three apply_* seams"


class TestInverse:
    @pytest.mark.parametrize("k0", AUX_MOMENTA)
    def test_roundtrip_is_identity(self, vctx, rng, k0):
        fn = t_inverse_evaluator(vctx, k0)
        for n in (1, 2, 3):
            assert fn(random_state(rng, vctx.space, n)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_dense_inverse_matrix(self, vctx, n):
        # The sector matrix of T(k0)^-1 must be the literal matrix inverse.
        k0 = 1.7
        fwd, _ = dense_operator_matrix(
            vctx.space, n, lambda s: aux_entries(partial(vctx.apply_T, k0), s, vctx.N)
        )
        bwd, _ = dense_operator_matrix(
            vctx.space, n, lambda s: aux_entries(partial(vctx.apply_T_inverse, k0), s, vctx.N)
        )
        assert np.max(np.abs(bwd - np.linalg.inv(fwd))) < 1e-11

    def test_far_aux_momentum_flattens_T(self, vctx, rng):
        # R(k0, k) -> identity as k0 grows, so T approaches the identity.
        k0 = 1e9
        for n in (1, 2):
            s = random_state(rng, vctx.space, n)
            got = aux_entries(partial(vctx.apply_T, k0), s, vctx.N)
            want = scalar_times_state(np.eye(vctx.N), s)
            assert max_entry_deviation(got, want) < 1e-8


class TestIntertwining:
    PAIRS = ((0.5, 1.0), (2.0, 2.0), (-1.0, 1.0), (3.0, -3.0))

    @pytest.mark.parametrize("k0,k", PAIRS)
    def test_defining_relations(self, vctx, rng, k0, k):
        fns = t_relation_evaluators(vctx, k0, k)
        for n in (1, 2):
            s = random_state(rng, vctx.space, n)
            for tag, fn in fns.items():
                cap = vctx.space.n_max - fn.headroom
                if n <= cap:
                    assert fn(s) < 1e-11, (tag, n)

    def test_defining_relations_three_particles(self, vctx4, rng):
        fns = t_relation_evaluators(vctx4, 0.9, -2.0)
        s = random_state(rng, vctx4.space, 3)
        for tag, fn in fns.items():
            assert fn(s) < 1e-11, tag

    @pytest.mark.parametrize("k1,k2", PAIRS)
    def test_rtt(self, vctx, rng, k1, k2):
        fn = rtt_evaluator(vctx, k1, k2)
        for n in (1, 2, 3):
            assert fn(random_state(rng, vctx.space, n)) < 1e-11

    def test_check_wrappers_report_parts(self, vctx, rng):
        samples = [random_state(rng, vctx.space, 1)]
        fns = t_relation_evaluators(vctx, 0.5, 1.0)
        assert set(fns) == {"defT-a", "defT-adag"}
        for tag, fn in fns.items():
            assert worst_over(fn, samples).value < 1e-11, tag
        assert worst_over(t_inverse_evaluator(vctx, 0.5), samples).value < 1e-12


class TestDressedReflection:
    def test_involution_phase_family(self, vctx, rng):
        for k in (1.0, 2.0, -3.0):
            fn = b_involution_evaluator(vctx, k)
            for n in (1, 2, 3):
                assert fn(random_state(rng, vctx.space, n)) < 1e-11

    def test_involution_identity_family(self, vctx_id, rng):
        fn = b_involution_evaluator(vctx_id, 2.0)
        assert fn(random_state(rng, vctx_id.space, 2)) < 1e-11

    @pytest.mark.parametrize("k1,k2", [(1.0, 2.0), (1.0, 1.0), (2.0, -2.0), (-3.0, 1.0)])
    def test_exchange_trio(self, vctx, rng, k1, k2):
        fns = b_exchange_evaluators(vctx, k1, k2)
        for n in (1, 2):
            s = random_state(rng, vctx.space, n)
            for tag, fn in fns.items():
                cap = vctx.space.n_max - fn.headroom
                if n <= cap:
                    assert fn(s) < 1e-10, (tag, n)

    def test_exchange_trio_three_particles(self, vctx4, rng):
        fns = b_exchange_evaluators(vctx4, 2.0, -1.0)
        s = random_state(rng, vctx4.space, 3)
        for tag, fn in fns.items():
            assert fn(s) < 1e-10, tag

    def test_check_wrappers(self, vctx, rng):
        samples = [random_state(rng, vctx.space, 1)]
        assert worst_over(b_involution_evaluator(vctx, 1.0), samples).value < 1e-11
        fns = b_exchange_evaluators(vctx, 1.0, 2.0)
        assert set(fns) == {"eq:ab", "eq:bad", "eq:bb"}
        for tag, fn in fns.items():
            assert worst_over(fn, samples).value < 1e-10, tag


@pytest.fixture(scope="module")
def vctx_bad(space):
    return VertexContext(space, constant_diagonal_b([2.0, 1.0]))


@pytest.fixture(scope="module")
def vctx_ungated(space):
    # The same failing family under a whitelist tolerance nothing exceeds.
    return VertexContext(space, constant_diagonal_b([2.0, 1.0]), whitelist_tol=math.inf)


class TestWhitelistGate:
    def test_failed_family_blocks_b(self, vctx_bad):
        assert not vctx_bad.b_allowed()
        with pytest.raises(NotWhitelistedError, match="whitelist"):
            vctx_bad.apply_b(1.0, one_hot(vctx_bad.space.vacuum(), vctx_bad.N))

    @pytest.mark.parametrize(
        "refl,ok",
        [
            ({"family": "identity"}, True),
            ({"family": "constant-diagonal", "entries": [2.0, 1.0]}, False),
            ({"family": "k-dependent-diagonal", "c": 1.0, "signs": [1, -1]}, True),
            ({"family": "table", "path": "flip.tab"}, True),
        ],
        ids=lambda v: v["family"] if isinstance(v, dict) else str(v),
    )
    def test_b_allowed_is_the_gate_verdict(self, space, tmp_path, refl, ok):
        # No family is exempt from the gate, the identity included.
        (tmp_path / "flip.tab").write_text("".join(f"{k} 0 1 1 0\n" for k in GRID))
        cfg = config_from_dict({"reflection": refl}, base_dir=tmp_path)
        ctx = VertexContext(space, build_reflection(cfg))
        assert ctx.whitelist.ok is ok
        assert ctx.b_allowed() == ctx.whitelist.ok

    def test_t_layer_unaffected_by_gate(self, vctx_bad, rng):
        s = random_state(rng, vctx_bad.space, 1)
        fn = rtt_evaluator(vctx_bad, 0.5, 2.0)
        assert fn(s) < 1e-11

    def test_failed_gate_blocks_every_b_evaluator(self, vctx_bad, rng):
        # The evaluators build; the first b they apply raises.
        s = random_state(rng, vctx_bad.space, 1)
        fns = [*b_exchange_evaluators(vctx_bad, 1.0, 2.0).values()]
        fns += [b_involution_evaluator(vctx_bad, 1.0), b_vacuum_evaluator(vctx_bad, 1.0)]
        for fn in fns:
            with pytest.raises(NotWhitelistedError, match="whitelist"):
                fn(s)

    def test_infinite_tolerance_admits_the_family_and_exposes_the_failure(
        self, vctx_ungated, rng
    ):
        # A tolerance of inf admits the failing family: b exists, its worst
        # gate residual is on record, and the pair exchange identity breaks.
        # That breakage is what the gate keeps out of a run.
        assert vctx_ungated.b_allowed()
        assert vctx_ungated.whitelist.max_residual == 3.0
        s = random_state(rng, vctx_ungated.space, 1)
        fns = b_exchange_evaluators(vctx_ungated, 1.0, 2.0)
        assert fns["eq:bb"](s) > 1e-3

    def test_infinite_tolerance_vacuum_value_still_matches_numeric_matrix(self, vctx_ungated):
        res = b_vacuum_evaluator(vctx_ungated, 1.0)(vctx_ungated.space.vacuum())
        assert res < 1e-13

    def test_off_grid_momentum_rejected(self, vctx):
        with pytest.raises(GridDomainError):
            vctx.apply_b(0.5, one_hot(vctx.space.vacuum(), vctx.N))

    def test_dimension_mismatch_rejected(self, space):
        with pytest.raises(ValueError, match="dimension"):
            VertexContext(space, identity_b(3))


# B(k) = exp(kX) for this X satisfies B(k) B(-k) = I but not the reflection
# equation.  With the gate bypassed, the default config FAILs these records
# per (suite, tag): the relations that need the reflection equation.
CONVERSE_X = [[0.3, 1.0], [0.5, -0.2]]
CONVERSE_FAILS = {
    ("rmatrix", "RBRB"): 24,
    ("vertex", "eq:bb"): 18,
    ("boundary", "BNl-1"): 1,
    ("boundary", "BNl-2"): 8,
    ("boundary", "BNl-3"): 4,
    ("boundary", "BNl-4"): 8,
    ("boundary", "BNl-5"): 14,
    ("boundary", "eq:bb"): 18,
    ("boundary", "rhoB-aa"): 1,
    ("boundary", "rhoB-adad"): 8,
    ("boundary", "rhoB-aad"): 4,
    ("hierarchy", "H-eigen"): 14,
    ("hierarchy", "H-commute"): 10,
    ("hierarchy", "H-iom"): 15,
}
# The b-dependent relations that need only B(k) B(-k) = I: no record FAILs.
CONVERSE_PASSES = {
    ("vertex", "b-vacuum"),
    ("vertex", "rbrb"),
    ("vertex", "eq:ab"),
    ("vertex", "eq:bad"),
    ("boundary", "rbrb"),
    ("boundary", "rho"),
    ("boundary", "rhoB-involution"),
    ("boundary", "coset"),
    ("hierarchy", "H-odd"),
    ("hierarchy", "ssb"),
}


class TestReflectionEquationConverse:
    @pytest.fixture()
    def converse(self, monkeypatch):
        monkeypatch.setattr(harness, "build_reflection", lambda cfg: exp_reflection(CONVERSE_X))

    @pytest.fixture()
    def ungated(self, converse, monkeypatch):
        def context(space, reflection, whitelist_tol):
            return VertexContext(space, reflection, whitelist_tol=math.inf)

        monkeypatch.setattr(harness, "VertexContext", context)

    def test_family_is_unitary_but_not_a_reflection_solution(self, space):
        gate = VertexContext(space, exp_reflection(CONVERSE_X)).whitelist
        unitarity = [r.value for r in gate.checks if r.context["relation"] == "B-unitarity"]
        assert max(unitarity) < 1e-13
        assert not gate.ok

    def test_ungated_fails_exactly_the_reflection_equation_tags(self, ungated):
        records = run_suites(RunConfig()).records
        fails = {}
        for r in records:
            if r.status == "fail":
                fails[(r.suite, r.relation)] = fails.get((r.suite, r.relation), 0) + 1
        assert fails == CONVERSE_FAILS
        assert sum(fails.values()) == 147
        for key in CONVERSE_PASSES:
            statuses = {r.status for r in records if (r.suite, r.relation) == key}
            assert "pass" in statuses and "fail" not in statuses, key
        b_rows = {(r.suite, r.tag) for r in harness.RELATIONS if r.needs_b}
        assert b_rows == {k for k in CONVERSE_FAILS if k[0] != "rmatrix"} | CONVERSE_PASSES

    def test_gated_skips_every_b_row_with_the_gate_cause(self, converse):
        report = run_suites(RunConfig())
        assert report.counts["fail"] == 24 and report.counts["skip"] == 59
        assert {r.relation for r in report.records if r.status == "fail"} == {"RBRB"}
        gated = [r for r in report.records if r.cause and "whitelist gate" in r.cause]
        assert all(r.status == "skip" and "'exp(kX)'" in r.cause for r in gated)
        b_rows = [(r.suite, r.tag) for r in harness.RELATIONS if r.needs_b]
        assert [(r.suite, r.relation) for r in gated] == b_rows


class TestCaches:
    def test_chain_matrices_are_cached(self, vctx):
        a = vctx.chain(1.25, (0, 3))
        b = vctx.chain(1.25, (0, 3))
        assert a is b

    def test_b_matrix_shape(self, vctx):
        mat = vctx.b_matrix(1.0, (0, 1, 2))
        dim = vctx.N ** 4
        assert mat.shape == (dim, dim)

    def test_chain_against_manual_product(self, vctx):
        # Two letters: C = R_01(k0,k_a) R_02(k0,k_b) with explicit kron lifts.
        N = vctx.N
        k0 = 0.8
        ga, gb = 1, 4
        ka, kb = vctx.grid.value(ga), vctx.grid.value(gb)
        ra = eval_r(vctx.space.r, k0, ka)
        rb = eval_r(vctx.space.r, k0, kb)
        eye = np.eye(N, dtype=complex)
        swap = np.zeros((N * N, N * N), dtype=complex)
        for i in range(N):
            for j in range(N):
                swap[j * N + i, i * N + j] = 1.0
        lift_a = np.kron(ra, eye)
        mid = np.kron(eye, swap)
        lift_b = mid @ np.kron(rb, eye) @ mid
        want = lift_a @ lift_b
        got = vctx.chain(k0, (ga, gb))
        assert np.max(np.abs(got - want)) < 1e-14


# Reflection families for the build checks: identity, k-dependent diagonal,
# and the constant diagonal (2, 1, ...) control, which fails the whitelist
# gate; the build checks call b_matrix, which the gate does not guard.
BUILD_FAMILIES = {
    "identity": identity_b,
    "k-dependent-diagonal": lambda N: phase_diagonal_b(N, 1.0, [(-1) ** c for c in range(N)]),
    "ungated (2, 1)": lambda N: constant_diagonal_b([2.0] + [1.0] * (N - 1)),
}


def _build_ctx(N: int, family: str) -> VertexContext:
    space = FockSpace(SpectralGrid(GRID), rational_r(N, 0.7), n_max=4)
    return VertexContext(space, BUILD_FAMILIES[family](N))


class TestIncrementalBuilds:
    """Each cached matrix is one contraction of the one-letter-shorter one."""

    @pytest.mark.parametrize("family", sorted(BUILD_FAMILIES))
    @pytest.mark.parametrize("N, n_top", [(2, 4), (3, 3)])
    def test_against_dense_products(self, N, n_top, family):
        ctx = _build_ctx(N, family)
        momenta = AUX_BUILD_MOMENTA + GRID
        # chain and chain_inv do not read B, so one family checks them.
        maps = [(ctx.b_matrix, dense_b_oracle)]
        if family == "identity":
            maps += [(ctx.chain, dense_chain_oracle), (ctx.chain_inv, dense_chain_inv_oracle)]
        worst = 0.0
        for n in range(n_top + 1):
            for gs in combinations_with_replacement(range(len(GRID)), n):
                for k in momenta:
                    for build, oracle in maps:
                        worst = max(worst, np.max(np.abs(build(k, gs) - oracle(ctx, k, gs))))
        assert worst < 1e-13

    def test_each_new_entry_costs_one_contraction(self, monkeypatch):
        ctx = _build_ctx(2, "k-dependent-diagonal")
        calls = {"eval_r": 0, "lift_pair": 0}

        def counted(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(vertex, "eval_r", counted("eval_r", vertex.eval_r))
        monkeypatch.setattr(rmatrix, "lift_pair", counted("lift_pair", rmatrix.lift_pair))
        assert not hasattr(vertex, "lift_pair")
        caches = {"chain": ctx._chains, "chain_inv": ctx._chains_inv, "b_matrix": ctx._bmats}
        for name, per_entry in (("chain", 1), ("chain_inv", 1), ("b_matrix", 2)):
            for k, gs in ((0.37, (0, 2, 5)), (0.37, (0, 2, 5, 5)), (2.0, (1, 2)), (2.0, (3,))):
                before = {other: set(cache) for other, cache in caches.items()}
                before_calls = calls["eval_r"]
                getattr(ctx, name)(k, gs)
                new = [key for key in caches[name] if key not in before[name] and key[1]]
                assert new, (name, k, gs)
                assert calls["eval_r"] - before_calls == per_entry * len(new), (name, k, gs)
                # A build fills only its own cache: b builds no chain or inverse chain.
                assert all(set(caches[o]) == before[o] for o in caches if o != name), name
        assert calls["lift_pair"] == 0


class TestComposeAux:
    def test_compose_matches_matrix_product_on_scalars(self, space):
        # Scalar aux matrices compose like plain matrices.
        vac = space.vacuum()
        A = np.array([[1.0, 2.0], [0.5, -1.0j]], dtype=complex)
        B = np.array([[0.0, 1.0], [1.0, 3.0]], dtype=complex)
        res = identity_residual(
            [(1.0, [NumMat(1, A), NumMat(1, B)])], [(1.0, [NumMat(1, A @ B)])], vac, space.N
        )
        assert res < 1e-15

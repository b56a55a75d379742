"""Conserved charges: vanishing odd orders, spectra, commutation, vacuum test."""

import numpy as np
import pytest

from conftest import GRID, atdag_component, random_state, relation
from oracles import apply_H_oracle
from zfcheck.boundary import BoundaryContext
from zfcheck.fock import FockSpace, FockState, states_equal
from zfcheck.harness import RELATIONS
from zfcheck.hierarchy import apply_H, check_symmetry_breaking, odd_vanishing
from zfcheck.rmatrix import identity_b, phase_diagonal_b, rational_r, table_b, worst_over
from zfcheck.vertex import VertexContext


def one_particle_matrix(ctx: BoundaryContext, n: int) -> tuple[np.ndarray, list]:
    """Dense matrix of H(n) on the one-particle sector, plus the basis words."""
    words = ctx.space.canonical_words(1)
    index = {w: t for t, w in enumerate(words)}
    dim = len(words)
    mat = np.zeros((dim, dim), dtype=complex)
    for col, w in enumerate(words):
        image = apply_H(ctx, n, ctx.space.basis_state(w))
        for nw, a in image.amps.items():
            mat[index[nw], col] = a
    return mat, words


@pytest.fixture(scope="module")
def bctx_flip(space):
    # Constant anti-diagonal reflection matrix, supplied as a table: it
    # passes the whitelist exactly and twists the color on reflection.
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    spec = table_b(2, {k: flip for k in GRID})
    return BoundaryContext(VertexContext(space, spec))


class TestApplyH:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_vacuum_annihilated(self, bctx, n):
        assert apply_H(bctx, n, bctx.space.vacuum()).maxamp() == 0.0

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_zero_state_makes_no_generator_call(self, bctx, monkeypatch, n):
        calls = []
        for name in ("apply_a_tilde", "apply_a_tilde_dagger"):
            monkeypatch.setattr(bctx, name, lambda *args: calls.append(args))
        assert not apply_H(bctx, n, FockState()).amps
        assert not calls

    def test_negative_order_rejected(self, bctx):
        with pytest.raises(ValueError, match="nonnegative"):
            apply_H(bctx, -2, bctx.space.vacuum())

    @pytest.mark.parametrize("k", [1.0, 2.0, -3.0])
    def test_quadratic_charge_eigenvalue_on_dressed_one_particle(self, bctx, k):
        s = atdag_component(bctx, 0, k, bctx.space.vacuum())
        got = apply_H(bctx, 2, s)
        assert (got - s.scaled(k**2)).maxamp() < 1e-12

    def test_zeroth_charge_counts_dressed_particles(self, bctx):
        s = atdag_component(bctx, 1, 2.0, bctx.space.vacuum())
        got = apply_H(bctx, 0, s)
        assert (got - s).maxamp() < 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_odd_orders_annihilate_states(self, bctx, rng, n):
        for sector in (1, 2):
            s = random_state(rng, bctx.space, sector)
            assert apply_H(bctx, n, s).maxamp() < 1e-11

    def test_even_orders_preserve_particle_number(self, bctx, rng):
        s = random_state(rng, bctx.space, 2)
        out = apply_H(bctx, 2, s)
        assert out.max_particles() == 2

    def test_relation_table_lists_the_hierarchy_tags(self):
        assert {r.tag for r in RELATIONS if r.suite == "hierarchy"} == {
            "H-odd", "H-eigen", "H-commute", "H-iom", "ssb",
        }


class TestChargeImages:
    """apply_H, built from per-word images, against the grid loop on whole states."""

    @pytest.fixture(scope="class", params=["N2-identity", "N3-k-dependent-diagonal"])
    def charge_ctx(self, request, grid):
        N, bspec = {
            "N2-identity": (2, identity_b(2)),
            "N3-k-dependent-diagonal": (3, phase_diagonal_b(3, 1.0, [1, -1, 1])),
        }[request.param]
        return BoundaryContext(VertexContext(FockSpace(grid, rational_r(N, 0.7), n_max=3), bspec))

    @pytest.mark.parametrize("n", range(6))
    def test_matches_the_grid_loop(self, charge_ctx, n):
        rng = np.random.default_rng(100 + n)
        space = charge_ctx.space
        states = [space.vacuum()] + [
            random_state(rng, space, sector, terms=3) for sector in (1, 2, 3) for _ in range(2)
        ]
        # A state mixing sectors, some of whose words earlier states already met.
        states.append(states[1] + states[3].scaled(0.5j) + states[5])
        for s in states:
            _, dev = states_equal(apply_H(charge_ctx, n, s), apply_H_oracle(charge_ctx, n, s), 0.0)
            assert dev < 1e-12, (n, s)

    def test_one_generator_batch_per_grid_momentum_for_new_words(self, grid, rng, monkeypatch):
        ctx = BoundaryContext(VertexContext(FockSpace(grid, rational_r(2, 0.7), n_max=3), identity_b(2)))
        calls = []
        for name in ("apply_a_tilde", "apply_a_tilde_dagger"):
            method = getattr(ctx, name)
            monkeypatch.setattr(
                ctx, name, lambda k, vecs, m=method, t=name: calls.append((t, k, len(vecs))) or m(k, vecs)
            )
        s = random_state(rng, ctx.space, 2, terms=3)
        apply_H(ctx, 2, s)
        assert calls == [(t, k, 3) for k in grid for t in ("apply_a_tilde", "apply_a_tilde_dagger")]
        calls.clear()
        apply_H(ctx, 4, s)  # every word has its images: no generator call
        assert calls == []


class TestOneParticleSpectrum:
    def test_quadratic_spectrum(self, bctx):
        mat, words = one_particle_matrix(bctx, 2)
        assert len(words) == 12
        eigs = np.sort(np.linalg.eigvals(mat).real)
        want = np.sort([0.0] * 6 + [1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
        assert np.max(np.abs(eigs - want)) < 1e-10
        assert np.max(np.abs(np.linalg.eigvals(mat).imag)) < 1e-10

    def test_quartic_spectrum(self, bctx):
        mat, _ = one_particle_matrix(bctx, 4)
        eigs = np.sort(np.linalg.eigvals(mat).real)
        want = np.sort([0.0] * 6 + [1.0, 1.0, 16.0, 16.0, 81.0, 81.0])
        assert np.max(np.abs(eigs - want)) < 1e-9

    def test_odd_matrix_vanishes(self, bctx):
        mat, _ = one_particle_matrix(bctx, 1)
        assert np.max(np.abs(mat)) < 1e-12

    def test_spectrum_family_independent(self, bctx_id, bctx_flip):
        # The halved-generator construction fixes the spectrum; the
        # reflection family only rotates the eigenvectors.
        for ctx in (bctx_id, bctx_flip):
            mat, _ = one_particle_matrix(ctx, 2)
            eigs = np.sort(np.linalg.eigvals(mat).real)
            want = np.sort([0.0] * 6 + [1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
            assert np.max(np.abs(eigs - want)) < 1e-10


class TestEigenrelations:
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("k", [1.0, 3.0])
    def test_even_orders(self, bctx, rng, n, k):
        samples = [bctx.space.vacuum(), random_state(rng, bctx.space, 1)]
        res = worst_over(relation("hierarchy", "H-eigen", bctx, n, k), samples, order=n)
        assert res.value < 1e-11
        assert res.context["order"] == n

    def test_odd_order_gives_vanishing_commutator(self, bctx, rng):
        fn = relation("hierarchy", "H-eigen", bctx, 3, 2.0)
        assert fn(random_state(rng, bctx.space, 1)) < 1e-11

    def test_two_particle_samples(self, bctx, rng):
        fn = relation("hierarchy", "H-eigen", bctx, 2, 1.0)
        assert fn(random_state(rng, bctx.space, 2)) < 1e-10

    def test_default_sample_is_the_vacuum(self, bctx):
        fn = relation("hierarchy", "H-eigen", bctx, 2, 1.0)
        assert fn(bctx.space.vacuum()) < 1e-12


class TestCommutation:
    @pytest.mark.parametrize("orders", [(2, 4), (0, 2)])
    def test_flows_commute(self, bctx, rng, orders):
        samples = [random_state(rng, bctx.space, n) for n in (1, 2)]
        res = worst_over(relation("hierarchy", "H-commute", bctx, *orders), samples, orders=orders)
        assert res.value < 1e-10
        assert res.context["orders"] == orders

    def test_charges_commute_with_reflection_operator(self, bctx, rng):
        samples = [random_state(rng, bctx.space, n) for n in (1, 2)]
        for k in (1.0, -2.0):
            fn = relation("hierarchy", "H-iom", bctx, 2, k)
            assert worst_over(fn, samples).value < 1e-10

    def test_odd_vanishing_wrapper(self, bctx, rng):
        samples = [random_state(rng, bctx.space, n) for n in (1, 2, 3)]
        fn = relation("hierarchy", "H-odd", bctx, 3)
        assert worst_over(fn, samples).value < 1e-10
        # Against an empty right side the residual is the peak of H(n) s.
        for s in samples:
            assert fn(s) == apply_H(bctx, 3, s).maxamp()
        with pytest.raises(ValueError, match="even order"):
            odd_vanishing(bctx, 2)


class TestSymmetryBreaking:
    def test_vacuum_values_match_numeric_matrix(self, bctx):
        rep = check_symmetry_breaking(bctx)
        assert rep.residual.value < 1e-12

    def test_one_b_image_per_grid_momentum(self, bctx, monkeypatch):
        # The residual and the expectations are read from the same image.
        calls = []
        apply_b = bctx.vertex.apply_b
        monkeypatch.setattr(
            bctx.vertex, "apply_b", lambda k, vecs: calls.append(k) or apply_b(k, vecs)
        )
        check_symmetry_breaking(bctx)
        assert calls == list(bctx.grid)

    def test_broken_pairs_follow_the_matrix_support(self, bctx, bctx_id, bctx_flip):
        # Diagonal families leave the color-diagonal components with nonzero
        # vacuum value; the anti-diagonal family moves both to off-diagonal.
        assert check_symmetry_breaking(bctx).broken == ((0, 0), (1, 1))
        assert check_symmetry_breaking(bctx_id).broken == ((0, 0), (1, 1))
        assert check_symmetry_breaking(bctx_flip).broken == ((0, 1), (1, 0))

    def test_expectations_are_the_matrix_entries(self, bctx):
        from zfcheck.rmatrix import eval_b

        rep = check_symmetry_breaking(bctx)
        for k in bctx.grid:
            bmat = eval_b(bctx.vertex.reflection, k)
            for i in range(bctx.N):
                for j in range(bctx.N):
                    assert rep.expectations[(i, j, k)] == pytest.approx(
                        complex(bmat[i, j]), abs=1e-12
                    )


class TestCrossFamily:
    def test_flip_family_full_stack(self, bctx_flip, rng):
        # One end-to-end pass with the color-twisting family: relations,
        # eigenrelations, commutation.
        s = random_state(rng, bctx_flip.space, 1)
        for tag in ("BNl-1", "BNl-2", "BNl-3", "BNl-4", "BNl-5", "eq:bb", "rbrb"):
            assert relation("boundary", tag, bctx_flip, 1.0, 2.0)(s) < 1e-11, tag
        assert relation("hierarchy", "H-eigen", bctx_flip, 2, 1.0)(s) < 1e-11
        assert relation("hierarchy", "H-commute", bctx_flip, 2, 4)(s) < 1e-11

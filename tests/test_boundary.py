"""Boundary generators: exact small-sector values, the seven-relation algebra,
the reflection-twisted identity, and the substitution automorphism."""

import pytest

from conftest import random_state
from zfcheck.boundary import (
    BoundaryContext,
    boundary_relation_evaluators,
    rho_B_evaluators,
    rho_evaluator,
)
from zfcheck.errors import GridDomainError, NotWhitelistedError
from zfcheck.harness import RELATIONS
from zfcheck.rmatrix import constant_diagonal_b, eval_b, worst_over
from zfcheck.vertex import VertexContext

PAIRS = ((1.0, 2.0), (1.0, 1.0), (2.0, -2.0), (-3.0, 1.0))


def amax(state):
    return state.maxamp()


class TestGeneratorValues:
    def test_annihilator_kills_vacuum(self, bctx):
        vac = bctx.space.vacuum()
        for k in bctx.grid:
            for i in range(bctx.N):
                assert amax(bctx.apply_a_tilde(i, k, vac)) == 0.0

    def test_same_momentum_pairing_is_half_delta(self, bctx):
        # at_i(k) a†_j(k) vac = 1/2 delta_ij vac
        sp = bctx.space
        vac = sp.vacuum()
        k = 2.0
        for i in range(bctx.N):
            for j in range(bctx.N):
                got = bctx.apply_a_tilde(i, k, sp.apply_creation(j, k, vac))
                want = vac.scaled(0.5 if i == j else 0.0)
                assert amax(got + want.scaled(-1.0)) < 1e-13

    def test_opposite_momentum_pairing_reads_the_reflection_matrix(self, bctx):
        # at_i(k) a†_j(-k) vac = 1/2 B_ij(k) vac
        sp = bctx.space
        vac = sp.vacuum()
        k = 1.0
        bmat = eval_b(bctx.vertex.reflection, k)
        for i in range(bctx.N):
            for j in range(bctx.N):
                got = bctx.apply_a_tilde(i, k, sp.apply_creation(j, -k, vac))
                want = vac.scaled(0.5 * bmat[i, j])
                assert amax(got + want.scaled(-1.0)) < 1e-13

    def test_creator_on_vacuum_identity_family(self, bctx_id):
        # With B = I the halved creator is the plain average of +k and -k.
        sp = bctx_id.space
        vac = sp.vacuum()
        k = 3.0
        for i in range(bctx_id.N):
            got = bctx_id.apply_a_tilde_dagger(i, k, vac)
            want = (
                sp.apply_creation(i, k, vac).scaled(0.5)
                + sp.apply_creation(i, -k, vac).scaled(0.5)
            )
            assert amax(got + want.scaled(-1.0)) < 1e-14

    def test_creator_on_vacuum_diagonal_family(self, bctx):
        sp = bctx.space
        vac = sp.vacuum()
        k = 2.0
        bmat = eval_b(bctx.vertex.reflection, -k)
        for i in range(bctx.N):
            got = bctx.apply_a_tilde_dagger(i, k, vac)
            want = (
                sp.apply_creation(i, k, vac).scaled(0.5)
                + sp.apply_creation(i, -k, vac).scaled(0.5 * bmat[i, i])
            )
            assert amax(got + want.scaled(-1.0)) < 1e-13

    def test_off_grid_momentum_rejected(self, bctx):
        with pytest.raises(GridDomainError):
            bctx.apply_a_tilde(0, 0.25, bctx.space.vacuum())

    def test_component_memo_returns_identical_tuples(self, bctx, rng):
        s = random_state(rng, bctx.space, 1)
        first = bctx._a_tilde_all(1.0, s)
        second = bctx._a_tilde_all(1.0, s)
        assert first is second


class TestSevenRelations:
    @pytest.mark.parametrize("k1,k2", PAIRS)
    def test_two_particle_samples(self, bctx4, rng, k1, k2):
        fns = boundary_relation_evaluators(bctx4, k1, k2)
        assert set(fns) == {
            "BNl-1", "BNl-2", "BNl-3", "BNl-4", "BNl-5", "eq:bb", "rbrb",
        }
        s = random_state(rng, bctx4.space, 2)
        for tag, fn in fns.items():
            assert fn(s) < 1e-10, tag

    @pytest.mark.parametrize("k1,k2", PAIRS)
    def test_one_particle_samples(self, bctx, rng, k1, k2):
        fns = boundary_relation_evaluators(bctx, k1, k2)
        s = random_state(rng, bctx.space, 1)
        for tag, fn in fns.items():
            assert fn(s) < 1e-11, tag

    def test_vacuum_sample(self, bctx):
        fns = boundary_relation_evaluators(bctx, 1.0, -1.0)
        vac = bctx.space.vacuum()
        for tag, fn in fns.items():
            assert fn(vac) < 1e-13, tag

    def test_contact_channels_are_load_bearing(self, bctx, rng):
        # Dropping the delta channel at k1 == k2 must leave a visible gap:
        # compare the full relation against the naked exchange form.
        from zfcheck.relations import RMat, identity_residual
        from zfcheck.rmatrix import eval_r

        s = random_state(rng, bctx.space, 1)
        k = 2.0
        at1 = bctx.at_vec(1, k)
        atdag2 = bctx.atdag_covec(2, k)
        r_12 = RMat(1, 2, eval_r(bctx.space.r, k, k))
        naked = identity_residual(
            [(1.0, [at1, atdag2])], [(1.0, [atdag2, r_12, at1])], s, bctx.N
        )
        full = boundary_relation_evaluators(bctx, k, k)["BNl-3"](s)
        assert full < 1e-11
        assert naked > 0.4

    def test_headroom_table_matches_tags(self, bctx):
        tags = {r.tag for r in RELATIONS if r.suite == "boundary"}
        assert tags == (
            set(boundary_relation_evaluators(bctx, 1.0, 2.0))
            | {"rho"}
            | set(rho_B_evaluators(bctx, 1.0, 2.0))
        )

    def test_aggregate_wrapper(self, bctx, rng):
        samples = [random_state(rng, bctx.space, 1)]
        for tag, fn in boundary_relation_evaluators(bctx, 1.0, 2.0).items():
            res = worst_over(fn, samples, relation=tag)
            assert res.value < 1e-10, tag
            assert res.context["relation"] == tag


class TestRhoIdentity:
    @pytest.mark.parametrize("k", [1.0, -2.0, 3.0])
    def test_reflection_twist_acts_as_identity(self, bctx, rng, k):
        fn = rho_evaluator(bctx, k)
        for n in (1, 2):
            assert fn(random_state(rng, bctx.space, n)) < 1e-11

    def test_identity_family_too(self, bctx_id, rng):
        fn = rho_evaluator(bctx_id, 2.0)
        assert fn(random_state(rng, bctx_id.space, 2)) < 1e-11

    def test_wrapper(self, bctx, rng):
        fn = rho_evaluator(bctx, 1.0)
        res = worst_over(fn, [random_state(rng, bctx.space, 1)], momenta=(1.0,))
        assert res.value < 1e-11
        assert res.context["momenta"] == (1.0,)


class TestRhoBAutomorphism:
    @pytest.mark.parametrize("k1,k2", PAIRS)
    def test_two_particle_samples(self, bctx4, rng, k1, k2):
        fns = rho_B_evaluators(bctx4, k1, k2)
        assert set(fns) == {
            "rhoB-aa", "rhoB-adad", "rhoB-aad", "rhoB-involution", "coset",
        }
        s = random_state(rng, bctx4.space, 2)
        for tag, fn in fns.items():
            assert fn(s) < 1e-10, tag

    def test_coset_is_tight(self, bctx, rng):
        # The average-of-identity-and-image form reproduces the halved
        # generators with nothing but rounding noise.
        fns = rho_B_evaluators(bctx, 1.0, 2.0)
        for n in (1, 2):
            assert fns["coset"](random_state(rng, bctx.space, n)) < 1e-13

    def test_involution_restores_plain_annihilator(self, bctx, rng):
        fns = rho_B_evaluators(bctx, -2.0, 1.0)
        assert fns["rhoB-involution"](random_state(rng, bctx.space, 2)) < 1e-12

    def test_full_delta_at_equal_momenta(self, bctx, rng):
        # rhoB-aad carries the full (unhalved) delta term; at k1 == k2 the
        # relation only closes because of it.
        fns = rho_B_evaluators(bctx, 1.0, 1.0)
        assert fns["rhoB-aad"](random_state(rng, bctx.space, 1)) < 1e-11

    def test_aggregate_wrapper(self, bctx, rng):
        samples = [random_state(rng, bctx.space, 1)]
        for tag, fn in rho_B_evaluators(bctx, 1.0, 2.0).items():
            assert worst_over(fn, samples).value < 1e-10, tag


class TestGates:
    def test_blocked_family_constructs_but_refuses_generators(self, space):
        vbad = VertexContext(space, constant_diagonal_b([2.0, 1.0]))
        ctx = BoundaryContext(vbad)
        assert ctx.involution_residual == 0.0
        with pytest.raises(NotWhitelistedError):
            ctx.apply_a_tilde(0, 1.0, space.vacuum())

    def test_matrix_involution_gate(self, space):
        # A family inside the whitelist tolerance band but outside the
        # tighter involution tolerance: construction must fail loudly.
        near = constant_diagonal_b([1.0 + 2.5e-11, 1.0])
        vnear = VertexContext(space, near)
        assert vnear.b_allowed()
        with pytest.raises(NotWhitelistedError, match="matrix level"):
            BoundaryContext(vnear)
        relaxed = BoundaryContext(vnear, involution_tol=1e-9)
        assert 0.0 < relaxed.involution_residual < 1e-10

    def test_involution_residual_recorded(self, bctx):
        assert bctx.involution_residual < 1e-11

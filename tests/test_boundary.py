"""Boundary generators: exact small-sector values, the batch form, the
seven-relation algebra, the reflection-twisted identity, and the
substitution automorphism."""

from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GRID, at_component, atdag_component, random_state
from zfcheck.boundary import (
    BoundaryContext,
    boundary_relation_evaluators,
    rho_B_evaluators,
    rho_evaluator,
)
from zfcheck.errors import GridDomainError, NotWhitelistedError
from zfcheck.fock import FockSpace, FockState, SpectralGrid, states_equal
from zfcheck.harness import RELATIONS
from zfcheck.relations import one_hot
from zfcheck.rmatrix import constant_diagonal_b, eval_b, phase_diagonal_b, rational_r, worst_over
from zfcheck.vertex import VertexContext

PAIRS = ((1.0, 2.0), (1.0, 1.0), (2.0, -2.0), (-3.0, 1.0))


def amax(state):
    return state.maxamp()


class TestGeneratorValues:
    def test_annihilator_kills_vacuum(self, bctx):
        vac = bctx.space.vacuum()
        for k in bctx.grid:
            for i in range(bctx.N):
                assert amax(at_component(bctx, i, k, vac)) == 0.0

    def test_same_momentum_pairing_is_half_delta(self, bctx):
        # at_i(k) a†_j(k) vac = 1/2 delta_ij vac
        sp = bctx.space
        vac = sp.vacuum()
        k = 2.0
        for i in range(bctx.N):
            for j in range(bctx.N):
                got = at_component(bctx, i, k, sp.apply_creation(j, k, vac))
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
                got = at_component(bctx, i, k, sp.apply_creation(j, -k, vac))
                want = vac.scaled(0.5 * bmat[i, j])
                assert amax(got + want.scaled(-1.0)) < 1e-13

    def test_creator_on_vacuum_identity_family(self, bctx_id):
        # With B = I the halved creator is the plain average of +k and -k.
        sp = bctx_id.space
        vac = sp.vacuum()
        k = 3.0
        for i in range(bctx_id.N):
            got = atdag_component(bctx_id, i, k, vac)
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
            got = atdag_component(bctx, i, k, vac)
            want = (
                sp.apply_creation(i, k, vac).scaled(0.5)
                + sp.apply_creation(i, -k, vac).scaled(0.5 * bmat[i, i])
            )
            assert amax(got + want.scaled(-1.0)) < 1e-13

    def test_off_grid_momentum_rejected(self, bctx):
        with pytest.raises(GridDomainError):
            bctx.apply_a_tilde(0.25, [[bctx.space.vacuum()]])

    def test_component_memo_returns_identical_tuples(self, bctx, rng):
        s = random_state(rng, bctx.space, 1)
        first = bctx.apply_a_tilde(1.0, [[s]])[0]
        second = bctx.apply_a_tilde(1.0, [[s]])[0]
        assert first is second


@pytest.fixture(scope="module")
def batch_ctx():
    """Per N, a boundary context with one particle of headroom over sector 2."""
    out = {}
    for N in (2, 3):
        space = FockSpace(SpectralGrid(GRID), rational_r(N, 0.7), n_max=3)
        signs = [(-1) ** c for c in range(N)]
        out[N] = BoundaryContext(VertexContext(space, phase_diagonal_b(N, 1.0, signs)))
    return out


class TestBatchForm:
    """Every generator maps a batch of aux vectors, as T and b do."""

    @given(
        N=st.sampled_from([2, 3]),
        columns=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 2), st.integers(0, 10**6), st.complex_numbers(max_magnitude=2.0)
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=9,
        ),
        k=st.sampled_from(GRID),
    )
    def test_row_of_a_vector_is_sum_of_one_hot_rows(self, batch_ctx, N, columns, k):
        # Each drawn column is a few (sector, word pick, amplitude) triples;
        # consecutive runs of N columns make one aux vector.
        ctx = batch_ctx[N]
        sectors = [ctx.space.canonical_words(n) for n in range(3)]
        states = [
            FockState.combine(
                (a, ctx.space.basis_state(sectors[n][pick % len(sectors[n])]))
                for n, pick, a in col
            )
            for col in columns
        ]
        states += [FockState()] * (-len(states) % N)
        vecs = [states[v : v + N] for v in range(0, len(states), N)]
        rows = {
            "at†": lambda batch: ctx.apply_a_tilde_dagger(k, batch),
            "alpha†": ctx.alpha_dag_covec(1, k).op,
        }
        for name, row in rows.items():
            images = row(vecs)
            assert len(images) == len(vecs) and all(len(image) == 1 for image in images)
            for vec, (image,) in zip(vecs, images):
                one_hots = [row([one_hot(s, N)[l]])[0][0] for l, s in enumerate(vec) if s.amps]
                want = FockState.combine((1.0, oh) for oh in one_hots)
                assert states_equal(image, want, tol=0.0)[1] <= 1e-13, name

    def test_columns_of_a_batch_match_single_calls(self, batch_ctx, rng):
        ctx = batch_ctx[3]
        states = [random_state(rng, ctx.space, n) for n in (1, 2, 2)]
        for column in (partial(ctx.apply_a_tilde, 2.0), ctx.alpha_vec(1, -1.0).op):
            images = column([[s] for s in states])
            for s, image in zip(states, images):
                (single,) = column([[s]])
                assert len(image) == 3
                assert all(states_equal(a, b, tol=0.0)[1] == 0.0 for a, b in zip(image, single))

    def test_bnl3_sends_one_b_batch_per_generator_factor(self, vctx, rng, monkeypatch):
        # BNl-3 at a generic pair holds four generator factors: at_1 and at†_2
        # on each side.  A cold memo must still send each through b once.
        calls = []
        apply_b = vctx.apply_b
        monkeypatch.setattr(
            vctx, "apply_b", lambda k, vecs, **kw: calls.append(k) or apply_b(k, vecs, **kw)
        )
        fn = boundary_relation_evaluators(BoundaryContext(vctx), 1.0, 2.0)["BNl-3"]
        assert fn(random_state(rng, vctx.space, 2)) < 1e-10
        assert 0 < len(calls) <= 4, calls


class TestAmplitudeType:
    def test_every_operator_returns_builtin_complex(self):
        # numpy scalars must not leak into states: every amplitude out of a,
        # a†, T, T^-1, b, at and at† on the basis words of sectors 0-3 is a
        # plain Python complex.
        space = FockSpace(SpectralGrid(GRID), rational_r(2, 0.7), n_max=4)
        bctx = BoundaryContext(VertexContext(space, phase_diagonal_b(2, 1.0, [1, -1])))
        vctx = bctx.vertex
        states = [space.basis_state(w) for n in range(4) for w in space.canonical_words(n)]
        one_hots = [vec for s in states for vec in one_hot(s, 2)]
        images = {
            "a": space.annihilation_column(2.0, [[s] for s in states]),
            "a†": space.creation_row(-1.0, one_hots),
            "T": vctx.apply_T(0.37, one_hots),
            "T^-1": vctx.apply_T_inverse(-1.6, one_hots),
            "b": vctx.apply_b(2.0, one_hots),
            "at": bctx.apply_a_tilde(-2.0, [[s] for s in states]),
            "at†": bctx.apply_a_tilde_dagger(1.0, one_hots),
        }
        # a† after a: the annihilated states carry their amplitudes on.
        images["a† a"] = space.creation_row(3.0, images["a"])
        for name, batch in images.items():
            types = {type(a) for image in batch for st in image for a in st.amps.values()}
            assert types == {complex}, (name, types)


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
            ctx.apply_a_tilde(1.0, [[space.vacuum()]])

    def test_matrix_involution_gate(self, space):
        # A family inside the whitelist tolerance band but outside the
        # tighter involution tolerance: construction must fail loudly.
        near = constant_diagonal_b([1.0 + 2.5e-11, 1.0])
        vnear = VertexContext(space, near)
        assert vnear.b_allowed()
        with pytest.raises(NotWhitelistedError, match="matrix level"):
            BoundaryContext(vnear)

    def test_involution_residual_recorded(self, bctx):
        assert bctx.involution_residual < 1e-11

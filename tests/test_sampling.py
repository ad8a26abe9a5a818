import numpy as np
import pytest

from curvdec.errors import EmptySpace
from curvdec.linalg import standard_scalar_product
from curvdec.sampling import (
    SAMPLE_SPACES,
    dim_a,
    dim_f,
    dim_p,
    dim_r,
    empirical_dimension,
    numerical_rank,
    sample,
)
from curvdec.spaces import membership_residual, ricci, ricci_star


def test_determinism_bit_identical():
    a = sample("r", 3, (3, 0), seed=123, index=5)
    b = sample("r", 3, (3, 0), seed=123, index=5)
    assert np.array_equal(a, b)
    c = sample("r", 3, (3, 0), seed=124, index=5)
    assert not np.array_equal(a, c)
    assert np.array_equal(sample("a", 4, (3, 1), 99, 2), sample("a", 4, (3, 1), 99, 2))


def test_samples_satisfy_their_membership_predicates():
    cases = {"co": "co", "r": "r", "a": "a", "s": "s", "f": "f", "p": "p", "t": "t"}
    for sig in ((3, 0), (2, 1)):
        g = standard_scalar_product(*sig)
        for space, predicate in cases.items():
            t = sample(space, 3, sig, seed=7)
            assert membership_residual(t, g, predicate) <= 1e-10
            assert np.max(np.abs(t)) == pytest.approx(1.0)


def test_f_sample_has_symmetric_ricci():
    g = standard_scalar_product(4, 0)
    t = sample("f", 4, (4, 0), seed=3)
    ric = ricci(t, g)
    assert np.max(np.abs(ric - ric.T)) <= 1e-10


def test_f_pair_sample_conjugate_also_equiaffine():
    g = standard_scalar_product(4, 0)
    t = sample("f_pair", 4, (4, 0), seed=3)
    conj = -np.swapaxes(t, 2, 3)
    assert membership_residual(conj, g, "f") <= 1e-10


def test_t_sample_trace_free():
    g = standard_scalar_product(3, 0)
    t = sample("t", 3, (3, 0), seed=11)
    assert np.max(np.abs(ricci(t, g))) <= 1e-10
    assert np.max(np.abs(ricci_star(t, g))) <= 1e-10


def test_empty_spaces_at_dimension_three():
    for space in ("W6", "A6", "W8", "A8"):
        with pytest.raises(EmptySpace):
            sample(space, 3, (3, 0), seed=0)
    # nonempty at dimension four
    for space in ("W6", "A6", "W8", "A8"):
        sample(space, 4, (4, 0), seed=0)


def test_formula_dimensions():
    assert [dim_r(3), dim_a(3), dim_f(3), dim_p(3)] == [24, 6, 21, 15]
    assert [dim_r(4), dim_a(4), dim_f(4), dim_p(4)] == [80, 20, 74, 64]


@pytest.mark.parametrize("space,expected", [("r", 24), ("a", 6), ("f", 21), ("p", 15)])
def test_empirical_dimension_n3(space, expected):
    for sig in ((3, 0), (2, 1)):
        rep = empirical_dimension(space, 3, sig)
        assert rep.empirical_dim == expected
        assert rep.formula_dim == expected
        assert not rep.inconclusive
        assert rep.singular_value_gap is None or rep.singular_value_gap >= 1e6


def test_empirical_dimension_empty_space():
    rep = empirical_dimension("W6", 3, (3, 0), samples=12)
    assert rep.empirical_dim == 0
    assert rep.samples_used == 0
    assert not rep.inconclusive


def test_inconclusive_when_undersampled():
    # fewer samples than the true dimension leaves no rejected singular value
    rep = empirical_dimension("r", 3, (3, 0), samples=10)
    assert rep.inconclusive


def test_numerical_rank_floor():
    noise = 1e-14 * np.random.default_rng(0).uniform(-1, 1, (6, 81))
    rank, _ = numerical_rank(noise, floor=1e-10)
    assert rank == 0


def test_component_dimension_shadows_n3():
    # the multiplicity-two blocks share dimensions across families, and the
    # component dimensions add up to the ambient dimension
    g = standard_scalar_product(3, 0)
    from curvdec.decomp import a_projections, w_projections

    w_rows = [[] for _ in range(8)]
    a_rows = [[] for _ in range(8)]
    for i in range(2 * dim_r(3)):
        r = sample("r", 3, (3, 0), seed=5, index=i)
        for j, c in enumerate(w_projections(r, g)):
            w_rows[j].append(c.ravel())
        for j, c in enumerate(a_projections(r, g)):
            a_rows[j].append(c.ravel())
    wd = [numerical_rank(np.asarray(rows), floor=1e-10)[0] for rows in w_rows]
    ad = [numerical_rank(np.asarray(rows), floor=1e-10)[0] for rows in a_rows]
    assert sum(wd) == dim_r(3) == sum(ad)
    assert wd[1] == wd[4] == ad[1] == ad[2]
    assert wd[2] == wd[3] == ad[3] == ad[4]
    assert wd[0] == ad[0] == 1
    assert wd[5] == ad[5] == 0 and wd[7] == ad[7] == 0


def test_all_sample_spaces_reachable_n4():
    for space in SAMPLE_SPACES:
        t = sample(space, 4, (4, 0), seed=1)
        assert t.shape == (4, 4, 4, 4)

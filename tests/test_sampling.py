from collections import Counter

import numpy as np
import pytest

import curvdec.sampling as sampling
from curvdec.decomp import a_projections, projective_part, traceless_core, w_projections
from curvdec.errors import (
    CurvdecError,
    DimensionMismatch,
    DimensionTooSmall,
    EmptyRun,
    EmptySpace,
    NegativeStreamKey,
    UnknownSpace,
)
from curvdec.linalg import standard_scalar_product
from curvdec.sampling import (
    EMPTY_NORM,
    FORMULA_DIMS,
    GAP_RATIO,
    RANK_MARGIN,
    SAMPLE_SPACES,
    DimensionReport,
    dimension_reports,
    formula_dim,
    numerical_rank,
    rng_stream,
    sample,
)
from curvdec.spaces import bianchi_project, membership_residual, mu, psi, ricci, ricci_star


def f_pair(base, w):
    return base - w[2] - w[3] - w[7]


def reference_sample(space, n, sig, seed, index):
    """One sample built tensor by tensor, as the stacked sampler must reproduce.

    Returns None where the space is empty (the projection is at roundoff scale).
    """
    g = standard_scalar_product(*sig)
    noise = rng_stream(seed, index).uniform(-1.0, 1.0, (n, n, n, n))
    if space == "co":
        t = 0.5 * (noise - np.swapaxes(noise, 0, 1))
    else:
        base = bianchi_project(noise)
        base = base / np.max(np.abs(base))
        if space == "r":
            return base
        routes = {
            "a": lambda: psi(base),
            "s": lambda: mu(base),
            "a_plus_s": lambda: psi(base) + mu(base),
            "f": lambda: base - w_projections(base, g)[2],
            "f_pair": lambda: f_pair(base, w_projections(base, g)),
            "p": lambda: projective_part(base, g),
            "t": lambda: traceless_core(base, g),
            **{f"W{j + 1}": lambda j=j: w_projections(base, g)[j] for j in range(8)},
            **{f"A{j + 1}": lambda j=j: a_projections(base, g)[j] for j in range(8)},
        }
        t = routes[space]()
    m = float(np.max(np.abs(t)))
    return None if m < EMPTY_NORM else t / m


def cov_coordinates(t, n):
    """The co(V) coordinates of one tensor: its entries t[i, j] with i < j, flattened."""
    return np.concatenate([t[i, j].ravel() for i in range(n) for j in range(i + 1, n)])


def reference_report(space, n, sig, seed):
    # ranks the co(V) coordinates, as `dims` does; the full n**4 columns are
    # compared with them in test_cov_rank_agrees_with_full_rank
    fdim = formula_dim(space, n)
    k = fdim + RANK_MARGIN
    rows = [reference_sample(space, n, sig, seed, i) for i in range(k)]
    rows = [cov_coordinates(t, n) for t in rows if t is not None]
    if not rows:
        return DimensionReport(space, 0, fdim, 0, None, False)
    rank, gap = numerical_rank(np.asarray(rows))
    # nothing rejected: undersampled when every row is independent, else the rows fill co(V)
    inconclusive = gap is not None and gap < GAP_RATIO or gap is None and 0 < rank == len(rows)
    return DimensionReport(space, rank, fdim, len(rows), gap, inconclusive)


def _compare_with_reference(n, spaces):
    for sig in ((n, 0), (n - 1, 1)):
        reports = dimension_reports(n, sig, seed=n)
        assert list(reports) == list(SAMPLE_SPACES)
        for space in spaces:
            assert reports[space] == reference_report(space, n, sig, n), space
            for index in (0, 7, (5, 2)):
                want = reference_sample(space, n, sig, 11, index)
                if want is None:
                    with pytest.raises(EmptySpace):
                        sample(space, n, sig, 11, index)
                else:
                    assert np.array_equal(sample(space, n, sig, 11, index), want), space


@pytest.mark.parametrize("n", [3, 4])
def test_stacked_sampler_equals_reference_loop(n):
    _compare_with_reference(n, SAMPLE_SPACES)


def test_one_noise_draw_and_one_w_pass_equal_reference_loop_n5():
    # the spaces that share a pass: 'co' and 'r' one noise draw, the W blocks,
    # 'f' and 'f_pair' one W projection per chunk
    _compare_with_reference(5, ("co", "r", "f", "f_pair", *(f"W{j}" for j in range(1, 9))))


@pytest.mark.parametrize("n", [3, 4])
def test_cov_rank_agrees_with_full_rank(n):
    # the same default-sized stacks ranked over all n**4 columns (the rule before
    # co(V) coordinates) and over the co(V) columns: equal ranks and verdicts
    for sig in ((n, 0), (n - 1, 1)):
        g = standard_scalar_product(*sig)
        for space in SAMPLE_SPACES:
            k = formula_dim(space, n) + RANK_MARGIN
            stack = sampling._stack(space, g, n, range(k))
            rank, gap = numerical_rank(stack.reshape(len(stack), n**4))
            full_inconclusive = gap is not None and gap < GAP_RATIO or gap is None and rank > 0
            rep = sampling._report(space, n, np.array([cov_coordinates(t, n) for t in stack]))
            assert (rep.empirical_dim, rep.inconclusive) == (rank, full_inconclusive), space
            assert rank == rep.formula_dim and not rep.inconclusive, space
            # both gaps clear GAP_RATIO, but for an empty space and for 'co' in co(V)
            assert gap is None if rank == 0 else gap >= GAP_RATIO, space
            cov_gap = rep.singular_value_gap
            assert cov_gap is None if rank == 0 or space == "co" else cov_gap >= GAP_RATIO, space


@pytest.mark.parametrize("n,expected", [(3, 27), (4, 96), (5, 250)])
def test_co_fills_cov_and_is_conclusive(n, expected):
    # in co(V) coordinates nothing is rejected for 'co': gap None, yet conclusive;
    # gap None at an undersampled stack or an empty space is tested below
    rep = dimension_reports(n, (n, 0), spaces=("co",))["co"]
    assert (rep.empirical_dim, rep.formula_dim) == (expected, expected)
    assert rep.singular_value_gap is None and not rep.inconclusive


def test_every_rank_sees_cov_columns(monkeypatch):
    # one rank path: every stack `dims` ranks at n = 5 has the 250 co(V) columns
    columns = []
    real = sampling.numerical_rank
    rank = lambda rows: columns.append(rows.shape[1]) or real(rows)
    monkeypatch.setattr(sampling, "numerical_rank", rank)
    reports = dimension_reports(5)
    assert len(columns) == len(reports) == len(SAMPLE_SPACES)
    assert set(columns) == {250}


def test_dimension_reports_refuse_empty_runs():
    for samples in (0, -1):
        with pytest.raises(EmptyRun):
            dimension_reports(3, (3, 0), samples=samples, spaces=("r",))
        with pytest.raises(CurvdecError):
            dimension_reports(3, samples=samples)
    for samples in (None, 4):
        with pytest.raises(UnknownSpace):
            dimension_reports(3, samples=samples, spaces=("r", "q"))
    for spaces in ((), iter(())):
        with pytest.raises(EmptyRun):
            dimension_reports(3, spaces=spaces)
    assert list(dimension_reports(3, spaces=iter(("r", "a")))) == ["r", "a"]


def test_signature_must_fit_dimension():
    # (2, 2) is a signature of dimension 4, not 3: nothing may be drawn at n = 4
    for sig in ((2, 2), (2, 0)):
        with pytest.raises(DimensionMismatch):
            sample("r", 3, sig)
        with pytest.raises(DimensionMismatch):
            dimension_reports(3, sig, spaces=("r",))
        with pytest.raises(DimensionMismatch):
            dimension_reports(3, sig)


def test_determinism_bit_identical():
    a = sample("r", 3, (3, 0), seed=123, index=5)
    b = sample("r", 3, (3, 0), seed=123, index=5)
    assert np.array_equal(a, b)
    c = sample("r", 3, (3, 0), seed=124, index=5)
    assert not np.array_equal(a, c)
    assert np.array_equal(sample("a", 4, (3, 1), 99, 2), sample("a", 4, (3, 1), 99, 2))


def test_stream_keys_non_negative_and_unaliased():
    # a negative seed or index entry is refused, not passed to numpy
    for kwargs in ({"seed": -1}, {"index": -1}, {"index": (0, -1)}):
        with pytest.raises(NegativeStreamKey):
            sample("r", 3, **kwargs)
    with pytest.raises(NegativeStreamKey):
        dimension_reports(3, seed=-1, spaces=("co",))
    assert issubclass(NegativeStreamKey, CurvdecError)
    # index 2**32 is its own stream, not index 0 again
    assert not np.array_equal(sample("r", 3, index=2**32), sample("r", 3, index=0))
    assert not np.array_equal(sample("r", 3, index=(0, 2**32)), sample("r", 3, index=(0, 0)))
    # below 2**32 the key reaches SeedSequence unchanged
    want = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(2**32 - 1,))).uniform()
    assert rng_stream(3, 2**32 - 1).uniform() == want


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
    for n, dims in ((3, [24, 6, 21, 15]), (4, [80, 20, 74, 64])):
        assert [formula_dim(space, n) for space in ("r", "a", "f", "p")] == dims
    assert [formula_dim("r", 7), formula_dim("r", 8)] == [784, 1344]
    assert set(FORMULA_DIMS) == set(SAMPLE_SPACES) and len(SAMPLE_SPACES) == 25
    # the closed forms of the two eight-part decompositions, written out once more
    blocks = {
        1: lambda n: 1,
        2: lambda n: n * (n + 1) // 2 - 1,
        3: lambda n: n * (n - 1) // 2,
        6: lambda n: n * (n + 1) * (n + 2) * (n - 3) // 12,
        7: lambda n: (n - 1) * n * (n + 1) * (n + 2) // 8 - n * n + 1,
        8: lambda n: n * (n - 1) * (n - 3) * (n + 2) // 8,
    }
    w_type = {1: 1, 2: 2, 3: 3, 4: 3, 5: 2, 6: 6, 7: 7, 8: 8}
    a_type = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 6, 7: 7, 8: 8}
    for n in range(3, 9):
        d = {space: formula_dim(space, n) for space in SAMPLE_SPACES}
        assert all(type(v) is int and v >= 0 for v in d.values()), d
        for j in range(1, 9):
            assert d[f"W{j}"] == blocks[w_type[j]](n), (n, j)
            assert d[f"A{j}"] == blocks[a_type[j]](n), (n, j)
        assert sum(d[f"W{j}"] for j in range(1, 9)) == d["r"]
        assert sum(d[f"A{j}"] for j in range(1, 9)) == d["r"]
        assert d["s"] == (n - 1) * n * (n + 1) * (n + 2) // 8
        assert d["t"] == d["W6"] + d["W7"] + d["W8"]
        assert d["a_plus_s"] == d["a"] + d["s"]
        assert d["f_pair"] == d["r"] - d["W3"] - d["W4"] - d["W8"]
        # the independent closed forms of a, f and p agree with the blocks
        assert d["a"] == d["A1"] + d["A2"] + d["A6"]
        assert d["s"] == d["A3"] + d["A4"] + d["A7"]
        assert d["f"] == d["r"] - d["W3"]
        assert d["p"] == d["r"] - d["W1"] - d["W2"] - d["W3"]
        assert d["co"] == d["r"] + n * n * (n - 1) * (n - 2) // 6
    assert formula_dim("W6", 3) == formula_dim("W8", 3) == 0
    with pytest.raises(UnknownSpace):
        formula_dim("bogus", 3)
    with pytest.raises(DimensionTooSmall):
        formula_dim("W6", 2)  # the closed form would read -2


@pytest.mark.parametrize("sig", [(5, 0), (4, 1)])
def test_default_sample_counts_match_formula_n5(sig):
    for space, rep in dimension_reports(5, sig).items():
        assert rep.empirical_dim == rep.formula_dim, space
        assert not rep.inconclusive, space
        if rep.formula_dim:
            assert rep.samples_used == rep.formula_dim + RANK_MARGIN, space


@pytest.mark.parametrize("sig", [(6, 0), (5, 1)])
def test_default_sample_counts_match_formula_n6(sig):
    # every space has a measured gap except 'co', which fills co(V)
    for space, rep in dimension_reports(6, sig).items():
        assert rep.empirical_dim == rep.formula_dim > 0, space
        assert rep.samples_used == rep.formula_dim + RANK_MARGIN, space
        assert not rep.inconclusive, space
        assert (rep.singular_value_gap is None) == (space == "co"), space


@pytest.mark.parametrize("space,expected", [("r", 24), ("a", 6), ("f", 21), ("p", 15)])
def test_empirical_dimension_n3(space, expected):
    for sig in ((3, 0), (2, 1)):
        rep = dimension_reports(3, sig, spaces=(space,))[space]
        assert rep.empirical_dim == expected
        assert rep.formula_dim == expected
        assert not rep.inconclusive
        assert rep.singular_value_gap is None or rep.singular_value_gap >= 1e6


def test_empirical_dimension_empty_space():
    rep = dimension_reports(3, (3, 0), samples=12, spaces=("W6",))["W6"]
    assert rep.empirical_dim == 0
    assert rep.samples_used == 0
    assert rep.singular_value_gap is None and not rep.inconclusive


def test_margin_makes_the_report_conclusive():
    # formula_dim samples of a nonempty space span it but reject no singular
    # value: inconclusive; the RANK_MARGIN more rows of the default give the gap
    d = formula_dim("a", 4)
    for sig in ((4, 0), (3, 1)):
        rep = dimension_reports(4, sig, samples=d, spaces=("a",))["a"]
        assert (rep.empirical_dim, rep.samples_used) == (d, d)
        assert rep.singular_value_gap is None and rep.inconclusive
        rep = dimension_reports(4, sig, spaces=("a",))["a"]
        assert (rep.empirical_dim, rep.samples_used) == (d, d + RANK_MARGIN)
        assert rep.singular_value_gap >= GAP_RATIO and not rep.inconclusive


def test_inconclusive_when_undersampled():
    # fewer samples than the true dimension leaves no rejected singular value
    rep = dimension_reports(3, (3, 0), samples=10, spaces=("r",))["r"]
    assert rep.singular_value_gap is None and rep.inconclusive


@pytest.mark.parametrize("family", ["W", "A"])
def test_family_ranked_from_one_projection_per_chunk(monkeypatch, family):
    # one projector call per CHUNK rows of the largest count, the 38 rows of
    # block 7 at n = 4, serves all eight blocks; each block alone would take 9
    top = formula_dim(f"{family}7", 4) + RANK_MARGIN
    assert top == 38
    proj = {"W": "w_projections", "A": "a_projections"}[family]
    calls = []
    real = getattr(sampling, proj)
    monkeypatch.setattr(sampling, proj, lambda t, g: calls.append(len(t)) or real(t, g))
    spaces = [f"{family}{j}" for j in range(1, 9)]
    reports = dimension_reports(4, spaces=spaces)
    assert calls == [sampling.CHUNK, top - sampling.CHUNK]
    assert reports[f"{family}7"].samples_used == top
    for space in spaces:
        assert reports[space].empirical_dim == reports[space].formula_dim, space


def test_family_pass_gives_the_per_space_stacks(monkeypatch):
    # bit for bit the co(V) coordinates of the rows `_stack` draws for each space
    # alone, though 'co' and 'r' share one noise draw and each family (with 'f'
    # and 'f_pair' in W's, and ψ and μ for 'a', 's', 'a_plus_s') one projection per chunk
    g, ranked, real = standard_scalar_product(3, 1), {}, sampling._report

    def keep(space, n, rows):
        ranked[space] = rows
        return real(space, n, rows)

    monkeypatch.setattr(sampling, "_report", keep)
    assert set(dimension_reports(4, (3, 1))) == set(ranked)
    for space, rows in ranked.items():
        stack = sampling._stack(space, g, 0, range(formula_dim(space, 4) + RANK_MARGIN))
        assert np.array_equal(rows, np.array([cov_coordinates(t, 4) for t in stack])), space


@pytest.mark.parametrize("n,w_calls,draws", [(5, 7, 258), (6, 13, 548)])
def test_one_w_pass_and_one_noise_draw_per_index(monkeypatch, n, w_calls, draws):
    # one w_projections call per CHUNK rows of the largest of the W blocks, 'f'
    # and 'f_pair' (the dim(f) + RANK_MARGIN 'f' rows), and one stream per index
    # of the largest stack, 'co', which 'r' shares
    calls = Counter()
    for name in ("w_projections", "rng_stream"):
        real = getattr(sampling, name)
        counted = lambda *args, name=name, real=real: calls.update([name]) or real(*args)
        monkeypatch.setattr(sampling, name, counted)
    monkeypatch.setattr(sampling, "numerical_rank", lambda rows: (0, None))  # skip the SVDs
    dimension_reports(n)
    assert calls == {"w_projections": w_calls, "rng_stream": draws}
    assert w_calls == -(-(formula_dim("f", n) + RANK_MARGIN) // sampling.CHUNK)
    assert draws == formula_dim("co", n) + RANK_MARGIN


def test_one_psi_and_one_mu_per_chunk_serve_a_s_and_a_plus_s(monkeypatch):
    # 'a', 's' and 'a_plus_s' = ψ + μ read one ψ and one μ call per CHUNK rows
    # of the largest of them, 'a_plus_s'
    calls = Counter()
    for name in ("psi", "mu"):
        real = getattr(sampling, name)
        counted = lambda t, name=name, real=real: calls.update([name]) or real(t)
        monkeypatch.setattr(sampling, name, counted)
    reports = dimension_reports(4, spaces=("a", "s", "a_plus_s"))
    chunks = -(-(formula_dim("a_plus_s", 4) + RANK_MARGIN) // sampling.CHUNK)
    assert calls == {"psi": chunks, "mu": chunks} and chunks == 3
    for rep in reports.values():
        assert rep.empirical_dim == rep.formula_dim and not rep.inconclusive, rep.space


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
    for i in range(2 * formula_dim("r", 3)):
        r = sample("r", 3, (3, 0), seed=5, index=i)
        for j, c in enumerate(w_projections(r, g)):
            w_rows[j].append(c.ravel())
        for j, c in enumerate(a_projections(r, g)):
            a_rows[j].append(c.ravel())
    wd = [numerical_rank(np.asarray(rows), floor=1e-10)[0] for rows in w_rows]
    ad = [numerical_rank(np.asarray(rows), floor=1e-10)[0] for rows in a_rows]
    assert sum(wd) == formula_dim("r", 3) == sum(ad)
    assert wd[1] == wd[4] == ad[1] == ad[2]
    assert wd[2] == wd[3] == ad[3] == ad[4]
    assert wd[0] == ad[0] == 1
    assert wd[5] == ad[5] == 0 and wd[7] == ad[7] == 0


def test_all_sample_spaces_reachable_n4():
    for space in SAMPLE_SPACES:
        t = sample(space, 4, (4, 0), seed=1)
        assert t.shape == (4, 4, 4, 4)

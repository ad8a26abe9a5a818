import itertools
from collections import Counter

import numpy as np
import pytest

import curvdec.decomp as decomp
import curvdec.sampling as sampling
from curvdec.cli import main
from curvdec.decomp import a_projections, projective_part, w_projections
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
    FORMULA_DIMS,
    SAMPLE_SPACES,
    DimensionReport,
    dimension_reports,
    formula_dim,
    rng_stream,
    sample,
)
from curvdec.spaces import bianchi_project, membership_residual, mu, psi, ricci, ricci_star
from curvdec.suite import SuiteConfig, run_invariant_suite

# the reference of the span certificates below, independent of the projector traces: an
# SVD rank with the gap below it, and a roundoff floor under which a projection is empty
EMPTY_NORM = 1e-10
RANK_RATIO, GAP_RATIO = 1e-8, 1e6
RANK_MARGIN = 8  # rows of a rank stack beyond its expected rank: they give the gap


def numerical_rank(rows):
    """Rank by singular-value thresholding at RANK_RATIO of the largest value, as (rank, gap).

    The gap is the ratio between the smallest accepted and the largest rejected
    singular value; it is None when no value was rejected, and an empty or all-zero
    stack has rank 0.
    """
    s = np.linalg.svd(rows, compute_uv=False) if rows.size else np.zeros(1)
    rank = int(np.sum(s > RANK_RATIO * s[0]))
    if rank in (0, len(s)):
        return rank, None
    return rank, float("inf") if s[rank] == 0.0 else float(s[rank - 1] / s[rank])


def f_pair(base, w):
    return base - w[2] - w[3] - w[7]


def images(base, g):
    """The unnormalized image of one 'r' tensor in every space but 'co', tensor by tensor."""
    w, a = w_projections(base, g), a_projections(base, g)
    return {
        "r": base,
        "a": psi(base),
        "s": mu(base),
        "a_plus_s": psi(base) + mu(base),
        "f": base - w[2],
        "f_pair": f_pair(base, w),
        "p": projective_part(base, g),
        "t": decomp._Parts(base, g).traceless_core(),
        **{f"W{j + 1}": w[j] for j in range(8)},
        **{f"A{j + 1}": a[j] for j in range(8)},
    }


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
        t = images(base / np.max(np.abs(base)), g)[space]
    m = float(np.max(np.abs(t)))
    return None if m < EMPTY_NORM else t / m


def cov_coordinates(t, n):
    """The co(V) coordinates of one tensor: its entries t[i, j] with i < j, flattened."""
    return np.concatenate([t[i, j].ravel() for i in range(n) for j in range(i + 1, n)])


def reference_maps(n, sig):
    """The matrix on co(V) of each space's map, P o B ('co': the identity), built one
    basis tensor at a time: column b holds the co(V) coordinates of the b-th basis
    tensor's image."""
    g = standard_scalar_product(*sig)
    columns = {space: [] for space in SAMPLE_SPACES}
    for i, j in itertools.combinations(range(n), 2):  # the order of cov_coordinates
        for k, l in itertools.product(range(n), repeat=2):
            t = np.zeros((n,) * 4)
            t[i, j, k, l], t[j, i, k, l] = 1.0, -1.0
            for space, image in {"co": t, **images(bianchi_project(t), g)}.items():
                columns[space].append(cov_coordinates(image, n))
    return {space: np.array(cols).T for space, cols in columns.items()}


def sampled_rank(space, n, sig, count=None):
    """numerical_rank of the first count samples of the space (formula_dim + RANK_MARGIN by
    default) in co(V) coordinates, as (rank, gap)."""
    count = formula_dim(space, n) + RANK_MARGIN if count is None else count
    stack = sampling.Block(standard_scalar_product(*sig), n, range(count)).stack(space)
    return numerical_rank(np.array([cov_coordinates(t, n) for t in stack]))


def _compare_with_reference(n, spaces):
    for sig in ((n, 0), (n - 1, 1)):
        reports = dimension_reports(n, sig)
        assert list(reports) == list(SAMPLE_SPACES)
        maps = reference_maps(n, sig)
        blocks, guard = sampling._blocks(n, standard_scalar_product(*sig), spaces)
        for space in spaces:
            # the reference map is idempotent, so its trace is its rank; a projector's
            # nonzero singular values are at least 1
            m = maps[space]
            assert np.abs(m @ m - m).max() < 1e-12, space
            # it is block-diagonal over the parity classes, with the blocks the probes read
            full = np.zeros_like(m)
            for members, block in zip(sampling._co_basis(n)[3], blocks[space]):
                full[members[:, :, None], members[:, None, :]] = block
            assert np.abs(full - m).max() < 1e-14 and guard[space] == 0.0, space
            dim = round(np.trace(m))
            assert reports[space] == DimensionReport(space, dim, formula_dim(space, n), False)
            assert dim == np.linalg.matrix_rank(m, tol=1e-9), space
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
    # formula_dim + RANK_MARGIN samples of each space ranked over all n**4 columns and over
    # the co(V) columns: the same rank, the formula dimension, with a clear gap in both but
    # for an empty space and for 'co', which fills co(V); a check independent of the traces
    for sig in ((n, 0), (n - 1, 1)):
        g = standard_scalar_product(*sig)
        for space in SAMPLE_SPACES:
            k = formula_dim(space, n) + RANK_MARGIN
            try:
                stack = sampling.Block(g, n, range(k)).stack(space)
            except EmptySpace:  # W6, W8, A6 and A8 at n = 3
                assert formula_dim(space, n) == 0, space
                continue
            rank, gap = numerical_rank(stack.reshape(len(stack), n**4))
            cov_rank, cov_gap = sampled_rank(space, n, sig)
            assert rank == cov_rank == formula_dim(space, n), space
            assert gap >= GAP_RATIO, space
            assert cov_gap is None if space == "co" else cov_gap >= GAP_RATIO, space


@pytest.mark.parametrize("n,expected", [(3, 27), (4, 96), (5, 250)])
def test_co_fills_cov_and_is_conclusive(n, expected):
    # the trace of the identity on co(V) is its basis count, an exact integer
    rep = dimension_reports(n, (n, 0), spaces=("co",))["co"]
    assert rep == DimensionReport("co", expected, expected, False)
    assert len(sampling._co_basis(n)[0]) == expected


# the suite's checks that are verdicts on the class blocks of `sampling._blocks`
BLOCK_CHECKS = [f"{family}_{law}" for law in ("completeness", "idempotence", "orthogonality")
                for family in "wa"] + ["wa_map_coincidences", "dimension_consistency"]


def plain_basis(n):
    """The plain coordinate basis of co(V), one tensor a row, built from sampling's index
    layout, with the n**4 index of each tensor's own coordinate."""
    flat, mirror, *_ = sampling._co_basis(n)
    basis = np.zeros((len(flat), n**4))
    basis[range(len(flat)), flat], basis[range(len(flat)), mirror] = 1.0, -1.0
    return flat, basis.reshape((-1,) + (n,) * 4)


def plain_traces(n, sig, planted=None):
    """The trace on co(V) of each space's map, read over the plain basis: each basis tensor
    is projected on its own, CHUNK tensors to a call, and its image read at its own
    coordinate.  A planted map stands in for B, and its trace alone is read, as 'r'."""
    g, (flat, basis), traces = standard_scalar_product(*sig), plain_basis(n), {}
    for lo in range(0, len(basis), sampling.CHUNK):
        chunk = basis[lo : lo + sampling.CHUNK]
        if planted:
            found = {"r": planted(chunk)}
        else:
            found = {"co": chunk, **images(bianchi_project(chunk), g)}
        for space, image in found.items():
            read = image.reshape(len(chunk), -1)[range(len(chunk)), flat[lo : lo + len(chunk)]]
            traces[space] = traces.get(space, 0.0) + float(read.sum())
    return traces


def packed_traces(n, sig, spaces):
    """The trace of each space's map, the sum of the traces of its class blocks."""
    blocks, _ = sampling._blocks(n, standard_scalar_product(*sig), spaces)
    return {space: sum(float(np.trace(b, axis1=1, axis2=2).sum()) for b in stacks)
            for space, stacks in blocks.items()}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_packed_traces_equal_plain_traces(n):
    # every map commutes with the coordinate reflections of a diagonal metric, so the
    # probes read the trace the plain basis reads, in every signature
    for p in range(n + 1):
        packed = packed_traces(n, (p, n - p), SAMPLE_SPACES)
        plain = plain_traces(n, (p, n - p))
        assert max(abs(packed[space] - plain[space]) for space in SAMPLE_SPACES) < 1e-12, p


@pytest.mark.parametrize("n,rows", [(3, 7), (4, 12), (5, 20), (6, 30)])
def test_probes_hold_each_basis_tensor_once_and_one_per_class(monkeypatch, n, rows):
    # the probes _blocks projects are sums of plain basis tensors: each basis tensor sits
    # in exactly one row, no row holds two tensors of one parity class (the count of each
    # coordinate in (i, j, k, l) mod 2), and there are as many rows as the largest class;
    # the one chunk at these n ends in the n + 1 guard rows
    flat, basis = plain_basis(n)
    basis = basis.reshape(len(basis), -1)
    chunks = []
    monkeypatch.setattr(sampling, "bianchi_project", lambda t: chunks.append(t[: -n - 1]) or t)
    sampling._blocks(n, standard_scalar_product(n, 0), ("r",))
    probes = np.concatenate(chunks).reshape(-1, n**4)
    assert len(probes) == rows and all(len(chunk) <= sampling.CHUNK for chunk in chunks)
    # the basis tensors have disjoint supports and norm² 2: member[k, b] is 1 where
    # tensor b is a summand of probe k
    member = probes @ basis.T / 2.0
    assert set(np.unique(member)) == {0.0, 1.0} and np.array_equal(member @ basis, probes)
    assert member.sum(axis=0).tolist() == [1.0] * len(basis) == [1.0] * formula_dim("co", n)
    index = np.stack(np.unravel_index(flat, (n,) * 4), axis=-1)
    parity = np.array([np.bincount(t, minlength=n) % 2 for t in index])
    for k in range(rows):
        assert len(np.unique(parity[member[k] == 1.0], axis=0)) == member[k].sum(), k
    assert rows == max(np.unique(parity, axis=0, return_counts=True)[1])


def test_packing_needs_maps_that_commute_with_reflections(monkeypatch):
    # relabelling coordinates 0 and 1 is linear on co(V) but does not commute with the
    # reflection of coordinate 0: it moves entries between parity classes, so a probe's
    # image carries cross terms and the packed trace is not the trace.  The guard rows
    # catch it: every map read after it has a guard residual of order 1, so `dims` reports
    # them inconclusive and the suite's block verdicts fail
    def relabel(t):
        swap = [1, 0, *range(2, t.shape[-1])]
        return t[..., swap, :, :, :][..., swap, :, :][..., swap, :][..., swap]

    spaces = ("co", "r", "a", "W2", "A7")
    for n, packed, plain in ((3, -5.0, -1.0), (5, 54.0, 18.0)):
        assert plain_traces(n, (n, 0), relabel)["r"] == plain
        assert min(sampling._blocks(n, standard_scalar_product(n, 0), spaces)[1].values()) == 0.0
        with monkeypatch.context() as m:
            m.setattr(sampling, "bianchi_project", relabel)
            assert packed_traces(n, (n, 0), ("r",))["r"] == packed
            guard = sampling._blocks(n, standard_scalar_product(n, 0), spaces)[1]
            assert guard["co"] == 0.0 and min(guard[space] for space in spaces[1:]) > 0.1
            reports = dimension_reports(n, spaces=spaces)
            assert [space for space, rep in reports.items() if rep.inconclusive] == list(spaces[1:])
            if n == 3:
                report = run_invariant_suite(SuiteConfig(dims=(3,), samples=2), only=BLOCK_CHECKS)
                assert not any(entry["pass"] for entry in report.values())


def test_dims_draws_no_sample_and_takes_no_svd(monkeypatch):
    # the dimensions are traces: no stream is drawn and no singular value is taken; nor
    # does a default verify take one, whose ricci_image_dimensions lifts a basis instead
    def refuse(*args, **kwargs):
        raise AssertionError("a sample was drawn or a stack ranked")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg._linalg, "svd", refuse)  # what norm(x, 2) and pinv call
    with monkeypatch.context() as m:
        m.setattr(sampling, "rng_stream", refuse)
        reports = dimension_reports(5)
        assert main(["dims", "--dim", "5"]) == 0
    assert all(rep.empirical_dim == rep.formula_dim for rep in reports.values())
    assert main(["verify"]) == 0  # every check passes


def test_dimension_reports_refuse_empty_runs():
    with pytest.raises(UnknownSpace):
        dimension_reports(3, spaces=("r", "q"))
    for spaces in ("ra", "r", ""):  # a string is not read letter by letter
        with pytest.raises(UnknownSpace, match=f"the string {spaces!r}"):
            dimension_reports(4, spaces=spaces)
    for spaces in ((), iter(())):
        with pytest.raises(EmptyRun):
            dimension_reports(3, spaces=spaces)
    assert list(dimension_reports(3, spaces=iter(("r", "a")))) == ["r", "a"]
    assert dimension_reports(3, spaces=("r", "r")) == dimension_reports(3, spaces=("r",))


def test_signature_must_fit_dimension():
    # (2, 2) is a signature of dimension 4, not 3: nothing may be drawn at n = 4
    for sig in ((2, 2), (2, 0)):
        with pytest.raises(DimensionMismatch):
            sample("r", 3, sig)
        with pytest.raises(DimensionMismatch):
            dimension_reports(3, sig, spaces=("r",))
        with pytest.raises(DimensionMismatch):
            dimension_reports(3, sig)
    # a dimension or signature entry that is not an integer is refused, not truncated
    for call in (
        lambda: sample("r", 3.7),
        lambda: sample("r", 3.0, (3, 0)),
        lambda: sample("r", 3, (2.5, 0.5)),
        lambda: sample("r", True + 2, (True, 2)),
        lambda: formula_dim("r", True),
        lambda: formula_dim("r", 3.9),
        lambda: dimension_reports(3.5, spaces=("r",)),
        lambda: dimension_reports(3, (2.5, 0.5), spaces=("r",)),
        # a signature that is not a pair of integers
        lambda: sample("r", 3, (3,)),
        lambda: sample("r", 3, 3),
        lambda: sample("r", 3, ("1", 2)),
        lambda: dimension_reports(3, (3,)),
        lambda: dimension_reports(3, (1, 1, 1), spaces=("r",)),
    ):
        with pytest.raises(DimensionMismatch):
            call()
    assert np.array_equal(sample("r", np.int64(3), (np.int64(2), 1)), sample("r", 3, (2, 1)))


def test_determinism_bit_identical():
    a = sample("r", 3, (3, 0), seed=123, index=5)
    b = sample("r", 3, (3, 0), seed=123, index=5)
    assert np.array_equal(a, b)
    c = sample("r", 3, (3, 0), seed=124, index=5)
    assert not np.array_equal(a, c)
    assert np.array_equal(sample("a", 4, (3, 1), 99, 2), sample("a", 4, (3, 1), 99, 2))


def test_stream_keys_non_negative_and_unaliased():
    # a negative seed or index entry is refused, not passed to numpy, and so is
    # one that is not an integer, which would be truncated (True would be seed 1);
    # numpy integers pass
    bad = ({"seed": -1}, {"index": -1}, {"index": (0, -1)}, {"seed": True}, {"index": True})
    for kwargs in bad + ({"seed": 1.5}, {"index": 2.5}, {"index": (0, 1.5)}):
        with pytest.raises(NegativeStreamKey):
            sample("r", 3, **kwargs)
    typed = sample("r", 3, seed=np.uint64(2), index=(np.int32(1), 4))
    assert np.array_equal(typed, sample("r", 3, seed=2, index=(1, 4)))
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
    # emptiness is read off the dimension table: at n = 3..8 a space is empty exactly
    # where its formula dimension is 0, so these four only, at n = 3
    for n in range(3, 9):
        for space in SAMPLE_SPACES:
            if formula_dim(space, n) == 0:
                with pytest.raises(EmptySpace):
                    sample(space, n, (n - 1, 1), seed=3)
            else:
                assert np.abs(sample(space, n, (n - 1, 1), seed=3)).max() == 1.0, (n, space)
    # the key is drawn first: a bad key is refused, also for an empty space
    with pytest.raises(NegativeStreamKey):
        sample("W6", 3, seed=-1)


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
    # sample, dimension_reports and run_invariant_suite all pass formula_dim, which refuses
    # a dimension past MAX_DIM before anything of size n**4 is allocated
    assert formula_dim("r", sampling.MAX_DIM) > 0
    for n in (sampling.MAX_DIM + 1, 2**63):
        with pytest.raises(DimensionMismatch, match="exceeds"):
            formula_dim("r", n)


@pytest.mark.parametrize("sig", [(5, 0), (4, 1)])
def test_default_sample_counts_match_formula_n5(sig):
    # formula_dim + RANK_MARGIN samples of a nonempty space rank to its formula dimension
    # with a clear gap (none for 'co', which fills co(V)): the sampler's spaces are the
    # spaces whose traces `dims` reports
    for space in SAMPLE_SPACES:
        rank, gap = sampled_rank(space, 5, sig)
        assert rank == formula_dim(space, 5), space
        assert gap is None if space == "co" else gap >= GAP_RATIO, space


@pytest.mark.parametrize("sig", [(6, 0), (5, 1)])
def test_default_sample_counts_match_formula_n6(sig):
    for space in SAMPLE_SPACES:
        rank, gap = sampled_rank(space, 6, sig)
        assert rank == formula_dim(space, 6) > 0, space
        assert gap is None if space == "co" else gap >= GAP_RATIO, space


# n = 3 to 7 in a definite and a Lorentzian signature, and n = 8 in (8, 0) alone: each
# n = 8 run takes about 2 s
TRACE_GRID = [(n, sig) for n in range(3, 8) for sig in ((n, 0), (n - 1, 1))] + [(8, (8, 0))]


@pytest.mark.parametrize("n,sig", TRACE_GRID, ids=[f"{n}-{p},{q}" for n, (p, q) in TRACE_GRID])
def test_dims_matches_formula_at_every_n(n, sig):
    for space, rep in dimension_reports(n, sig).items():
        assert rep == DimensionReport(space, formula_dim(space, n), formula_dim(space, n), False)


@pytest.mark.parametrize("space,expected", [("r", 24), ("a", 6), ("f", 21), ("p", 15)])
def test_empirical_dimension_n3(space, expected):
    for sig in ((3, 0), (2, 1)):
        rep = dimension_reports(3, sig, spaces=(space,))[space]
        assert rep.empirical_dim == expected
        assert rep.formula_dim == expected
        assert not rep.inconclusive


def test_empirical_dimension_empty_space():
    # W6's projector vanishes at n = 3: its trace is 0 up to roundoff, a conclusive 0
    rep = dimension_reports(3, (3, 0), spaces=("W6",))["W6"]
    assert rep == DimensionReport("W6", 0, 0, False)


def test_inconclusive_when_not_idempotent(monkeypatch):
    # W6 scaled by 1.001 is no projector: its trace, 1.001 dim W6, is no integer, so the
    # report is inconclusive and the suite's dimension_consistency fails; the rank of
    # sampled images cannot see the scale
    real = decomp._Parts.w

    def scaled(parts, keep=range(8)):
        return [1.001 * c if j == 5 else c for j, c in zip(keep, real(parts, keep))]

    monkeypatch.setattr(decomp._Parts, "w", scaled)  # every W projection goes through it
    reports = dimension_reports(4)
    assert [space for space, rep in reports.items() if rep.inconclusive] == ["W6"]
    assert reports["W6"].empirical_dim == formula_dim("W6", 4)  # 10.01 rounds to 10
    report = run_invariant_suite(SuiteConfig(dims=(4,)), only=["dimension_consistency"])
    assert report["dimension_consistency"]["pass"] is False


@pytest.mark.parametrize("family", ["W", "A"])
def test_family_ranked_from_one_projection_per_chunk(monkeypatch, family):
    # at n = 4 the 96 co(V) basis tensors pack into 12 probes: one projector call on
    # them serves all eight blocks
    calls, name = [], family.lower()
    real = getattr(decomp._Parts, name)
    counted = lambda parts, keep=range(8): calls.append(len(parts.t)) or real(parts, keep)
    monkeypatch.setattr(decomp._Parts, name, counted)
    spaces = [f"{family}{j}" for j in range(1, 9)]
    reports = dimension_reports(4, spaces=spaces)
    assert calls == [12 + 4 + 1]  # and the guard rows, x and its 4 reflections
    for space in spaces:
        assert reports[space].empirical_dim == reports[space].formula_dim, space


def test_family_pass_gives_the_per_space_stacks(monkeypatch):
    # bit for bit the images each space's own projection gives, though each family
    # (with 'f' and 'f_pair' in W's, and ψ and μ for 'a', 's', 'a_plus_s') is projected
    # once per chunk
    g, seen, real = standard_scalar_product(3, 1), [], sampling._project

    def keep(space, parts, comps=None):
        out = real(space, parts, comps)
        seen.append((space, parts.t, out))
        return out

    monkeypatch.setattr(sampling, "_project", keep)
    dimension_reports(4, (3, 1))
    assert {space for space, _, _ in seen} == set(SAMPLE_SPACES) - {"co", "r"}
    for space, base, out in seen:
        family = sampling._family(space)  # a fresh parts object and family pass for each space
        comps = None if family is None else getattr(decomp._Parts(base, g), family)()
        assert np.array_equal(out, real(space, decomp._Parts(base, g), comps)), space


def test_block_draws_each_key_once(monkeypatch):
    # a block that reads both 'co' and 'r', in either order, draws each key's stream
    # once, and its rows are still the one-key samples
    g, calls, real = standard_scalar_product(3, 1), Counter(), sampling.rng_stream
    monkeypatch.setattr(sampling, "rng_stream", lambda seed, i: calls.update([i]) or real(seed, i))
    for order in (("co", "r"), ("r", "co")):
        calls.clear()
        block = sampling.Block(g, 4, range(5, 9))
        stacks = {space: block.stack(space) for space in order}
        assert calls == Counter(range(5, 9)), order
        for space, rows in stacks.items():
            for index, row in zip(range(5, 9), rows, strict=True):
                assert np.array_equal(row, sample(space, 4, (3, 1), 4, index)), (space, index)


@pytest.mark.parametrize("n,w_calls", [(5, 1), (6, 1), (7, 2)])
def test_one_w_pass_per_chunk_and_no_draw(monkeypatch, n, w_calls):
    # one W pass per CHUNK probes (20, 30 and 42 at n = 5, 6, 7) serves the
    # W blocks, 'f' and 'f_pair', and no stream is drawn
    calls = Counter()
    for owner, name in ((decomp._Parts, "w"), (sampling, "rng_stream")):
        real = getattr(owner, name)
        counted = lambda *args, name=name, real=real: calls.update([name]) or real(*args)
        monkeypatch.setattr(owner, name, counted)
    dimension_reports(n)
    assert calls == {"w": w_calls}
    assert w_calls == -(-(sampling._co_basis(n)[2].max() + 1) // sampling.CHUNK)


def test_one_psi_and_one_mu_per_chunk_serve_a_s_and_a_plus_s(monkeypatch):
    # 'a', 's' and 'a_plus_s' = ψ + μ read one ψ and one μ call per CHUNK probes: one
    # chunk of 12 at n = 4; 'a' alone reads no μ
    calls = Counter()
    for name in ("psi", "mu"):
        real = getattr(decomp, name)
        counted = lambda t, name=name, real=real: calls.update([name]) or real(t)
        monkeypatch.setattr(decomp, name, counted)
    reports = dimension_reports(4, spaces=("a", "s", "a_plus_s"))
    assert calls == {"psi": 1, "mu": 1}
    for rep in reports.values():
        assert rep.empirical_dim == rep.formula_dim and not rep.inconclusive, rep.space
    calls.clear()
    assert dimension_reports(4, spaces=("a",))["a"].empirical_dim == formula_dim("a", 4)
    assert calls == {"psi": 1}


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

    def rank(rows):
        # W6, W8, A6 and A8 vanish at n = 3, up to roundoff of order 1e-16 that a rank
        # relative to the largest singular value would count: zero below 1e-10 absolute
        rows = np.asarray(rows)
        return 0 if np.linalg.norm(rows, 2) <= 1e-10 else numerical_rank(rows)[0]

    assert numerical_rank(np.zeros((6, 81))) == (0, None)
    wd = [rank(rows) for rows in w_rows]
    ad = [rank(rows) for rows in a_rows]
    assert sum(wd) == formula_dim("r", 3) == sum(ad)
    assert wd[1] == wd[4] == ad[1] == ad[2]
    assert wd[2] == wd[3] == ad[3] == ad[4]
    assert wd[0] == ad[0] == 1
    assert wd[5] == ad[5] == 0 and wd[7] == ad[7] == 0


def test_all_sample_spaces_reachable_n4():
    for space in SAMPLE_SPACES:
        t = sample(space, 4, (4, 0), seed=1)
        assert t.shape == (4, 4, 4, 4)


def test_non_finite_trace_reads_inconclusive(monkeypatch):
    # a map whose image holds a NaN has a NaN trace, which has no integer: its report reads
    # inconclusive with empirical_dim -1, and dimension_consistency fails, the run goes on
    exact = decomp._Parts.w

    def planted(parts, keep=range(8)):
        return [np.full_like(c, np.nan) if j == 0 else c for j, c in zip(keep, exact(parts, keep))]

    monkeypatch.setattr(decomp._Parts, "w", planted)
    assert dimension_reports(3, spaces=("W1",)) == {"W1": DimensionReport("W1", -1, 1, True)}
    cfg = SuiteConfig(dims=(3,), samples=2)
    report = run_invariant_suite(cfg, only=["dimension_consistency"])["dimension_consistency"]
    assert (report["pass"], report["worst_residual"]) == (False, 1.0)

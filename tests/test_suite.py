import json
import math
from collections import Counter

import numpy as np
import pytest

import curvdec.decomp as decomp
import curvdec.sampling as sampling
import curvdec.suite as suite
from curvdec.cli import main
from curvdec.errors import CurvdecError, DimensionMismatch, EmptyRun, NegativeStreamKey
from curvdec.errors import NonFiniteInput, UnknownCheck, UnknownSpace
from curvdec.sampling import formula_dim, sample
from curvdec.suite import CHECKS, SuiteConfig, run_invariant_suite


def test_default_config_all_checks_pass():
    report = run_invariant_suite(SuiteConfig())
    assert set(report) == set(CHECKS)
    failed = {k: v["worst_residual"] for k, v in report.items() if not v["pass"]}
    assert not failed, failed


def test_zero_tolerance_sanity():
    # impossible tolerance: the float-residual checks must all fail
    report = run_invariant_suite(
        SuiteConfig(dims=(3,), signatures=((3, 0),), samples=2, tolerance=0.0)
    )
    failed = [k for k, v in report.items() if not v["pass"]]
    assert "w_completeness" in failed and "a_completeness" in failed
    assert len(failed) >= len(report) // 2


def test_single_check_selectable_by_name():
    report = run_invariant_suite(
        SuiteConfig(dims=(3,), signatures=((3, 0),), samples=4),
        only=["wa_map_coincidences"],
    )
    assert list(report) == ["wa_map_coincidences"]
    entry = report["wa_map_coincidences"]
    assert entry["pass"] is True
    assert entry["worst_residual"] <= 1e-9
    assert entry["config"]["samples"] == 4


def test_report_shape_and_config_echo():
    cfg = SuiteConfig(dims=(3,), signatures=((2, 1),), samples=2, seed=7, tolerance=1e-8)
    report = run_invariant_suite(cfg, only=["conjugate_split"])
    entry = report["conjugate_split"]
    assert set(entry) == {"pass", "worst_residual", "config"}
    assert entry["config"] == {
        "dims": [3],
        "signatures": [[2, 1]],
        "samples": 2,
        "seed": 7,
        "tolerance": 1e-8,
    }


def test_suite_deterministic_across_runs():
    cfg = SuiteConfig(dims=(3,), signatures=((3, 0),), samples=4, seed=3)
    only = ["w_completeness", "singer_thorpe", "ricci_block_closed_form"]
    r1 = run_invariant_suite(cfg, only=only)
    r2 = run_invariant_suite(cfg, only=only)
    for name in only:
        assert r1[name]["worst_residual"] == r2[name]["worst_residual"]


def test_signature_grid_skips_inconsistent_entries():
    cfg = SuiteConfig(dims=(3, 4), signatures=((3, 0),), samples=2)
    assert list(cfg.grid()) == [(3, (3, 0))]


def test_mixed_signatures_beyond_default_grid():
    # the decompositions are signature-agnostic; exercise q >= 2
    report = run_invariant_suite(
        SuiteConfig(dims=(4, 5), signatures=((2, 2), (3, 2)), samples=8)
    )
    failed = {k: v["worst_residual"] for k, v in report.items() if not v["pass"]}
    assert not failed, failed


def test_empty_runs_refused():
    # a run that draws nothing or visits no grid point must not report a pass
    for cfg in (
        SuiteConfig(dims=(3,), samples=0),
        SuiteConfig(dims=(3,), samples=2.5),
        SuiteConfig(dims=(3,), samples=True),
        SuiteConfig(dims=(3,), signatures=((2, 2),)),
        SuiteConfig(dims=()),
    ):
        with pytest.raises(EmptyRun):
            run_invariant_suite(cfg, only=["w_completeness"])
    for only in ([], (), set()):  # no check selected is no run, not an empty pass
        with pytest.raises(EmptyRun):
            run_invariant_suite(SuiteConfig(dims=(3,), samples=2), only=only)


def test_unknown_check_names_refused():
    # a typo must not read as an empty, passing report, even beside a known name
    cfg = SuiteConfig(dims=(3,), samples=2)
    for only in (["w_completness"], ["w_completeness", "no_such_check"]):
        with pytest.raises(UnknownCheck) as err:
            run_invariant_suite(cfg, only=only)
        assert only[-1] in str(err.value)
    # a bare string is not read letter by letter, nor the empty one as no check
    for only in ("w_completeness", ""):
        with pytest.raises(UnknownCheck, match=f"the string {only!r}"):
            run_invariant_suite(cfg, only=only)
    assert issubclass(UnknownCheck, CurvdecError)


def cheap_run(only=("conjugation_involution",), **fields):
    """One sample of one cheap check at n = 3, with the given config fields replaced."""
    cfg = {"dims": (3,), "signatures": ((3, 0),), "samples": 1, **fields}
    return run_invariant_suite(SuiteConfig(**cfg), only=only)


@pytest.mark.parametrize("error,match,call", [
    (DimensionMismatch, "dims 3 ", lambda: cheap_run(dims=3)),
    (DimensionMismatch, "dims None", lambda: cheap_run(dims=None)),
    (DimensionMismatch, "signatures 5 ", lambda: cheap_run(signatures=5)),
    (DimensionMismatch, r"\(2, \[1\]\)", lambda: cheap_run(signatures=((2, [1]),))),
    (DimensionMismatch, "array", lambda: cheap_run(signatures=np.ones(2))),
    (UnknownCheck, "got 5$", lambda: cheap_run(only=5)),
    (UnknownCheck, r"\[\['x'\]\]", lambda: cheap_run(only=[["x"]])),
    (UnknownCheck, r"\['x', 1\]", lambda: cheap_run(only=[1, "x"])),
    (UnknownSpace, r"\['r'\]", lambda: formula_dim(["r"], 3)),
    (UnknownSpace, r"\['r'\]", lambda: sample(["r"], 3)),
], ids=["dims-int", "dims-none", "signatures-int", "signature-ragged", "signatures-array",
        "only-int", "only-list-entry", "only-mixed-entries", "formula_dim-list", "sample-list"])
def test_config_and_names_of_the_wrong_kind_refused(error, match, call):
    # a number where a collection belongs, a ragged signature or an unhashable name is a typed
    # refusal before any check runs, not Python's TypeError or numpy's ValueError
    with pytest.raises(error, match=match):
        call()
    assert cheap_run()["conjugation_involution"]["pass"]  # the config they alter is valid


def test_single_check_runs_reproduce_full_run():
    cfg = SuiteConfig(dims=(3,), samples=4)
    full = run_invariant_suite(cfg)
    for name in CHECKS:
        assert run_invariant_suite(cfg, only=[name])[name] == full[name], name


def test_checks_read_the_one_sample_sequence(monkeypatch):
    # row i of every stack a check reads in the block at lo is
    # sample(space, n, sig, seed, index=lo + i); at CHUNK + 1 samples the last
    # index is a block of its own
    read, stack = [], sampling.Block.stack

    def recording(block, space):
        out = stack(block, space)
        read.append((space, block.keys, out.copy()))
        return out

    monkeypatch.setattr(sampling.Block, "stack", recording)
    for samples, blocks in ((3, {(0, 3)}), (suite.CHUNK + 1, {(0, suite.CHUNK), (suite.CHUNK, 1)})):
        read.clear()
        cfg = SuiteConfig(dims=(4,), signatures=((3, 1),), samples=samples, seed=5)
        only = ["ricci_symmetry_equivalence", "ricci_conjugate_trace", "projective_part"]
        run_invariant_suite(cfg, only=only)
        seen = list(read)  # `sample` below reads through a block too
        assert {space for space, _, _ in seen} == {"r", "co", "a_plus_s", "f_pair", "f", "t"}
        assert {(keys[0], len(rows)) for _, keys, rows in seen} == blocks
        for space, keys, rows in seen:
            for index, row in zip(keys, rows, strict=True):
                want = sample(space, 4, (3, 1), 5, index=index)
                assert np.array_equal(row, want), (space, index)


def test_checks_read_only_their_own_block(monkeypatch):
    # at 5 samples no check draws a sample past index 4, and neither the checks on the
    # class blocks nor ricci_image_dimensions draws anything
    drawn, real = set(), sampling.rng_stream
    monkeypatch.setattr(sampling, "rng_stream", lambda seed, i: drawn.add(i) or real(seed, i))
    run_invariant_suite(SuiteConfig(dims=(3, 4), samples=5))
    assert drawn == set(range(5))


def test_trace_reconstruction_alone_draws_only_the_seed_check(monkeypatch):
    # the check certifies sigma on a basis of forms: run alone it draws only the stream of
    # the up-front seed check, rng_stream(seed, 0), and reports as in the full run, which
    # draws that one and each block's noise, 32 keys a dimension
    calls, real = [], sampling.rng_stream
    monkeypatch.setattr(sampling, "rng_stream",
                        lambda seed, i: calls.append((seed, i)) or real(seed, i))
    full = run_invariant_suite(SuiteConfig(seed=3))["trace_reconstruction"]
    assert len(calls) == 1 + 2 * suite.CHUNK
    calls.clear()
    report = run_invariant_suite(SuiteConfig(seed=3), only=["trace_reconstruction"])
    assert report == {"trace_reconstruction": full}
    assert calls == [(3, 0)]


def test_shared_stacks_are_read_only(monkeypatch):
    # a check that writes into a stack or its components raises, and the next
    # check still reads the samples themselves
    cfg = SuiteConfig(dims=(3,), signatures=((2, 1),), samples=4, seed=2)
    read = {}

    def writer(ctx):
        for space in ("r", "co"):
            with pytest.raises(ValueError, match="read-only"):
                ctx.stack(space)[0, 0, 1, 0, 1] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            ctx.comps("r", "w")[2, 0, 0, 1, 0, 1] += 1.0
        return ()

    def reader(ctx):
        read.update((space, ctx.stack(space)) for space in ("r", "co"))
        return ()

    monkeypatch.setitem(suite.CHECKS, "w_completeness", writer)
    monkeypatch.setitem(suite.CHECKS, "a_completeness", reader)
    run_invariant_suite(cfg, only=["w_completeness", "a_completeness"])
    for space, rows in read.items():
        want = np.stack([sample(space, 3, (2, 1), 2, index=i) for i in range(4)])
        assert np.array_equal(rows, want), space


def _fault_in_last_result(exact):
    # a stacked map whose last result is off: +1e-6 on a value, a flipped verdict
    def faulty(*args):
        out = exact(*args)
        if np.ndim(out) == 0:
            return out
        out = np.array(out)
        out[..., -1] = ~out[..., -1] if out.dtype == bool else out[..., -1] + 1e-6
        return out

    return faulty


def test_fault_in_last_tensor_of_stack_is_seen(monkeypatch):
    # perturb one entry of only the last tensor a conjugation sees
    exact = suite.conjugate

    def faulty(t):
        out = np.array(exact(t), order="C")
        out.reshape(-1, out.shape[-1] ** 4)[-1, 1] += 1e-6
        return out

    cfg = SuiteConfig(dims=(3,), samples=4)
    monkeypatch.setattr(suite, "conjugate", faulty)
    only = ["conjugate_split", "conjugation_involution"]
    report = run_invariant_suite(cfg, only=only)
    for name in only:
        assert report[name]["pass"] is False, name
    # change only the last sample's pairings, or its Einstein verdict, which the suite
    # reads off a stack's parts: a batch mask or a 0::2 slice that drops the last row of
    # a stack would hide it
    for owner, fake, only in (
        (suite, "tensor_pairing", ["rescale_invariance"]),
        (decomp._Parts, "einstein", ["einstein_projector_criterion"]),
    ):
        assert all(v["pass"] for v in run_invariant_suite(cfg, only=only).values())
        monkeypatch.setattr(owner, fake, _fault_in_last_result(getattr(owner, fake)))
        report = run_invariant_suite(cfg, only=only)
        for name in only:
            assert report[name]["pass"] is False, name


def test_dimension_consistency_sees_a_wrong_table_entry(monkeypatch):
    # the check asserts each block's exact table rank, so one wrong entry fails it
    cfg, only = SuiteConfig(dims=(3,), samples=2), ["dimension_consistency"]
    assert run_invariant_suite(cfg, only=only)["dimension_consistency"]["pass"] is True
    w7 = sampling.FORMULA_DIMS["W7"]
    monkeypatch.setitem(sampling.FORMULA_DIMS, "W7", lambda n: w7(n) + 1)
    assert run_invariant_suite(cfg, only=only)["dimension_consistency"]["pass"] is False


def test_dimension_checks_read_sampling_bounds(monkeypatch):
    # dimension_consistency reads sampling's trace bound: no trace lies within -1 of an
    # integer.  ricci_image_dimensions reads no bound but certifies the maps: a Ricci
    # trace cut to its symmetric part, or a sigma 0.1 % off, fails it and it alone, also
    # at zero tolerance, where the exact maps pass it at every n = 3..8
    ricci, sigma_split = suite.ricci, suite.sigma_split
    plants = [(sampling, "TRACE_TOL", -1.0),
              (suite, "ricci", lambda t, g: suite.sym(ricci(t, g))),
              (suite, "sigma_split", lambda omega, theta, g: 1.001 * sigma_split(omega, theta, g))]
    for n in range(3, 9):
        cfg = SuiteConfig(dims=(n,), samples=2, tolerance=0.0)
        # dimension_consistency, which costs more at larger n, and its bound at n = 3 alone
        only = ["ricci_image_dimensions"] + (["dimension_consistency"] if n == 3 else [])
        assert all(rep["pass"] for rep in run_invariant_suite(cfg, only=only).values()), n
        for owner, name, value in plants if n == 3 else plants[1:]:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, value)
                report = run_invariant_suite(cfg, only=only)
            failing = "dimension_consistency" if owner is sampling else "ricci_image_dimensions"
            assert [check for check, rep in report.items() if not rep["pass"]] == [failing], name


def test_negative_seed_refused_before_any_check(monkeypatch):
    # gram_positivity draws nothing at an indefinite signature, so only an
    # up-front refusal keeps this run from reporting a pass; so too for a seed,
    # a dimension or a signature entry that is not an integer (a bool is not),
    # a signature that is not a pair or has a negative entry and a tolerance that
    # is not a finite real number >= 0 (a bool is not), even where a valid grid
    # point would come first: no block of any point is built
    ran, built, real = [], [], suite._Ctx
    monkeypatch.setitem(suite.CHECKS, "gram_positivity", lambda ctx: ran.append(ctx) or ())
    monkeypatch.setattr(suite, "_Ctx", lambda *args: built.append(args) or real(*args))
    for error, cfg in (
        (NegativeStreamKey, SuiteConfig(dims=(3,), signatures=((2, 1),), seed=-1)),
        (NegativeStreamKey, SuiteConfig(dims=(3,), signatures=((2, 1),), samples=2, seed=1.5)),
        (DimensionMismatch, SuiteConfig(dims=(3, 3.5))),
        (DimensionMismatch, SuiteConfig(dims=(3,), signatures=((2, 1), (2.5, 0.5)))),
        (NegativeStreamKey, SuiteConfig(dims=(3,), signatures=((2, 1),), seed=True)),
        (DimensionMismatch, SuiteConfig(dims=(3, True))),
        (DimensionMismatch, SuiteConfig(dims=(3,), signatures=((2, 1), (True, 2)))),
        (DimensionMismatch, SuiteConfig(dims=(3,), signatures=((2, 1), (3,)))),
        (DimensionMismatch, SuiteConfig(dims=(3,), signatures=((2, 1), (2, 1, 0)))),
        (NonFiniteInput, SuiteConfig(dims=(3,), signatures=((2, 1),), tolerance="x")),
        (NonFiniteInput, SuiteConfig(dims=(3,), signatures=((2, 1),), tolerance=math.inf)),
        (NonFiniteInput, SuiteConfig(dims=(3,), signatures=((2, 1),), tolerance=math.nan)),
        (NonFiniteInput, SuiteConfig(dims=(3,), signatures=((2, 1),), tolerance=True)),
        (NonFiniteInput, SuiteConfig(dims=(3,), signatures=((2, 1),), tolerance=-1.0)),
        (DimensionMismatch, SuiteConfig(dims=(3, 4), signatures=((3, 0), (-1, 5)))),
    ):
        with pytest.raises(error):
            run_invariant_suite(cfg, only=["gram_positivity"])
    assert not ran
    assert not built
    # numpy integers are integers
    cfg = SuiteConfig(dims=(np.int64(3),), signatures=((np.int64(2), 1),), samples=np.int64(2))
    assert run_invariant_suite(cfg, only=["gram_positivity"])["gram_positivity"]["pass"]
    assert len(ran) == 1


def test_nan_term_fails_its_check(monkeypatch, capsys):
    # Python's max(0.0, nan) is 0.0: a nan on a later block or in a later term
    # must still fail its check, and the report must stay valid JSON
    def late_nan(ctx):
        yield 4.4e-16 if ctx.lo == 0 else math.nan

    def second_term_nan(ctx):
        yield from (np.full(3, 1e-16), np.array([0.0, math.nan]))

    monkeypatch.setitem(suite.CHECKS, "w_completeness", late_nan)
    monkeypatch.setitem(suite.CHECKS, "a_completeness", second_term_nan)
    cfg = SuiteConfig(dims=(3,), signatures=((3, 0),), samples=2 * suite.CHUNK)
    report = run_invariant_suite(cfg, only=["w_completeness", "a_completeness"])
    for name, entry in report.items():
        assert (entry["pass"], entry["worst_residual"]) == (False, None), name
    argv = ["verify", "--dim", "3", "--signature", "3,0", "--samples", str(cfg.samples)]
    for name in report:
        assert main([*argv, "--suite", name]) == 3
        out = capsys.readouterr()
        assert json.loads(out.out)[name]["worst_residual"] is None
        assert name in out.err


def test_nan_from_a_map_fails_the_checks_that_read_it(monkeypatch):
    # one nan entry in the first tensor a conjugation returns
    exact = suite.conjugate

    def faulty(t):
        out = np.array(exact(t), order="C")
        out.reshape(-1)[1] = math.nan
        return out

    cfg = SuiteConfig(dims=(3,), samples=4)
    only = ["conjugate_split", "membership_tower"]
    assert all(v["pass"] for v in run_invariant_suite(cfg, only=only).values())
    monkeypatch.setattr(suite, "conjugate", faulty)
    report = run_invariant_suite(cfg, only=only)
    for name in only:
        assert (report[name]["pass"], report[name]["worst_residual"]) == (False, None), name


def test_trace_formula_checks_read_the_condition_tables(monkeypatch):
    # a wrong coefficient planted in one entry of a condition table fails the family's
    # trace-formula check; the vanishing checks bound their table at import, through partial
    cfg = SuiteConfig(dims=(4,), samples=8)
    only = ["w_trace_formulas", "a_trace_formulas"]
    assert all(entry["pass"] for entry in run_invariant_suite(cfg, only=only).values())
    w_exact, a_exact = suite._w_conditions, suite._a_conditions

    def w_planted(ric, star, tau, gm, n):
        c = w_exact(ric, star, tau, gm, n)
        c[3] = suite.antisym(star + (3.0 / (n + 2)) * ric)  # 3/(n + 1) in the table
        return c

    def a_planted(ric, star, tau, gm, n):
        c = a_exact(ric, star, tau, gm, n)
        c[4] = suite.antisym(ric + 1.001 * star)
        return c

    monkeypatch.setattr(suite, "_w_conditions", w_planted)
    monkeypatch.setattr(suite, "_a_conditions", a_planted)
    report = run_invariant_suite(cfg, only=only)
    assert [report[name]["pass"] for name in only] == [False, False]


def test_block_walk_equals_one_block_run(monkeypatch):
    # the worst residual of a row-separable check is the max over the blocks,
    # and the checks registered through _first_block read block 0 alone, so one
    # block of all the samples gives the same report
    cfg = SuiteConfig(dims=(3,), samples=2 * suite.CHUNK + 6)
    walked = run_invariant_suite(cfg)
    monkeypatch.setattr(suite, "CHUNK", cfg.samples + 1)
    assert run_invariant_suite(cfg) == walked
    assert len(walked) == len(CHECKS)


def test_fault_in_tail_block_is_seen(monkeypatch):
    # a fault in the last sample alone, which sits in a block of its own
    cfg = SuiteConfig(dims=(3,), signatures=((2, 1),), samples=suite.CHUNK + 1)
    last = sample("a_plus_s", 3, (2, 1), cfg.seed, index=suite.CHUNK)
    exact = suite.conjugate

    def faulty(t):
        out = np.array(exact(t))
        out[np.all(t == last, axis=(-4, -3, -2, -1)), 0, 1, 0, 1] += 1e-6
        return out

    only = ["conjugate_split"]
    assert run_invariant_suite(cfg, only=only)["conjugate_split"]["pass"] is True
    monkeypatch.setattr(suite, "conjugate", faulty)
    assert run_invariant_suite(cfg, only=only)["conjugate_split"]["pass"] is False


@pytest.mark.parametrize("family", ["w", "a"])
def test_orthogonality_read_at_one_sample(monkeypatch, family):
    # the verdict reads the family's class blocks, not samples, so a family whose second
    # part leans on its first fails it at any sample count, one sample included
    check, exact = f"{family}_orthogonality", getattr(decomp._Parts, family)

    def leaning(parts, keep=range(8)):
        full = exact(parts)
        full[1] = full[1] + full[0]
        return [full[j] for j in keep]

    configs = [SuiteConfig(dims=(3,), signatures=((2, 1),), samples=k) for k in (1, 2, 5)]
    assert all(run_invariant_suite(cfg, only=[check])[check]["pass"] for cfg in configs)
    monkeypatch.setattr(decomp._Parts, family, leaning)
    assert not any(run_invariant_suite(cfg, only=[check])[check]["pass"] for cfg in configs)


def test_each_block_projects_once(monkeypatch):
    # at each n of a default run (one block, both signatures), the samples that do
    # not depend on the metric -- 'co', 'r', 'a', 'a_plus_s', and the ψ and μ of 'r'
    # and 'a_plus_s' -- are drawn once for both signatures; every other space is drawn,
    # and each stack's trace data is computed, once per signature.  'f' and 'f_pair'
    # are sums of the 'r' W components.  A component is counted where `decomp._Parts`
    # builds it from a stack's trace data, whoever asks: a block stacks all eight of
    # the families its checks read in full, and the other checks build only the ones
    # they read: W8 of 'a_plus_s', A2 to A5 of 'f_pair', W2 and W3 of 'r' for its
    # Einstein verdict, and singer_thorpe A1, A2 and A6 of 'a'.  The derived maps of a
    # block stack are read off its parts, so singer_thorpe's is the one membership test
    # (`decomp._require_space`) a block stack goes through.  The family verdicts and
    # dimension_consistency draw no sample: each signature projects the Bianchi images of
    # the co(V) basis probes, CHUNK at a time; ricci_image_dimensions lifts a basis of the
    # bilinear forms and draws no sample either
    drawn, built, calls, stack = {}, Counter(), Counter(), sampling.Block.stack

    def recording(block, space):
        out = stack(block, space)
        if not any(out is o for o in drawn.setdefault(space, [])):
            drawn[space].append(out)
        return out

    def count(name, t, k, g=None):
        # a point's metric has entries 0 and ±1, a rescaled one has not
        on_point = g is None or np.isin(g.matrix, (-1.0, 0.0, 1.0)).all()
        for space, outs in drawn.items():
            built[name, space] += k * (on_point and any(t is o for o in outs))
        calls[name] += k

    def family(name, real):
        def build(parts, keep=range(8)):
            count(name, parts.t, len(keep), parts.g)
            return real(parts, keep)

        return build

    def counted(name, real):
        return lambda t, *args: count(name, t, 1) or real(t, *args)

    monkeypatch.setattr(sampling, "rng_stream", counted("rng_stream", sampling.rng_stream))
    monkeypatch.setattr(sampling.Block, "stack", recording)
    monkeypatch.setattr(decomp, "_require_space",
                        counted("_require_space", decomp._require_space))
    for name in ("w", "a"):
        monkeypatch.setattr(decomp._Parts, name, family(name, getattr(decomp._Parts, name)))
    for name in ("psi", "mu"):
        for module in (decomp, suite):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for n in (3, 4):
        drawn.clear()
        built.clear()
        run_invariant_suite(SuiteConfig(dims=(n,)))
        assert [len(out) for out in drawn["r"]] == [sampling.CHUNK]
        assert {space: len(outs) for space, outs in drawn.items() if space != "r"} == {
            **dict.fromkeys(("co", "a", "a_plus_s"), 1),
            **dict.fromkeys(("s", "f", "p", "t", "f_pair"), 2),
        }
        assert +built == {
            ("w", "r"): 20, ("a", "r"): 16, ("w", "f_pair"): 16, ("a", "a_plus_s"): 16,
            ("w", "a_plus_s"): 2, ("a", "f_pair"): 8, ("a", "a"): 6,
            ("psi", "r"): 1, ("mu", "r"): 1, ("psi", "a_plus_s"): 1, ("mu", "a_plus_s"): 1,
            ("psi", "f_pair"): 2, ("mu", "f_pair"): 2, ("psi", "a"): 2,
            ("_require_space", "a"): 2,
        }
    # the components built, and the ψ, μ, stream and membership-test calls, of one
    # default `verify`: the block's 64 streams and the seed check's; the class blocks the
    # family verdicts read (one chunk of probes at n = 3 and 4) add one W and one A pass
    # and one ψ and μ per signature; the public maps test the membership only of what is
    # not a block stack
    calls.clear()
    run_invariant_suite(SuiteConfig())
    assert calls == {"rng_stream": 65, "w": 252, "a": 248, "psi": 40, "mu": 36,
                     "_require_space": 40}


BLOCK_CHECKS = [f"{family}_{law}" for law in ("completeness", "idempotence", "orthogonality")
                for family in "wa"] + ["wa_map_coincidences", "dimension_consistency"]


def test_oblique_split_fails_the_block_orthogonality(monkeypatch):
    # trade E = eps u v^T between W2 and W5 at n = 4, u = W5(e) and v = W2(e) of the basis
    # tensor e at (0, 1, 0, 1), each scaled to max-norm 1: W2 + E and W5 - E are still
    # idempotents with the old sum, zero products and traces, but no longer self-adjoint.
    # The class blocks read P - P^T at 1.5 eps; the sampled pairings of components, which
    # this verdict replaced, read it shrunk to 7.4e-10 at eps = 1e-9 and passed it
    eps, exact, cfg = 1e-9, decomp._Parts.w, SuiteConfig(dims=(4,))

    def traded(parts, keep=range(8)):
        e = np.zeros((4,) * 4)
        e[0, 1, 0, 1], e[1, 0, 0, 1] = 1.0, -1.0
        v, u = (x / np.abs(x).max() for x in exact(decomp._Parts(e, parts.g), (1, 4)))
        d = (eps / 2) * np.tensordot(parts.t, v, 4)[..., None, None, None, None] * u
        comps = exact(parts, keep)
        return [c + d if j == 1 else c - d if j == 4 else c for j, c in zip(keep, comps)]

    assert all(entry["pass"] for entry in run_invariant_suite(cfg, only=BLOCK_CHECKS).values())
    monkeypatch.setattr(decomp._Parts, "w", traded)
    report = run_invariant_suite(cfg, only=BLOCK_CHECKS)
    assert [name for name, entry in report.items() if not entry["pass"]] == ["w_orthogonality"]
    assert report["w_orthogonality"]["worst_residual"] == pytest.approx(1.5 * eps, rel=1e-6)


def test_block_verdicts_read_no_sample():
    # the family verdicts and dimension_consistency read the class blocks of the point's
    # maps once per point: the sample count and the seed do not move their residuals
    reports = [run_invariant_suite(SuiteConfig(samples=samples, seed=seed), only=BLOCK_CHECKS)
               for samples, seed in ((1, 0), (40, 0), (5, 9))]
    residuals = [{name: entry["worst_residual"] for name, entry in rep.items()} for rep in reports]
    assert residuals[0] == residuals[1] == residuals[2]
    assert all(entry["pass"] for entry in reports[0].values())


def test_sample_free_checks_draw_no_noise(monkeypatch):
    # trace_reconstruction and ricci_image_dimensions certify sigma on a basis of forms,
    # and the block checks read the class blocks: none draws a sample, so each, run alone
    # with the block noise made to fail, reads one residual at every sample count and seed
    monkeypatch.setattr(sampling.Block, "noise", lambda block: pytest.fail("noise drawn"))
    for name in ("trace_reconstruction", "ricci_image_dimensions", *BLOCK_CHECKS):
        reports = [run_invariant_suite(SuiteConfig(samples=samples, seed=seed), only=[name])[name]
                   for samples in (1, 32, 40) for seed in (0, 7)]
        assert len({rep["worst_residual"] for rep in reports}) == 1, name
        assert reports[0]["pass"], name

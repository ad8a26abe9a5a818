import json
import math
from collections import Counter

import numpy as np
import pytest

import curvdec.sampling as sampling
import curvdec.suite as suite
from curvdec.cli import main
from curvdec.errors import CurvdecError, EmptyRun, NegativeStreamKey, UnknownCheck
from curvdec.sampling import sample
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
        SuiteConfig(dims=(3,), signatures=((2, 2),)),
        SuiteConfig(dims=()),
    ):
        with pytest.raises(EmptyRun):
            run_invariant_suite(cfg, only=["w_completeness"])


def test_unknown_check_names_refused():
    # a typo must not read as an empty, passing report, even beside a known name
    cfg = SuiteConfig(dims=(3,), samples=2)
    for only in (["w_completness"], ["w_completeness", "no_such_check"]):
        with pytest.raises(UnknownCheck) as err:
            run_invariant_suite(cfg, only=only)
        assert only[-1] in str(err.value)
    assert issubclass(UnknownCheck, CurvdecError)


def test_single_check_runs_reproduce_full_run():
    cfg = SuiteConfig(dims=(3,), samples=4)
    full = run_invariant_suite(cfg)
    for name in CHECKS:
        assert run_invariant_suite(cfg, only=[name])[name] == full[name], name


def test_checks_read_the_one_sample_sequence(monkeypatch):
    # row i of every stack a check reads in the block at lo is
    # sample(space, n, sig, seed, index=lo + i); at CHUNK + 1 samples the last
    # index is a block of its own
    read, stack = [], suite._Ctx.stack

    def recording(ctx, space, count):
        out = stack(ctx, space, count)
        read.append((space, ctx.lo, out.copy()))
        return out

    monkeypatch.setattr(suite._Ctx, "stack", recording)
    for samples, blocks in ((3, {(0, 3)}), (suite.CHUNK + 1, {(0, suite.CHUNK), (suite.CHUNK, 1)})):
        read.clear()
        cfg = SuiteConfig(dims=(4,), signatures=((3, 1),), samples=samples, seed=5)
        only = ["ricci_symmetry_equivalence", "ricci_conjugate_trace", "projective_part"]
        run_invariant_suite(cfg, only=only)
        assert {space for space, _, _ in read} == {"r", "co", "a_plus_s", "f_pair", "f", "t"}
        assert {(lo, len(rows)) for _, lo, rows in read} == blocks
        for space, lo, rows in read:
            for i, row in enumerate(rows):
                want = sample(space, 4, (3, 1), 5, index=lo + i)
                assert np.array_equal(row, want), (space, lo, i)


def test_shared_stacks_are_read_only(monkeypatch):
    # a check that writes into a stack it was given raises, and the next check
    # still reads the samples themselves
    cfg = SuiteConfig(dims=(3,), signatures=((2, 1),), samples=4, seed=2)
    read = {}

    def writer(ctx):
        for space in ("r", "co"):
            with pytest.raises(ValueError, match="read-only"):
                ctx.stack(space, ctx.k)[0, 0, 1, 0, 1] += 1.0
        return ()

    def reader(ctx):
        read.update((space, ctx.stack(space, ctx.k)) for space in ("r", "co"))
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
    # change only the last sample's pairings, or its Einstein verdict: a batch
    # mask or a 0::2 slice that drops the last row of a stack would hide it
    for fake, only in (
        ("tensor_pairing", ["w_orthogonality", "a_orthogonality", "rescale_invariance"]),
        ("equiaffine_einstein_check", ["einstein_projector_criterion"]),
    ):
        assert all(v["pass"] for v in run_invariant_suite(cfg, only=only).values())
        monkeypatch.setattr(suite, fake, _fault_in_last_result(getattr(suite, fake)))
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


def test_dimension_consistency_reads_the_one_gap_rule(monkeypatch):
    # the rank checks share sampling's gap rule: no gap can clear an infinite ratio
    cfg = SuiteConfig(dims=(3,), samples=2)
    only = ["dimension_consistency", "ricci_image_dimensions"]
    assert all(rep["pass"] for rep in run_invariant_suite(cfg, only=only).values())
    monkeypatch.setattr(sampling, "GAP_RATIO", math.inf)
    assert not any(rep["pass"] for rep in run_invariant_suite(cfg, only=only).values())


def test_negative_seed_refused_before_any_check(monkeypatch):
    # gram_positivity draws nothing at an indefinite signature, so only an
    # up-front refusal keeps this run from reporting a pass
    ran = []
    monkeypatch.setitem(suite.CHECKS, "gram_positivity", lambda ctx: ran.append(ctx) or ())
    cfg = SuiteConfig(dims=(3,), signatures=((2, 1),), seed=-1)
    with pytest.raises(NegativeStreamKey):
        run_invariant_suite(cfg, only=["gram_positivity"])
    assert not ran


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


def test_block_walk_equals_one_block_run(monkeypatch):
    # the worst residual of a row-separable check is the max over the blocks,
    # and the FIRST_BLOCK checks read block 0 alone, so one block of all the
    # samples gives the same report
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


def test_each_block_projects_once(monkeypatch):
    # at one grid point of a default-sized run (one block), every space is drawn
    # or projected once, and each stack's W and A components under the point's
    # metric are computed once per family; 'f' and 'f_pair' are sums of the 'r'
    # W components, so sampling's projectors never see a block's rows, and 'a',
    # 's' and 'a_plus_s' read one ψ and one μ of the 'r' rows.
    # dimension_consistency reads the point's `dims` reports, which draw their
    # own rows and touch no block stack
    drawn, projected = {}, Counter()

    def counting_draw(build):
        def wrapper(space, *args):
            out = build(space, *args)
            drawn.setdefault(space, []).append(out)
            return out

        return wrapper

    def counting(proj, name):
        def wrapper(t, g):  # the point's metric is the identity: signature (n, 0)
            for space, outs in drawn.items():
                shared = any(np.may_share_memory(t, o) for o in outs)
                on_point = np.array_equal(g.matrix, np.eye(g.dim))
                projected[name, space] += shared and on_point
            return proj(t, g)

        return wrapper

    def counting_average(average, name):
        def wrapper(t):
            projected[name, "r"] += any(np.may_share_memory(t, o) for o in drawn.get("r", ()))
            return average(t)

        return wrapper

    for build in ("_stack", "_project"):
        monkeypatch.setattr(suite, build, counting_draw(getattr(suite, build)))
    for module, prefix in ((suite, ""), (sampling, "sampling.")):
        for proj in (module.w_projections, module.a_projections):
            monkeypatch.setattr(module, proj.__name__, counting(proj, prefix + proj.__name__))
    for average in (sampling.psi, sampling.mu):
        monkeypatch.setattr(sampling, average.__name__,
                            counting_average(average, "sampling." + average.__name__))
    spaces = ("r", "co", "a", "s", "f", "p", "t", "a_plus_s", "f_pair")
    for n in (3, 4):
        drawn.clear()
        projected.clear()
        run_invariant_suite(SuiteConfig(dims=(n,), signatures=((n, 0),)))
        # ricci_image_dimensions asks block 0 for n(n+1)/2 + RANK_MARGIN 'r'
        # rows, 18 at n = 4: the block's CHUNK rows serve it, none is drawn again
        assert n * (n + 1) // 2 + sampling.RANK_MARGIN <= sampling.CHUNK
        assert [len(out) for out in drawn["r"]] == [sampling.CHUNK]
        once = {space: len(outs) for space, outs in drawn.items() if space != "r"}
        assert once == dict.fromkeys(spaces[1:], 1)
        assert +projected == {
            **{
                (proj, space): 1
                for proj in ("w_projections", "a_projections")
                for space in ("r", "a_plus_s", "f_pair")
            },
            ("sampling.psi", "r"): 1,
            ("sampling.mu", "r"): 1,
        }


def test_memo_miss_projects_only_the_missing_rows(monkeypatch):
    # at 5 samples the completeness checks take the components of 5 'r' rows and
    # the orthogonality checks of 10: only the 5 missing rows are projected again
    cfg = SuiteConfig(dims=(3,), signatures=((3, 0),), samples=5)
    r = np.stack([sample("r", 3, (3, 0), 0, index=i) for i in range(10)])
    seen = Counter()

    def counting(proj):
        def wrapper(t, g):
            is_r = np.ndim(t) == 5 and any(np.array_equal(t, r[i : i + len(t)]) for i in range(10))
            seen[proj.__name__] += len(t) if is_r and np.array_equal(g.matrix, np.eye(3)) else 0
            return proj(t, g)

        return wrapper

    for proj in (suite.w_projections, suite.a_projections):
        monkeypatch.setattr(suite, proj.__name__, counting(proj))
    run_invariant_suite(cfg)
    assert seen == {"w_projections": 10, "a_projections": 10}

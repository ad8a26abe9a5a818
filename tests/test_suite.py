import numpy as np
import pytest

import curvdec.sampling as sampling
import curvdec.suite as suite
from curvdec.errors import CurvdecError, EmptyRun, UnknownCheck
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
    # row i of every stack a check reads is sample(space, n, sig, seed, index=i)
    cfg = SuiteConfig(dims=(4,), signatures=((3, 1),), samples=3, seed=5)
    read, stack = [], suite._Ctx.stack

    def recording(ctx, space, count):
        out = stack(ctx, space, count)
        read.append((space, out.copy()))
        return out

    monkeypatch.setattr(suite._Ctx, "stack", recording)
    run_invariant_suite(cfg, only=["ricci_symmetry_equivalence", "ricci_conjugate_trace"])
    assert {space for space, _ in read} == {"r", "co", "a_plus_s", "f_pair"}
    for space, rows in read:
        assert len(rows) == 3
        for i, row in enumerate(rows):
            assert np.array_equal(row, sample(space, 4, (3, 1), 5, index=i)), (space, i)


def test_shared_stacks_are_read_only(monkeypatch):
    # a check that writes into a stack it was given raises, and the next check
    # still reads the samples themselves
    cfg = SuiteConfig(dims=(3,), signatures=((2, 1),), samples=4, seed=2)
    read = {}

    def writer(ctx):
        for space in ("r", "co"):
            with pytest.raises(ValueError, match="read-only"):
                ctx.stack(space, ctx.k)[0, 0, 1, 0, 1] += 1.0
        return 0.0

    def reader(ctx):
        read.update((space, ctx.stack(space, ctx.k)) for space in ("r", "co"))
        return 0.0

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

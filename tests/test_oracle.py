"""Tests for the explicit-dataset verification machinery.

These are the dual-route checks: every closed form in piv.core must agree
with a least-squares fit on an explicitly constructed completed dataset, and
the normal-equation solver must agree with independently assembled block
formulas.  The Monte Carlo estimator, which draws sufficient statistics,
is checked against a reference sampler that draws every row.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from piv import oracle, report
from piv.core import (
    CounterfactualBelief,
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    StatisticalThreshold,
    _gap_and_variance,
    ideal_correlation,
    piv_from_correlation,
    std_normal_cdf,
)
from piv.oracle import (
    DatasetStack,
    IdealDataset,
    SingularDesignError,
    SyntheticSpec,
    build_exact_dataset,
    monte_carlo_piv,
    random_spec,
)

from helpers import binomial_mc_tolerance

POS = EstimateSign.POSITIVE
NEG = EstimateSign.NEGATIVE
C196 = StatisticalThreshold(1.96)


def _spec_belief_stats(spec: SyntheticSpec) -> tuple[CounterfactualBelief, ObservedStats]:
    return CounterfactualBelief(spec.y_t_un, spec.y_c_un), spec.observed_stats(0.0)


class TestSyntheticSpec:
    def test_odd_cell_counts_rejected(self):
        with pytest.raises(InputValidationError):
            SyntheticSpec(n_ob=10, pi=0.3, y_t_ob=0, y_c_ob=0, y_t_un=0, y_c_un=0,
                          var_t=1, var_c=1)  # pi * n_ob = 3, odd
        with pytest.raises(InputValidationError):
            SyntheticSpec(n_ob=9, pi=0.5, y_t_ob=0, y_c_ob=0, y_t_un=0, y_c_un=0,
                          var_t=1, var_c=1)  # odd n_ob

    def test_non_integral_pi_rejected(self):
        with pytest.raises(InputValidationError):
            SyntheticSpec(n_ob=100, pi=0.0617, y_t_ob=0, y_c_ob=0, y_t_un=0, y_c_un=0,
                          var_t=1, var_c=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InputValidationError, match="seed must be a nonnegative integer"):
            SyntheticSpec(n_ob=8, pi=0.5, y_t_ob=0, y_c_ob=0, y_t_un=0, y_c_un=0,
                          var_t=1, var_c=1, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        spec = SyntheticSpec(n_ob=8, pi=0.5, y_t_ob=0, y_c_ob=0, y_t_un=0, y_c_un=0,
                             var_t=1, var_c=1, seed=np.int64(3))
        assert spec.seed == 3

    @pytest.mark.parametrize("p", [-1, 1.5, True])
    def test_bad_covariate_count_rejected(self, p):
        # True is an int to isinstance, but no covariate count
        with pytest.raises(InputValidationError, match="p must be an integer >= 0"):
            SyntheticSpec(n_ob=8, pi=0.5, y_t_ob=0, y_c_ob=0, y_t_un=0, y_c_un=0,
                          var_t=1, var_c=1, p=p)

    @pytest.mark.parametrize("name", ["var_t", "var_c"])
    def test_negative_variance_rejected(self, name):
        fields = dict(n_ob=8, pi=0.5, y_t_ob=0.0, y_c_ob=0.0, y_t_un=0.0, y_c_un=0.0,
                      var_t=1.0, var_c=1.0)
        fields[name] = -1.0
        with pytest.raises(InputValidationError, match=f"{name} must be >= 0"):
            SyntheticSpec(**fields)

    @pytest.mark.parametrize("name, value", [
        ("pi", math.nan), ("pi", math.inf), ("y_t_ob", math.nan), ("y_c_ob", -math.inf),
        ("y_t_un", math.inf), ("y_c_un", math.nan), ("var_t", math.nan), ("var_c", math.inf),
    ])
    def test_non_finite_rejected(self, name, value):
        fields = dict(n_ob=8, pi=0.5, y_t_ob=0.0, y_c_ob=0.0, y_t_un=0.0, y_c_un=0.0,
                      var_t=1.0, var_c=1.0)
        fields[name] = value
        with pytest.raises(InputValidationError, match=f"{name} must be finite"):
            SyntheticSpec(**fields)

    @pytest.mark.parametrize("name, value", [
        ("pi", "0.5"), ("y_t_ob", "a"), ("y_c_ob", None), ("y_t_un", [0.0]),
        ("y_c_un", True), ("var_t", "1"), ("var_c", 1j),
    ])
    def test_non_number_rejected(self, name, value):
        fields = dict(n_ob=8, pi=0.5, y_t_ob=0.0, y_c_ob=0.0, y_t_un=0.0, y_c_un=0.0,
                      var_t=1.0, var_c=1.0)
        fields[name] = value
        with pytest.raises(InputValidationError, match=f"{name} must be a finite real number"):
            SyntheticSpec(**fields)


class TestBuildExactDataset:
    def test_standard_cells(self):
        spec = SyntheticSpec(n_ob=8, pi=0.5, y_t_ob=0.0, y_c_ob=0.0, y_t_un=0.0,
                             y_c_un=0.0, var_t=1.0, var_c=1.0)
        ds = build_exact_dataset(spec)
        assert ds.outcome.shape == (16,)
        assert float(np.mean(ds.outcome)) == pytest.approx(0.0, abs=1e-15)
        assert float(np.var(ds.outcome)) == pytest.approx(1.0, rel=1e-14)

    def test_case_study_shaped_cell_moments(self):
        spec = SyntheticSpec(n_ob=200, pi=0.05, y_t_ob=36.77, y_c_ob=45.78,
                             y_t_un=45.78, y_c_un=45.2, var_t=143.26, var_c=138.83)
        ds = build_exact_dataset(spec)
        n_t, n = spec.n_treated, spec.n_ob
        cells = {
            "observed treated": (ds.outcome[:n_t], spec.y_t_ob, spec.var_t),
            "observed control": (ds.outcome[n_t:n], spec.y_c_ob, spec.var_c),
            "counterfactual control": (ds.outcome[n : n + n_t], spec.y_c_un, spec.var_c),
            "counterfactual treated": (ds.outcome[n + n_t :], spec.y_t_un, spec.var_t),
        }
        for name, (values, mean, var) in cells.items():
            assert float(np.mean(values)) == pytest.approx(mean, rel=1e-12), name
            assert float(np.var(values)) == pytest.approx(var, rel=1e-12), name

    def test_covariates_mirrored_across_arms(self):
        spec = random_spec(3, p=3)
        ds = build_exact_dataset(spec)
        n = spec.n_ob
        assert np.array_equal(ds.z[:n], ds.z[n:])
        for column in range(3):
            treated_mean = ds.z[ds.w == 1.0, column].mean()
            control_mean = ds.z[ds.w == 0.0, column].mean()
            assert treated_mean == pytest.approx(control_mean, abs=1e-12)

    def test_balanced_arms(self):
        for seed in range(5):
            spec = random_spec(seed)
            ds = build_exact_dataset(spec)
            assert ds.w.mean() == 0.5
            assert float(np.var(ds.w)) == 0.25
            assert int(ds.w.sum()) == spec.n_ob

    def test_provenance_split(self):
        spec = random_spec(1)
        ds = build_exact_dataset(spec)
        assert int(ds.observed.sum()) == spec.n_ob
        # counterfactual rows flip the treatment of the same subject
        n = spec.n_ob
        assert np.array_equal(ds.w[n:], 1.0 - ds.w[:n])


def _dataset_arrays(**changes) -> dict:
    """The arrays of build_exact_dataset(random_spec(41)), writeable copies,
    with changes applied."""
    base = build_exact_dataset(random_spec(41))
    arrays = {name: getattr(base, name).copy() for name in ("outcome", "w", "z", "observed")}
    arrays.update(changes)
    return arrays


class TestIdealDatasetChecks:
    def test_integer_observed_refused(self):
        # used as an index array, [1, ..., 1, 0, ..., 0] would pick rows 0 and 1
        arrays = _dataset_arrays()
        arrays["observed"] = arrays["observed"].astype(int)
        with pytest.raises(InputValidationError, match="boolean mask, got dtype int"):
            IdealDataset(**arrays)

    @pytest.mark.parametrize("name", ["outcome", "w", "z", "observed"])
    def test_list_refused(self, name):
        arrays = _dataset_arrays()
        arrays[name] = arrays[name].tolist()
        with pytest.raises(InputValidationError, match=f"{name} must be a numpy array, got list"):
            IdealDataset(**arrays)

    @pytest.mark.parametrize("name", ["outcome", "w", "z", "observed"])
    def test_row_count_mismatch_refused(self, name):
        arrays = _dataset_arrays()
        arrays[name] = arrays[name][:-1]
        with pytest.raises(InputValidationError, match="all of one row count"):
            IdealDataset(**arrays)

    @pytest.mark.parametrize("name, shape", [("z", (-1,)), ("outcome", (-1, 1)), ("w", (1, -1)),
                                             ("observed", (-1, 1))])
    def test_wrong_dimensions_refused(self, name, shape):
        arrays = _dataset_arrays()
        arrays[name] = arrays[name].reshape(shape)
        with pytest.raises(InputValidationError, match="2-D z"):
            IdealDataset(**arrays)

    def test_checks_read_only_dtype_and_shape(self):
        # a NaN is a dataset the checks must see, not one the constructor refuses
        arrays = _dataset_arrays()
        arrays["outcome"][3] = math.nan
        assert IdealDataset(**arrays).outcome.shape == arrays["w"].shape


class TestSeededInputPins:
    """The seeded specs and datasets every oracle check runs on, pinned bit for bit.

    Measured with numpy 2.4.6: a digest that differs elsewhere points at the
    generator's draws or at the cell placement, not at a tolerance.
    """

    SPECS_SHA256 = "a31f1e06e257763acd9c13d8e7273a19acaa8194a9bd35a7ed1eda826bdd57f9"
    DATASETS_SHA256 = "f96e400dcec5b2ae865fcf5327d1770606ed4974aa624f35c9919846cdbb23b9"

    def test_random_specs_pinned(self):
        digest = hashlib.sha256()
        for seed in range(1000):
            spec = random_spec(seed)
            for value in spec._values():
                digest.update(repr(value).encode())
        assert digest.hexdigest() == self.SPECS_SHA256

    def test_exact_datasets_pinned(self):
        digest = hashlib.sha256()
        for seed in range(100):
            ds = build_exact_dataset(random_spec(seed))
            for array in (ds.outcome, ds.w, ds.z, ds.observed):
                digest.update(array.tobytes())
        assert digest.hexdigest() == self.DATASETS_SHA256


class TestVerifyReportPins:
    """verify_report's lines pinned by sha256, as the checks computed them one
    dataset at a time (Python 3.11.7, numpy 2.4.6).  A digest that differs
    elsewhere points at LAPACK's last bits or at the seeded draws first."""

    LINES_SHA256 = {
        (100, 2000, 0): "369c89c6dec864f6f948da9e515244c7fc72987c3ec90e465547423edda1de3f",
        (100, 2000, 1): "0ffb8fc04f066f7d7c5b388c920a5e0925139848768bb868d049c4e4ebe7a78b",
        (100, 2000, 2): "2442e82c15496e498f6d801b2b572cd92096ee18931636ae8b41d23664a97dfe",
        (100, 2000, 3): "8603a2aa6fbe501aa40da1d0cdf48c4a9c2c5a20f017e442e389b539e61fd558",
        (100, 2000, 4): "a3595ce782aaa0239ad723753bc00f07e016f3198a567244fb4c0f607c0f2079",
        (100, 2000, 5): "8603a2aa6fbe501aa40da1d0cdf48c4a9c2c5a20f017e442e389b539e61fd558",
        (300, 2000, 7): "a049dab306163c4dfa3dd56ea39cc61605501fff85e19ed59458fb3c9c3ebeb5",
    }

    @pytest.mark.parametrize("args", sorted(LINES_SHA256))
    def test_report_lines_pinned(self, args):
        lines, ok = report.verify_report(*args)
        assert ok
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.LINES_SHA256[args]

    def test_unrefused_duplicated_covariate_fails(self, monkeypatch):
        # a stack that fits the duplicated covariate instead of refusing it
        fit = DatasetStack.fit.func

        def fit_without_refusal(stack):
            try:
                return fit(stack)
            except SingularDesignError:
                return None

        monkeypatch.setattr(DatasetStack, "fit", property(fit_without_refusal))
        lines, ok = report.verify_report(seeds=2, reps=1000)
        assert not ok
        assert "  [FAIL] duplicated covariate was not rejected" in lines
        assert sum("[FAIL]" in line for line in lines) == 1
        assert lines[-1] == "SOME CHECKS FAILED"


def _broken(seed: int, kind: str) -> IdealDataset:
    """A p = 2 dataset with a duplicated covariate, a NaN covariate or a NaN outcome."""
    base = build_exact_dataset(random_spec(seed, p=2))
    z, outcome = base.z.copy(), base.outcome.copy()
    if kind == "duplicate":
        z[:, 1] = z[:, 0]
    elif kind == "nan-covariate":
        z[5, 1] = math.nan
    else:
        outcome[3] = math.nan
    return IdealDataset(outcome=outcome, w=base.w, z=z, observed=base.observed)


_STACK_CHECKS = {
    "fit": lambda stack: stack.fit,
    "direct_inverse": lambda stack: stack.direct_inverse,
    "half_sample_fit": lambda stack: stack.half_sample_fit,
    "moments": DatasetStack.w_coefficient_via_moments,
    "standardized": DatasetStack.standardized_w_coefficient,
    "block": DatasetStack.block_inverse_errors,
    "bayes": DatasetStack.bayes_combination_errors,
}


class TestDatasetStacks:
    def test_stacked_values_match_per_dataset_solves(self):
        seen_p = set()
        for specs, stack in report._seeded_stacks(50):
            seen_p.add(stack.p)
            for row, spec in enumerate(specs):
                ds = build_exact_dataset(spec)
                x = np.column_stack([np.ones(2 * spec.n_ob), ds.z, ds.w])
                y, obs = ds.outcome, ds.observed
                gram = x.T @ x
                expected = {
                    "fit": np.linalg.solve(gram, x.T @ y),
                    "direct_inverse": np.linalg.solve(gram, np.eye(gram.shape[0])),
                    "half_sample_fit": np.linalg.solve(
                        x[obs].T @ x[obs] + x[~obs].T @ x[~obs], x[obs].T @ y[obs] + x[~obs].T @ y[~obs]),
                }
                n = y.shape[0]
                w_c, z_c, y_c = ds.w - ds.w.mean(), ds.z - ds.z.mean(axis=0), y - y.mean()
                s_zz, s_zw, s_zy = z_c.T @ z_c / n, z_c.T @ w_c / n, z_c.T @ y_c / n
                expected["moments"] = np.array(
                    (w_c @ y_c / n - s_zw @ np.linalg.solve(s_zz, s_zy))
                    / (w_c @ w_c / n - s_zw @ np.linalg.solve(s_zz, s_zw)))
                for name, value in expected.items():
                    got = _STACK_CHECKS[name](stack)[row]
                    assert np.max(np.abs(got - value)) <= 1e-12 * np.max(np.abs(value)), (spec, name)
        assert seen_p == set(range(7))

    @pytest.mark.parametrize("seeds", [1, 7, report._CHUNK_SEEDS])
    def test_stack_size_does_not_change_values(self, seeds):
        # a stack of one, the stacks of a partial chunk and those of a full one
        seen = []
        for specs, stack in report._seeded_stacks(seeds):
            assert {spec.p for spec in specs} == {stack.p} and len(stack) == len(specs)
            seen += specs
            for row, spec in enumerate(specs):
                alone = DatasetStack([build_exact_dataset(spec)])
                for name, check in _STACK_CHECKS.items():
                    assert check(stack)[row].tobytes() == check(alone)[0].tobytes(), (spec, name)
        assert sorted(spec.seed for spec in seen) == sorted(random_spec(i).seed for i in range(seeds))

    @pytest.mark.parametrize("kind, message", [
        ("duplicate", r"^condition number \S+ above 1e\+10$"),
        ("nan-covariate", r"^matrix has a non-finite entry$"),
        ("nan-outcome", r"^normal-equation residual nan exceeds 1e-9 relative$"),
    ])
    @pytest.mark.parametrize("where", [0, 3, 5])
    def test_broken_dataset_inside_a_stack(self, kind, message, where):
        broken = _broken(19, kind)
        datasets = [build_exact_dataset(random_spec(seed, p=2)) for seed in range(6)]
        datasets[where] = broken
        with pytest.raises(SingularDesignError, match=message) as alone:
            DatasetStack([broken]).fit
        with pytest.raises(SingularDesignError) as stacked:
            DatasetStack(datasets).fit
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("first, second", [("duplicate", "nan-covariate"),
                                               ("nan-covariate", "duplicate")])
    @pytest.mark.parametrize("solve", [
        lambda stack: stack.fit, DatasetStack.w_coefficient_via_moments,
        lambda stack: stack.half_sample_fit,
    ], ids=["gram", "s_zz", "half-sample"])
    def test_lowest_failing_index_is_named(self, first, second, solve):
        messages = []
        for kind in (first, second):
            with pytest.raises(SingularDesignError) as alone:
                solve(DatasetStack([_broken(4, kind)]))
            messages.append(str(alone.value))
        assert messages[0] != messages[1]
        datasets = [build_exact_dataset(random_spec(seed, p=2)) for seed in range(6)]
        datasets[1], datasets[4] = _broken(4, first), _broken(4, second)
        with pytest.raises(SingularDesignError) as stacked:
            solve(DatasetStack(datasets))
        assert str(stacked.value) == messages[0]

    def test_stack_refuses_mixed_covariate_counts_and_no_datasets(self):
        with pytest.raises(InputValidationError, match="one covariate count"):
            DatasetStack([build_exact_dataset(random_spec(1, p=1)),
                          build_exact_dataset(random_spec(2, p=2))])
        with pytest.raises(InputValidationError, match="at least one dataset"):
            DatasetStack([])

    def test_verify_makes_at_most_three_solves_per_stack(self, monkeypatch):
        calls = []
        solve = oracle._solve

        def counting_solve(matrix, rhs):
            calls.append(matrix.shape)
            return solve(matrix, rhs)

        monkeypatch.setattr(oracle, "_solve", counting_solve)
        counts = []
        for seeds in (10, 50, 100):
            calls.clear()
            lines, ok = report.verify_report(seeds, 1000)
            assert ok, lines
            stacks = {(i // report._CHUNK_SEEDS, random_spec(i).p) for i in range(seeds)}
            # X'X, S_zz and the half-sample Gram matrix per stack, plus the
            # duplicated-covariate check
            assert len(calls) <= 3 * len(stacks) + 1
            counts.append(len(calls))
        assert len(set(counts)) == 1, counts

    def test_memory_stays_bounded_in_seeds(self):
        report.verify_report(1, 1000)  # imports and first-use set-up are not counted
        peaks = []
        for seeds in (report._CHUNK_SEEDS, 4 * report._CHUNK_SEEDS):
            tracemalloc.start()
            try:
                lines, ok = report.verify_report(seeds, 1000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert ok, lines
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestOlsFit:
    def test_two_group_coefficient_is_mean_difference(self):
        spec = random_spec(11, p=0)
        ds = build_exact_dataset(spec)
        treated_mean = ds.outcome[ds.w == 1.0].mean()
        control_mean = ds.outcome[ds.w == 0.0].mean()
        assert float(DatasetStack([ds]).fit[0, -1]) == pytest.approx(
            treated_mean - control_mean, rel=1e-12
        )

    def test_moment_route_matches_direct_solve(self):
        spec = random_spec(13, p=4, n_ob=64)
        ds = build_exact_dataset(spec)
        stack = DatasetStack([ds])
        direct = float(stack.fit[0, -1])
        assert float(stack.w_coefficient_via_moments()[0]) == pytest.approx(direct, rel=1e-10)

    def test_standardized_coefficient_equals_closed_form(self):
        spec = random_spec(17, p=3)
        ds = build_exact_dataset(spec)
        belief, stats = _spec_belief_stats(spec)
        assert float(DatasetStack([ds]).standardized_w_coefficient()[0]) == pytest.approx(
            ideal_correlation(belief, stats), rel=1e-10
        )

    def test_duplicate_covariate_is_singular(self):
        base = build_exact_dataset(random_spec(19, p=2))
        z = base.z.copy()
        z[:, 1] = z[:, 0]
        broken = IdealDataset(outcome=base.outcome, w=base.w, z=z, observed=base.observed)
        with pytest.raises(SingularDesignError):
            DatasetStack([broken]).fit


class TestSharedFit:
    def test_fit_matches_explicit_normal_equations_once(self):
        spec = random_spec(23, p=3)
        ds = build_exact_dataset(spec)
        x = np.column_stack([np.ones(2 * spec.n_ob), ds.z, ds.w])
        expected = np.linalg.solve(x.T @ x, x.T @ ds.outcome)
        stack = DatasetStack([ds])
        fit = stack.fit
        assert np.max(np.abs(fit[0] - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert stack.fit is fit

    @pytest.mark.parametrize("get", [
        lambda ds: ds.z, lambda ds: ds.outcome, lambda ds: ds.w, lambda ds: ds.observed,
        lambda ds: DatasetStack([ds]).fit,
    ], ids=["z", "outcome", "w", "observed", "fit"])
    def test_arrays_are_read_only(self, get):
        ds = build_exact_dataset(random_spec(25, p=2))
        with pytest.raises(ValueError, match="read-only"):
            get(ds)[...] = 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_solve_refuses_non_finite_matrix(self, value):
        matrix = np.eye(3)
        matrix[1, 2] = value
        with pytest.raises(SingularDesignError, match="non-finite"):
            oracle._solve(matrix, np.ones(3))

    def test_fit_refuses_non_finite_covariate(self):
        base = build_exact_dataset(random_spec(43, p=2))
        z = base.z.copy()
        z[5, 1] = math.nan
        broken = IdealDataset(outcome=base.outcome, w=base.w, z=z, observed=base.observed)
        with pytest.raises(SingularDesignError, match="non-finite"):
            DatasetStack([broken]).fit

    def test_fit_refuses_nan_moment_vector(self):
        # X'X is finite, X'y is not: the solve passes, and the residual check
        # must not let NaN coefficients through
        base = build_exact_dataset(random_spec(47, p=2))
        outcome = base.outcome.copy()
        outcome[3] = math.nan
        broken = IdealDataset(outcome=outcome, w=base.w, z=base.z, observed=base.observed)
        with pytest.raises(SingularDesignError, match="residual nan"):
            DatasetStack([broken]).fit

    def test_solve_refuses_zero_matrix(self):
        with pytest.raises(SingularDesignError, match="condition number inf"):
            oracle._solve(np.zeros((2, 2)), np.ones(2))


class TestBlockInverse:
    def test_p_zero_reduces_to_classical_two_by_two(self):
        spec = random_spec(29, p=0)
        ds = build_exact_dataset(spec)
        assert DatasetStack([ds]).block_inverse_errors()[0] <= 1e-9
        # cross-check the direct inverse against the hand 2x2 formula
        x = np.column_stack([np.ones(2 * spec.n_ob), ds.z, ds.w])
        gram = x.T @ x
        n = gram[0, 0]
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        expected = np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
        assert np.max(np.abs(np.linalg.inv(gram) - expected)) < 1e-12
        assert n == 2 * spec.n_ob

    def test_seeded_specs_within_tolerance(self):
        for seed in range(10):
            ds = build_exact_dataset(random_spec(seed, p=3, n_ob=32))
            assert DatasetStack([ds]).block_inverse_errors()[0] <= 1e-9

    def test_singular_design_rejected(self):
        base = build_exact_dataset(random_spec(31, p=2))
        z = base.z.copy()
        z[:, 1] = z[:, 0]
        broken = IdealDataset(outcome=base.outcome, w=base.w, z=z, observed=base.observed)
        with pytest.raises(SingularDesignError):
            DatasetStack([broken]).block_inverse_errors()

    @pytest.mark.parametrize("k", [1.0, 3.0, -2.0])
    def test_covariate_collinear_with_treatment_rejected(self, k):
        # with z's second column k*w, S_zz is still well conditioned, so the first
        # refusal is the Schur complement S_ww - S_wz S_zz^-1 S_zw; for an integer k
        # it rounds to exactly 0.0, where a fractional k leaves a last-bit residue
        # whose sign may depend on the platform's BLAS
        base = build_exact_dataset(random_spec(3, p=2))
        z = base.z.copy()
        z[:, 1] = k * base.w
        broken = IdealDataset(outcome=base.outcome, w=base.w, z=z, observed=base.observed)
        with pytest.raises(SingularDesignError, match="nonpositive Schur complement"):
            DatasetStack([broken]).block_inverse_errors()

    def test_wrong_direct_inverse_is_seen(self):
        # the assembly shares the S_zz solve with the moment route, but is
        # still compared with the direct inverse of X'X, not with itself
        ds = build_exact_dataset(random_spec(33, p=3))
        stack = DatasetStack([ds])
        solution = stack._gram_solution.copy()
        solution[0, 2, 3] *= 1.001
        stack.__dict__["_gram_solution"] = solution
        assert stack.block_inverse_errors()[0] > 1e-6

    @pytest.mark.parametrize("p", [0, 3])
    def test_wrong_closed_form_last_row_is_seen(self, p, monkeypatch):
        # the last row's closed forms are compared with the direct inverse, not with
        # themselves; every input they read also feeds the assembled blocks, so only
        # a wrong closed form, not a wrong input, shows that comparison alone
        stack = DatasetStack([build_exact_dataset(random_spec(33, p=p))])
        assert stack.block_inverse_errors()[0] <= 1e-9
        closed_form = DatasetStack._closed_form_last_row
        monkeypatch.setattr(DatasetStack, "_closed_form_last_row",
                            lambda self, *args: closed_form(self, *args) * 1.001)
        assert stack.block_inverse_errors()[0] > 1e-6


class TestVarianceFactorization:
    def test_unit_variance_entry_matches_schur_form(self):
        # per unit residual variance, the w entry of the inverse Gram matrix is
        # 1 / (N * (s_ww - s_wz s_zz^-1 s_zw)); scaling by any sigma^2 is linear
        for seed in (2, 7, 12):
            spec = random_spec(seed, p=3)
            ds = build_exact_dataset(spec)
            x = np.column_stack([np.ones(2 * spec.n_ob), ds.z, ds.w])
            variance_w = float(np.linalg.inv(x.T @ x)[-1, -1])
            y, w, z = ds.outcome, ds.w, ds.z
            n = y.shape[0]
            w_c = w - w.mean()
            z_c = z - z.mean(axis=0)
            s_ww = float(w_c @ w_c) / n
            s_zw = (z_c.T @ w_c) / n
            s_zz = (z_c.T @ z_c) / n
            schur = s_ww - float(s_zw @ np.linalg.solve(s_zz, s_zw))
            expected = 1.0 / (n * schur)
            assert variance_w == pytest.approx(expected, rel=1e-10)
            for sigma_sq in (0.5, 2.7):
                assert sigma_sq * variance_w == pytest.approx(
                    sigma_sq * expected, rel=1e-10
                )


class TestBayesCombination:
    def test_seeded_specs_within_tolerance(self):
        for seed in range(10):
            ds = build_exact_dataset(random_spec(seed))
            assert DatasetStack([ds]).bayes_combination_errors()[0] <= 1e-10

    def test_p_zero_combined_coefficient_is_mean_difference(self):
        spec = random_spec(37, p=0)
        ds = build_exact_dataset(spec)
        x = np.column_stack([np.ones(2 * spec.n_ob), ds.z, ds.w])
        y = ds.outcome
        xo, yo = x[ds.observed], y[ds.observed]
        xu, yu = x[~ds.observed], y[~ds.observed]
        combined = np.linalg.solve(xo.T @ xo + xu.T @ xu, xo.T @ yo + xu.T @ yu)
        treated_mean = y[ds.w == 1.0].mean()
        control_mean = y[ds.w == 0.0].mean()
        assert float(combined[-1]) == pytest.approx(treated_mean - control_mean, rel=1e-12)

    def test_requires_both_halves(self):
        base = build_exact_dataset(random_spec(41))
        lopsided = IdealDataset(
            outcome=base.outcome, w=base.w, z=base.z,
            observed=np.ones_like(base.observed),
        )
        with pytest.raises(InputValidationError):
            DatasetStack([lopsided]).bayes_combination_errors()


class TestMixtureVarianceConsistency:
    def test_dataset_variance_matches_closed_form(self):
        for seed in range(10):
            spec = random_spec(seed)
            ds = build_exact_dataset(spec)
            belief, stats = _spec_belief_stats(spec)
            assert float(np.var(ds.outcome)) == pytest.approx(
                _gap_and_variance(belief.y_t_un, belief.y_c_un, stats)[1], rel=1e-10
            )


def _brute_force_rate(spec: SyntheticSpec, sign: EstimateSign, threshold, reps: int,
                      seed: int) -> float:
    """Reference rejection rate that draws every row of every completed sample."""
    rng = np.random.default_rng(seed)
    n_t, n_c, n = spec.n_treated, spec.n_control, spec.n_ob
    sd_t, sd_c = math.sqrt(spec.var_t), math.sqrt(spec.var_c)
    treated = np.hstack([spec.y_t_ob + sd_t * rng.standard_normal((reps, n_t)),
                         spec.y_t_un + sd_t * rng.standard_normal((reps, n_c))])
    control = np.hstack([spec.y_c_ob + sd_c * rng.standard_normal((reps, n_c)),
                         spec.y_c_un + sd_c * rng.standard_normal((reps, n_t))])
    gap = treated.mean(axis=1) - control.mean(axis=1)
    r = 0.5 * gap / np.sqrt(0.5 * treated.var(axis=1) + 0.5 * control.var(axis=1) + 0.25 * gap**2)
    if isinstance(threshold, FixedThreshold):
        statistic, cut = r, threshold.beta_sharp
    else:
        statistic = math.sqrt(2.0 * n) * r / np.sqrt(1.0 - r * r)
        cut = threshold.critical_magnitude if sign is POS else -threshold.critical_magnitude
    rejected = statistic > cut if sign is POS else statistic < cut
    return float(np.mean(rejected))


class TestMonteCarlo:
    def _null_spec(self, seed: int = 0) -> SyntheticSpec:
        # belief swapping the observed means gives a completed mean gap of zero
        return SyntheticSpec(n_ob=1000, pi=0.1, y_t_ob=10.0, y_c_ob=12.0,
                             y_t_un=12.0, y_c_un=10.0, var_t=20.0, var_c=25.0, seed=seed)

    def test_rejects_too_few_reps(self):
        spec = self._null_spec()
        with pytest.raises(InputValidationError):
            monte_carlo_piv(spec, spec.observed_stats(0.0), NEG, C196, reps=999)

    def test_rejects_mismatched_stats(self):
        spec = self._null_spec()
        other = ObservedStats(0.0, 1000, 10.0, 12.5, 20.0, 25.0, 0.1)
        with pytest.raises(InputValidationError):
            monte_carlo_piv(spec, other, NEG, C196, reps=1000)

    def test_size_at_null_consistent_belief(self):
        spec = self._null_spec()
        rate = monte_carlo_piv(spec, spec.observed_stats(0.0), NEG, C196, reps=2000, seed=7)
        size = std_normal_cdf(-1.96)
        assert abs(rate - size) <= binomial_mc_tolerance(size, 2000)

    def test_seed_stability(self):
        spec = SyntheticSpec(n_ob=500, pi=0.2, y_t_ob=10.0, y_c_ob=12.0,
                             y_t_un=11.0, y_c_un=10.5, var_t=20.0, var_c=25.0)
        stats = spec.observed_stats(0.0)
        rates = [
            monte_carlo_piv(spec, stats, NEG, C196, reps=2000, seed=s) for s in (1, 2)
        ]
        p = sum(rates) / 2
        binomial_sd = math.sqrt(max(p * (1 - p), 1e-6) / 2000)
        assert abs(rates[0] - rates[1]) <= 4 * binomial_sd

    def test_rate_tracks_closed_form(self):
        spec = SyntheticSpec(n_ob=500, pi=0.2, y_t_ob=10.0, y_c_ob=12.0,
                             y_t_un=11.0, y_c_un=10.5, var_t=20.0, var_c=25.0)
        belief = CounterfactualBelief(spec.y_t_un, spec.y_c_un)
        r = ideal_correlation(belief, spec.observed_stats(0.0))
        closed = piv_from_correlation(r, spec.observed_stats(r * r), NEG, C196).piv
        rate = monte_carlo_piv(spec, spec.observed_stats(0.0), NEG, C196, reps=4000, seed=3)
        assert abs(rate - closed) <= binomial_mc_tolerance(closed, 4000)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_bad_seed(self, seed):
        spec = self._null_spec()
        with pytest.raises(InputValidationError, match="seed"):
            monte_carlo_piv(spec, spec.observed_stats(0.0), NEG, C196, reps=1000, seed=seed)

    @pytest.mark.parametrize("sign", [POS, NEG])
    @pytest.mark.parametrize("kind", ["statistical", "fixed"])
    def test_small_cells_match_brute_force(self, sign, kind):
        # n_ob = 8 with pi = 0.25 leaves cells of 2 and 6 rows, where a wrong
        # chi-square degree of freedom for the within-cell spread shows at once
        flip = 1.0 if sign is POS else -1.0
        spec = SyntheticSpec(n_ob=8, pi=0.25, y_t_ob=flip, y_c_ob=0.0, y_t_un=0.8 * flip,
                             y_c_un=0.2 * flip, var_t=1.5, var_c=0.6)
        threshold = C196 if kind == "statistical" else FixedThreshold(0.3 * flip)
        reps = 200_000
        rate = monte_carlo_piv(spec, spec.observed_stats(0.0), sign, threshold, reps=reps, seed=1)
        reference = _brute_force_rate(spec, sign, threshold, reps, seed=2)
        p = 0.5 * (rate + reference)
        assert 0.05 < p < 0.95
        assert abs(rate - reference) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / reps)

    def test_zero_variance_cells(self):
        # equal means everywhere: r = 0/0 is NaN and never rejects
        flat = SyntheticSpec(n_ob=8, pi=0.5, y_t_ob=3.0, y_c_ob=3.0, y_t_un=3.0, y_c_un=3.0,
                             var_t=0.0, var_c=0.0)
        assert monte_carlo_piv(flat, flat.observed_stats(0.0), POS, C196, reps=1000) == 0.0
        assert monte_carlo_piv(flat, flat.observed_stats(0.0), NEG, C196, reps=1000) == 0.0
        # separated means: |r| = 1 and z is infinite on the side of r
        split = SyntheticSpec(n_ob=8, pi=0.5, y_t_ob=4.0, y_c_ob=3.0, y_t_un=4.0, y_c_un=3.0,
                              var_t=0.0, var_c=0.0)
        assert monte_carlo_piv(split, split.observed_stats(0.0), POS, C196, reps=1000) == 1.0
        assert monte_carlo_piv(split, split.observed_stats(0.0), NEG, C196, reps=1000) == 0.0


# n_ob -> how far below the Monte Carlo rate the closed form may read in
# TestNormalApproximationGap: the gap measured there with 10**6 reps (0.0374,
# 0.0186, 0.0115, 0.0028), plus three binomial sd at the test's 10**5 reps
_SMALL_SAMPLE_GAP_CEILING = {32: 0.042, 64: 0.024, 100: 0.017, 400: 0.008}


class TestNormalApproximationGap:
    """The closed form against the Monte Carlo oracle, by sample size.

    pi = 0.5, var_t = var_c = 4, a statistical 1.96 cut and a positive sign.
    The effect is carried by the treated counterfactual cell: y_t_un = s and
    every other mean is 0, with s set so that the closed form at
    R**2 = r**2 reads 0.2, 0.5, 0.8 or 0.95.  The closed form Phi(T - C) is
    a normal approximation, so it drifts from the rejection rate of the
    test it models as n_ob falls.
    """

    REPS = 100_000
    TARGETS = (0.2, 0.5, 0.8, 0.95)

    def _gaps(self, n_ob: int) -> list[tuple[float, float]]:
        """(closed form, closed form - Monte Carlo rate) at each target."""
        from statistics import NormalDist

        pi, var = 0.5, 4.0
        d = 0.5 * pi * (1.0 - pi)
        a = 1.0 - pi  # the gap L = a * s
        gaps = []
        for target in self.TARGETS:
            z = 1.96 + NormalDist().inv_cdf(target)
            r = z / math.sqrt(2.0 * n_ob + z * z)  # T - C = z at R**2 = r**2
            # r = L / (2 sqrt(V + D s**2 + L**2 / 4)), solved for s
            s = 2.0 * r * math.sqrt(var / (a * a * (1.0 - r * r) - 4.0 * r * r * d))
            spec = SyntheticSpec(n_ob=n_ob, pi=pi, y_t_ob=0.0, y_c_ob=0.0, y_t_un=s, y_c_un=0.0,
                                 var_t=var, var_c=var)
            belief, stats = _spec_belief_stats(spec)
            r = ideal_correlation(belief, stats)
            closed = piv_from_correlation(r, spec.observed_stats(r * r), POS, C196).piv
            assert closed == pytest.approx(target, abs=1e-9)
            rate = monte_carlo_piv(spec, stats, POS, C196, reps=self.REPS, seed=n_ob)
            gaps.append((closed, closed - rate))
        return gaps

    @pytest.mark.parametrize("n_ob", sorted(_SMALL_SAMPLE_GAP_CEILING))
    def test_closed_form_reads_low_below_n_ob_2000(self, n_ob):
        # At n_ob 400 each gap (-0.0015 to -0.0028 at 10**6 reps) is inside its
        # own three-sd band at 10**5 reps, so the sign is pinned on the mean of
        # the four, whose sd is about 0.0006: no point reads above its band
        # and the mean gap is below zero.
        gaps = self._gaps(n_ob)
        for closed, gap in gaps:
            band = 3.0 * math.sqrt(closed * (1.0 - closed) / self.REPS)
            assert -_SMALL_SAMPLE_GAP_CEILING[n_ob] <= gap <= band, (closed, gap)
        assert sum(gap for _, gap in gaps) < 0.0

    @pytest.mark.parametrize("n_ob", [2000, 8000])
    def test_closed_form_within_three_sd_from_n_ob_2000(self, n_ob):
        for closed, gap in self._gaps(n_ob):
            assert abs(gap) <= 3.0 * math.sqrt(closed * (1.0 - closed) / self.REPS), (closed, gap)

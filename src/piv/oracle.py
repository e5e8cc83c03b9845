"""Brute-force verification of the closed-form engine on explicit datasets.

The closed forms in piv.core are derived by block-matrix algebra over the
completed sample.  This module rebuilds everything the hard way: it
constructs explicit completed datasets whose four (arm x provenance) cells
match target means and variances exactly, fits least squares through the
normal equations with np.linalg under a 1e10 condition bound, and checks
the closed forms against those fits.  It also estimates the PIV by Monte
Carlo as a rejection rate over simulated completed samples.

Every check runs on a stack of datasets that share a covariate count p
(DatasetStack); one dataset is checked as a stack of one.  Each dataset is
reduced once to its small matrices, and its rows are not kept.  Each
matrix kind is then solved once for the whole stack, through _solve, which
refuses a non-finite matrix and one whose singular values span more than
the bound: X'X against [X'y | I] gives the fits and the direct inverses,
S_zz against [s_zw, s_zy | I] gives the moment route and the block
assembly, and the summed half-sample Gram matrix gives the half-sample
fits.  No check compares a quantity with itself: the block assembly, built
from S_zz, is set against the direct inverse of X'X.

SyntheticSpec and IdealDataset are core._Record values, copied through their
constructors; a dataset's arrays are read-only in every copy.

Conventions that the checks depend on:

  * all sample variances and covariances use the 1/n divisor;
  * each subject contributes one row per treatment arm with identical
    covariates, so treatment is exactly balanced (mean 1/2, variance 1/4)
    and uncorrelated with every covariate by construction;
  * the design matrix is [1, Z_1..Z_p, W] with the treatment column last.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from .core import (
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    PivError,
    Threshold,
    _read_only,
    _Record,
    _require_finite,
    _require_int,
)

__all__ = [
    "SingularDesignError",
    "SyntheticSpec",
    "IdealDataset",
    "DatasetStack",
    "build_exact_dataset",
    "monte_carlo_piv",
    "random_spec",
]

_MAX_CONDITION = 1e10


class SingularDesignError(PivError):
    """The design matrix is numerically rank deficient."""


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve that refuses a non-finite or numerically rank-deficient matrix.

    matrix is one (m, m) matrix or a stack of k of them, (k, m, m), each
    solved against its own rhs; rhs may have several columns.  The 2-norm
    condition number is s_max / s_min over the singular values;
    s_max <= 1e10 * s_min tests the bound without dividing, and a zero s_min
    fails it.  In a stack the lowest-indexed matrix that fails is named, with
    the message it would raise alone.  A 0x0 matrix (no covariates) passes
    through.
    """
    if matrix.size:
        stack = matrix.reshape((-1,) + matrix.shape[-2:])
        finite = np.isfinite(stack).all(axis=(1, 2))
        # a non-finite matrix is zeroed for the SVD, and refused below
        s = np.linalg.svd(np.where(finite[:, None, None], stack, 0.0), compute_uv=False)
        passed = finite & (s[:, -1] > 0.0) & (s[:, 0] <= _MAX_CONDITION * s[:, -1])
        if not passed.all():
            first = int(np.argmin(passed))
            if not finite[first]:
                raise SingularDesignError("matrix has a non-finite entry")
            s_max, s_min = s[first, 0], s[first, -1]
            condition = s_max / s_min if s_min > 0.0 else math.inf
            raise SingularDesignError(f"condition number {condition:.3e} above {_MAX_CONDITION:.0e}")
    return np.linalg.solve(matrix, rhs)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, q) stacks.

    Each is the (1, q) @ (q, 1) product that a one-dimensional a @ b makes,
    so a stack of k gives the bits of k separate products.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _require_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputValidationError(f"seed must be a nonnegative integer, got {seed!r}")


def _require_reps(reps) -> None:
    _require_int(reps, "reps", 1000)


# =============================================================================
# Exact-moment completed datasets
# =============================================================================


class SyntheticSpec(_Record):
    """Targets for an exact-moment completed dataset.

    pi * n_ob and (1 - pi) * n_ob must be positive even integers so that
    every (arm x provenance) cell can be matched exactly by a symmetric
    two-point placement.
    """

    __slots__ = ("n_ob", "pi", "y_t_ob", "y_c_ob", "y_t_un", "y_c_un", "var_t", "var_c", "p",
                 "seed")

    def __init__(self, n_ob: int, pi: float, y_t_ob: float, y_c_ob: float, y_t_un: float,
                 y_c_un: float, var_t: float, var_c: float, p: int = 0, seed: int = 0) -> None:
        if not isinstance(n_ob, int) or n_ob <= 0 or n_ob % 2:
            raise InputValidationError(f"n_ob must be a positive even integer, got {n_ob!r}")
        object.__setattr__(self, "n_ob", n_ob)
        for name, value in (("pi", pi), ("y_t_ob", y_t_ob), ("y_c_ob", y_c_ob), ("y_t_un", y_t_un),
                            ("y_c_un", y_c_un), ("var_t", var_t), ("var_c", var_c)):
            object.__setattr__(self, name, _require_finite(value, name))
        n_t = self.pi * n_ob
        if abs(n_t - round(n_t)) > 1e-9:
            raise InputValidationError(f"pi * n_ob must be integral, got {n_t}")
        for name, count in (("pi * n_ob", self.n_treated), ("(1 - pi) * n_ob", self.n_control)):
            if count <= 0 or count % 2:
                raise InputValidationError(f"{name} must be a positive even integer, got {count}")
        for name in ("var_t", "var_c"):
            if getattr(self, name) < 0.0:
                raise InputValidationError(f"{name} must be >= 0")
        object.__setattr__(self, "p", _require_int(p, "p", 0))
        _require_seed(seed)
        object.__setattr__(self, "seed", seed)

    @property
    def n_treated(self) -> int:
        return round(self.pi * self.n_ob)

    @property
    def n_control(self) -> int:
        return self.n_ob - self.n_treated

    def observed_stats(self, r_squared: float) -> ObservedStats:
        """The ObservedStats view of this spec, for closed-form comparisons."""
        return ObservedStats(
            r_squared=r_squared,
            n_ob=self.n_ob,
            y_t_ob=self.y_t_ob,
            y_c_ob=self.y_c_ob,
            var_t=self.var_t,
            var_c=self.var_c,
            pi=self.pi,
        )


class IdealDataset(_Record):
    """An explicit completed sample: 2*n_ob rows of (outcome, treatment, covariates).

    Rows 0..n_ob-1 are the observed sample in subject order; rows
    n_ob..2*n_ob-1 are the same subjects' counterfactual rows (treatment
    flipped, covariates identical).

    The constructor checks that the four are numpy arrays of one row count,
    z 2-D, the others 1-D and observed boolean (an integer mask would index
    rows), reading only dtype and shape.  It makes them read-only in place,
    so neither a dataset nor any copy of it can be changed; a variant is a
    new dataset built from copies.  A dataset equals and hashes only as
    itself.
    """

    __slots__ = ("outcome", "w", "z", "observed")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, outcome: np.ndarray, w: np.ndarray, z: np.ndarray,
                 observed: np.ndarray) -> None:
        arrays = {"outcome": outcome, "w": w, "z": z, "observed": observed}
        for name, array in arrays.items():
            if not isinstance(array, np.ndarray):
                raise InputValidationError(
                    f"IdealDataset {name} must be a numpy array, got {type(array).__name__}")
        if observed.dtype.kind != "b":
            raise InputValidationError(
                f"IdealDataset observed must be a boolean mask, got dtype {observed.dtype}")
        rows = outcome.shape
        if (len(rows) != 1 or z.ndim != 2 or z.shape[:1] != rows
                or w.shape != rows or observed.shape != rows):
            shapes = {name: array.shape for name, array in arrays.items()}
            raise InputValidationError(
                "IdealDataset needs 1-D outcome, w and observed and a 2-D z, all of one row "
                f"count, got shapes {shapes}")
        for name, array in arrays.items():
            object.__setattr__(self, name, _read_only(array))

    def _reduce(self) -> dict:
        """The small matrices every check reads, formed from the rows once.

        X'X and X'y; the half-sample sums Xo'Xo + Xu'Xu and Xo'yo + Xu'yu
        over the observed and counterfactual rows; and the sample means and
        1/n covariance blocks of (Z, W, Y).
        """
        y, observed, w, z = self.outcome, self.observed, self.w, self.z
        x = np.column_stack([np.ones(y.shape[0]), z, w])
        xo, yo = x[observed], y[observed]
        xu, yu = x[~observed], y[~observed]
        y_mean, w_mean, z_mean = y.mean(), w.mean(), z.mean(axis=0)
        y_c = y - y_mean
        w_c = w - w_mean
        z_c = z - z_mean
        n = y.shape[0]
        return {
            "gram": x.T @ x,
            "moment": x.T @ y,
            "half_gram": xo.T @ xo + xu.T @ xu,
            "half_moment": xo.T @ yo + xu.T @ yu,
            "both_halves": bool(observed.any() and not observed.all()),
            "n": n,
            "w_mean": w_mean,
            "z_mean": z_mean,
            "s_zz": (z_c.T @ z_c) / n,
            "s_zw": (z_c.T @ w_c) / n,
            "s_zy": (z_c.T @ y_c) / n,
            "s_ww": float(w_c @ w_c) / n,
            "s_yy": float(y_c @ y_c) / n,
            "s_wy": float(w_c @ y_c) / n,
        }


def build_exact_dataset(spec: SyntheticSpec) -> IdealDataset:
    """Construct a completed dataset matching all four cell moments exactly.

    Cells and their targets (sd = sqrt of the group variance):

        observed treated          n_t rows at y_t_ob +/- sd_t
        observed control          n_c rows at y_c_ob +/- sd_c
        counterfactual treated    n_c rows at y_t_un +/- sd_t
        counterfactual control    n_t rows at y_c_un +/- sd_c

    Covariates are drawn once per subject from the seed and repeated on the
    counterfactual row, which forces zero sample covariance between
    treatment and every covariate.
    """
    n_t, n_c, n = spec.n_treated, spec.n_control, spec.n_ob
    sd_t, sd_c = math.sqrt(spec.var_t), math.sqrt(spec.var_c)

    rng = np.random.default_rng(spec.seed)
    z_subject = rng.standard_normal((n, spec.p))

    # Each cell is even: half its rows at mean + sd and half at mean - sd
    # match the target mean and 1/n variance exactly.  Rows run observed
    # treated, observed control, then the treated subjects' control rows and
    # the control subjects' treated rows.
    half_t, half_c = n_t // 2, n_c // 2
    dataset = IdealDataset(
        outcome=np.repeat(
            [spec.y_t_ob + sd_t, spec.y_t_ob - sd_t, spec.y_c_ob + sd_c, spec.y_c_ob - sd_c,
             spec.y_c_un + sd_c, spec.y_c_un - sd_c, spec.y_t_un + sd_t, spec.y_t_un - sd_t],
            [half_t, half_t, half_c, half_c, half_t, half_t, half_c, half_c],
        ),
        w=np.repeat([1.0, 0.0, 0.0, 1.0], [n_t, n_c, n_t, n_c]),
        z=np.concatenate([z_subject, z_subject]),
        observed=np.repeat([True, False], n),
    )
    # Balanced arms are structural: each subject appears once per arm.
    w = dataset.w
    assert w.mean() == 0.5 and float(np.mean((w - 0.5) ** 2)) == 0.25
    return dataset


# =============================================================================
# Least squares through the normal equations, on stacks of datasets
# =============================================================================


class DatasetStack:
    """Datasets with one covariate count p, reduced to their small matrices and
    stacked on a leading axis of length k.

    Each dataset's rows are read once, here, and not kept.  Each matrix kind
    is solved once for the whole stack, on first use, through _solve (see
    the module docstring).  Every check returns one value per dataset, in
    the order the datasets were given; a dataset that fails a check raises
    for the whole stack, naming the first that fails.
    """

    def __init__(self, datasets: Iterable[IdealDataset]) -> None:
        reduced = [dataset._reduce() for dataset in datasets]
        if not reduced:
            raise InputValidationError("a dataset stack needs at least one dataset")
        if len({r["z_mean"].shape for r in reduced}) > 1:
            raise InputValidationError("the datasets of a stack must have one covariate count")
        self._m = {key: _read_only(np.array([r[key] for r in reduced])) for key in reduced[0]}
        self.p = reduced[0]["z_mean"].shape[0]

    def __len__(self) -> int:
        return self._m["n"].shape[0]

    @cached_property
    def _gram_solution(self) -> np.ndarray:
        """X'X solved against [X'y | I]: the fits, then (X'X)^-1, (k, p+2, p+3)."""
        gram, moment = self._m["gram"], self._m["moment"]
        rhs = np.concatenate([moment[:, :, None], np.broadcast_to(np.eye(self.p + 2), gram.shape)],
                             axis=2)
        return _read_only(_solve(gram, rhs))

    @cached_property
    def _szz_solution(self) -> np.ndarray:
        """S_zz solved against [s_zw, s_zy, I]: S_zz^-1 s_zw, S_zz^-1 s_zy, S_zz^-1."""
        m = self._m
        rhs = np.concatenate([m["s_zw"][:, :, None], m["s_zy"][:, :, None],
                              np.broadcast_to(np.eye(self.p), m["s_zz"].shape)], axis=2)
        return _read_only(_solve(m["s_zz"], rhs))

    @cached_property
    def fit(self) -> np.ndarray:
        """Coefficients of [1, Z, W] solving each dataset's normal equations,
        residual-checked: (k, p+2), read-only."""
        gram, moment = self._m["gram"], self._m["moment"]
        coefficients = self._gram_solution[:, :, 0]
        residual = np.abs(gram @ coefficients[:, :, None] - moment[:, :, None]).max(axis=(1, 2))
        scale = np.maximum(np.abs(moment).max(axis=1), 1.0)
        # written so that a NaN residual or scale fails too
        failed = ~(residual <= 1e-9 * scale)
        if failed.any():
            raise SingularDesignError(
                f"normal-equation residual {residual[np.argmax(failed)]:.3e} exceeds 1e-9 relative"
            )
        return coefficients

    @property
    def direct_inverse(self) -> np.ndarray:
        """(X'X)^-1 of each dataset, from the same solve as the fit: (k, p+2, p+2)."""
        return self._gram_solution[:, :, 1:]

    @cached_property
    def half_sample_fit(self) -> np.ndarray:
        """The b solving (Xo'Xo + Xu'Xu) b = Xo'Yo + Xu'Yu: (k, p+2), read-only."""
        m = self._m
        if not m["both_halves"].all():
            raise InputValidationError("dataset must contain both observed and counterfactual rows")
        return _read_only(_solve(m["half_gram"], m["half_moment"][:, :, None])[:, :, 0])

    def w_coefficient_via_moments(self) -> np.ndarray:
        """Treatment coefficients from sample covariances alone: (k,).

        (s_wy - s_wz s_zz^-1 s_zy) / (s_ww - s_wz s_zz^-1 s_zw); an independent
        route to the number fit gives from the full normal equations.
        """
        m = self._m
        szz_inv_szw, szz_inv_szy = self._szz_solution[:, :, 0], self._szz_solution[:, :, 1]
        numerator = m["s_wy"] - _dot(m["s_zw"], szz_inv_szy)
        denominator = m["s_ww"] - _dot(m["s_zw"], szz_inv_szw)
        return numerator / denominator

    def standardized_w_coefficient(self) -> np.ndarray:
        """Treatment coefficients after scaling outcome and treatment to unit variance: (k,)."""
        m = self._m
        return self.fit[:, -1] * np.sqrt(m["s_ww"]) / np.sqrt(m["s_yy"])

    def block_inverse_errors(self) -> np.ndarray:
        """Each dataset's (X'X)^-1 assembled from block formulas, against the
        direct inverse: (k,) errors.

        The Gram matrix of [1, V] with V = [Z, W] inverts blockwise through
        the predictor covariance S_VV: with N rows and mean vector v,

            top-left      1/N + v (1/N) S_VV^-1 v'
            top edge      -(1/N) v S_VV^-1
            body          (1/N) S_VV^-1

        and S_VV itself inverts through the Schur complement of its
        covariate block; the last row is also set against _closed_form_last_row.
        Each error is the maximum entrywise discrepancy of either, scaled by
        the direct inverse's largest entry magnitude.
        The S_zz solves are the ones the moment route uses, and the direct
        inverse comes from the same solve of X'X as the fit.
        """
        m = self._m
        n, p, k = m["n"], self.p, len(self)

        szz_inv_szw, szz_inv = self._szz_solution[:, :, 0], self._szz_solution[:, :, 2:]
        schur = m["s_ww"] - _dot(m["s_zw"], szz_inv_szw)
        if (schur <= 0.0).any():
            raise SingularDesignError("nonpositive Schur complement of the covariate block")
        schur_inv = 1.0 / schur

        s_vv_inv = np.empty((k, p + 1, p + 1))
        s_vv_inv[:, :p, :p] = szz_inv + schur_inv[:, None, None] * (
            szz_inv_szw[:, :, None] * szz_inv_szw[:, None, :])
        s_vv_inv[:, :p, p] = -schur_inv[:, None] * szz_inv_szw
        s_vv_inv[:, p, :p] = -schur_inv[:, None] * szz_inv_szw
        s_vv_inv[:, p, p] = schur_inv

        v_mean = np.concatenate([m["z_mean"], m["w_mean"][:, None]], axis=1)
        v_s = (v_mean[:, None, :] @ s_vv_inv)[:, 0]
        assembled = np.empty((k, p + 2, p + 2))
        assembled[:, 0, 0] = 1.0 / n + _dot(v_s, v_mean) / n
        assembled[:, 0, 1:] = -v_s / n[:, None]
        assembled[:, 1:, 0] = assembled[:, 0, 1:]
        assembled[:, 1:, 1:] = s_vv_inv / n[:, None, None]

        last_row = self._closed_form_last_row(szz_inv, schur_inv)
        direct = self.direct_inverse
        scale = np.abs(direct).max(axis=(1, 2))
        error = np.maximum(np.abs(assembled - direct).max(axis=(1, 2)),
                           np.abs(last_row - direct[:, -1]).max(axis=1))
        return error / scale

    def _closed_form_last_row(self, szz_inv: np.ndarray, schur_inv: np.ndarray) -> np.ndarray:
        """Each (X'X)^-1's last row by closed forms, apart from the assembled blocks: (k, p+2)."""
        m, p = self._m, self.p
        n = m["n"]
        last_row = np.empty((len(self), p + 2))
        szz_inv_zmean = (szz_inv @ m["z_mean"][:, :, None])[:, :, 0]
        last_row[:, 0] = (_dot(m["s_zw"], szz_inv_zmean) * schur_inv - m["w_mean"] * schur_inv) / n
        last_row[:, 1 : p + 1] = -(schur_inv[:, None] * (m["s_zw"][:, None, :] @ szz_inv)[:, 0]) / n[:, None]
        last_row[:, p + 1] = schur_inv / n
        return last_row

    def bayes_combination_errors(self) -> np.ndarray:
        """Each half-sample fit against the fit on the stacked rows: (k,)
        maximum coefficient discrepancies.

        Splitting the rows into observed and counterfactual halves, the
        coefficient vector solving

            (Xo'Xo + Xu'Xu) b = Xo'Yo + Xu'Yu

        must match the least-squares fit on the stacked dataset, because the
        stacked Gram matrix and moment vector are exactly those sums.
        """
        return np.abs(self.half_sample_fit - self.fit).max(axis=1)


# =============================================================================
# Monte Carlo rejection rate
# =============================================================================


def monte_carlo_piv(
    spec: SyntheticSpec,
    stats: ObservedStats,
    sign: EstimateSign,
    threshold: Threshold,
    reps: int,
    seed: int = 0,
) -> float:
    """Empirical rejection rate over simulated completed samples.

    Each replication simulates a completed sample whose cells hold normal
    outcomes with the cell's target mean and variance, computes the
    completed-sample correlation r from the arm moments (the standardized
    two-group fit), and rejects when z = r * sqrt(2 n_ob) / sqrt(1 - r^2)
    crosses the signed cut threshold.signed(sign); a fixed threshold's cut
    is compared against r directly.  r depends on the outcomes only through
    each arm's mean and 1/n variance, so each replication draws their
    sufficient statistics instead of the rows: per cell of k rows a sample
    mean N(mu, sd^2 / k), and per arm of n_ob rows in two cells a
    within-cell sum of squares sd^2 * chi2(n_ob - 2).  All replications
    come from one generator.
    """
    _require_reps(reps)
    _require_seed(seed)
    for name in ("n_ob", "pi", "y_t_ob", "y_c_ob", "var_t", "var_c"):
        if not math.isclose(getattr(spec, name), getattr(stats, name), rel_tol=1e-12, abs_tol=1e-12):
            raise InputValidationError(
                f"spec and stats disagree on {name}: {getattr(spec, name)} vs {getattr(stats, name)}"
            )
    n_t, n_c, n = spec.n_treated, spec.n_control, spec.n_ob
    if not isinstance(threshold, Threshold):
        raise InputValidationError(f"unknown threshold type: {threshold!r}")
    cut = threshold.signed(sign)

    rng = np.random.default_rng(seed)

    def arm(cell_means: tuple[float, float], counts: tuple[int, int], var: float):
        # observed cell first, counterfactual cell second
        k = np.array(counts)
        means = np.array(cell_means) + np.sqrt(var / k) * rng.standard_normal((reps, 2))
        within = var * rng.chisquare(n - 2, reps)
        arm_mean = means @ k / n
        between = (means - arm_mean[:, None]) ** 2 @ k
        return arm_mean, (within + between) / n

    mean_t, var_t = arm((spec.y_t_ob, spec.y_t_un), (n_t, n_c), spec.var_t)
    mean_c, var_c = arm((spec.y_c_ob, spec.y_c_un), (n_c, n_t), spec.var_c)
    var_pooled = 0.5 * var_t + 0.5 * var_c + 0.25 * (mean_t - mean_c) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        # var_pooled == 0 gives r = 0/0 = NaN, and NaN never rejects
        r = 0.5 * (mean_t - mean_c) / np.sqrt(var_pooled)
        if isinstance(threshold, FixedThreshold):
            statistic = r
        else:
            # |r| = 1 happens only for zero-variance cells; the z statistic
            # is then unbounded on the side of r
            statistic = np.where(
                r * r < 1.0, math.sqrt(2.0 * n) * r / np.sqrt(1.0 - r * r), np.inf * r
            )
        rejected = statistic > cut if sign is EstimateSign.POSITIVE else statistic < cut
    return int(np.count_nonzero(rejected)) / reps


# =============================================================================
# Seeded spec generation for batch verification
# =============================================================================


_SPEC_SIZES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)


def random_spec(seed: int, p: int | None = None, n_ob: int | None = None) -> SyntheticSpec:
    """A reproducible, well-conditioned spec for batch checks.

    Covariate counts cycle through 0..6 unless p is given, and sample sizes
    are drawn from 8..512 unless n_ob is; means are kept separated so relative
    comparisons of the treatment coefficient stay meaningful.
    """
    rng = np.random.default_rng(seed)
    if p is None:
        p = int(seed) % 7
    if n_ob is None:
        # the draw rng.choice(_SPEC_SIZES) makes, without its array conversion
        n_ob = _SPEC_SIZES[rng.integers(len(_SPEC_SIZES))]
    half_pairs = n_ob // 2
    n_t = 2 * int(rng.integers(1, half_pairs))  # even, in [2, n_ob - 2]
    y_c_ob = float(rng.uniform(-20.0, 20.0))
    offset = float(rng.uniform(1.0, 15.0)) * (1 if rng.random() < 0.5 else -1)
    return SyntheticSpec(
        n_ob=n_ob,
        pi=n_t / n_ob,
        y_t_ob=y_c_ob + offset,
        y_c_ob=y_c_ob,
        y_t_un=float(rng.uniform(-20.0, 20.0)),
        y_c_un=float(rng.uniform(-20.0, 20.0)),
        var_t=float(rng.uniform(0.5, 40.0)),
        var_c=float(rng.uniform(0.5, 40.0)),
        p=p,
        seed=int(rng.integers(0, 2**63 - 1)),
    )

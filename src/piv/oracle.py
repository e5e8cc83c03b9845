"""Brute-force verification of the closed-form engine on explicit datasets.

The closed forms in piv.core are derived by block-matrix algebra over the
completed sample.  This module rebuilds everything the hard way: it
constructs explicit completed datasets whose four (arm x provenance) cells
match target means and variances exactly, fits least squares through the
normal equations with np.linalg under a 1e10 condition bound, and checks
the closed forms against those fits.  It also estimates the PIV by Monte
Carlo as a rejection rate over simulated completed samples.

Each matrix a dataset's checks need is solved once, through _solve, which
refuses a non-finite matrix and one whose singular values span more than
the bound: X'X against [X'y | I] gives the fit and the direct inverse, and
S_zz against [s_zw, s_zy | I] gives the moment route and the block
assembly.  The half-sample combination solves its own summed Gram matrix.
No check compares a quantity with itself: the block assembly, built from
S_zz, is set against the direct inverse of X'X.

Conventions that the checks depend on:

  * all sample variances and covariances use the 1/n divisor;
  * each subject contributes one row per treatment arm with identical
    covariates, so treatment is exactly balanced (mean 1/2, variance 1/4)
    and uncorrelated with every covariate by construction;
  * the design matrix is [1, Z_1..Z_p, W] with the treatment column last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    EstimateSign,
    FixedThreshold,
    InputValidationError,
    ObservedStats,
    PivError,
    Threshold,
    _require_finite,
)

__all__ = [
    "SingularDesignError",
    "SyntheticSpec",
    "IdealDataset",
    "build_exact_dataset",
    "ols_fit",
    "w_coefficient_via_moments",
    "standardized_w_coefficient",
    "block_inverse_check",
    "bayes_combination_check",
    "monte_carlo_piv",
    "random_spec",
]

_MAX_CONDITION = 1e10


class SingularDesignError(PivError):
    """The design matrix is numerically rank deficient."""


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve that refuses a non-finite or numerically rank-deficient matrix.

    The 2-norm condition number is s_max / s_min over the singular values;
    s_max <= 1e10 * s_min tests the bound without dividing, and a zero s_min
    fails it.  rhs may have several columns; a 0x0 matrix (no covariates)
    passes through.
    """
    if matrix.size:
        if not np.isfinite(matrix).all():
            raise SingularDesignError("matrix has a non-finite entry")
        s = np.linalg.svd(matrix, compute_uv=False)
        if not (s[-1] > 0.0 and s[0] <= _MAX_CONDITION * s[-1]):
            condition = s[0] / s[-1] if s[-1] > 0.0 else math.inf
            raise SingularDesignError(f"condition number {condition:.3e} above {_MAX_CONDITION:.0e}")
    return np.linalg.solve(matrix, rhs)


def _require_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputValidationError(f"seed must be a nonnegative integer, got {seed!r}")


def _require_reps(reps) -> None:
    if not isinstance(reps, int) or reps < 1000:
        raise InputValidationError(f"reps must be an integer >= 1000, got {reps!r}")


# =============================================================================
# Exact-moment completed datasets
# =============================================================================


@dataclass(frozen=True)
class SyntheticSpec:
    """Targets for an exact-moment completed dataset.

    pi * n_ob and (1 - pi) * n_ob must be positive even integers so that
    every (arm x provenance) cell can be matched exactly by a symmetric
    two-point placement.
    """

    n_ob: int
    pi: float
    y_t_ob: float
    y_c_ob: float
    y_t_un: float
    y_c_un: float
    var_t: float
    var_c: float
    p: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.n_ob, int) or self.n_ob <= 0 or self.n_ob % 2:
            raise InputValidationError(f"n_ob must be a positive even integer, got {self.n_ob!r}")
        for name in ("pi", "y_t_ob", "y_c_ob", "y_t_un", "y_c_un", "var_t", "var_c"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
        n_t = self.pi * self.n_ob
        if abs(n_t - round(n_t)) > 1e-9:
            raise InputValidationError(f"pi * n_ob must be integral, got {n_t}")
        n_t = round(n_t)
        n_c = self.n_ob - n_t
        for name, count in (("pi * n_ob", n_t), ("(1 - pi) * n_ob", n_c)):
            if count <= 0 or count % 2:
                raise InputValidationError(f"{name} must be a positive even integer, got {count}")
        for name in ("var_t", "var_c"):
            if getattr(self, name) < 0.0:
                raise InputValidationError(f"{name} must be >= 0")
        if not isinstance(self.p, int) or self.p < 0:
            raise InputValidationError(f"p must be a nonnegative integer, got {self.p!r}")
        _require_seed(self.seed)

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


@dataclass(frozen=True, eq=False)
class IdealDataset:
    """An explicit completed sample: 2*n_ob rows of (outcome, treatment, covariates).

    Rows 0..n_ob-1 are the observed sample in subject order; rows
    n_ob..2*n_ob-1 are the same subjects' counterfactual rows (treatment
    flipped, covariates identical).

    The four arrays are made read-only in place on construction, so the
    design matrix, normal equations, moment blocks and the two checked
    solves (of X'X and of S_zz), each formed on first use and then shared by
    every check, cannot go stale.
    """

    outcome: np.ndarray
    w: np.ndarray
    z: np.ndarray
    observed: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.outcome, self.w, self.z, self.observed):
            array.flags.writeable = False

    @property
    def n_ob(self) -> int:
        return self.outcome.shape[0] // 2

    @property
    def p(self) -> int:
        return self.z.shape[1]

    def design_matrix(self) -> np.ndarray:
        """[1, Z, W] with the treatment column last (read-only, shared)."""
        return self._design

    @cached_property
    def _design(self) -> np.ndarray:
        n_rows = self.outcome.shape[0]
        x = np.column_stack([np.ones(n_rows), self.z, self.w])
        x.flags.writeable = False
        return x

    @cached_property
    def _normal_equations(self) -> tuple[np.ndarray, np.ndarray]:
        """(X'X, X'y)."""
        x = self._design
        return x.T @ x, x.T @ self.outcome

    @cached_property
    def _moments(self) -> dict:
        """Sample means and 1/n covariance blocks of (Z, W, Y)."""
        y, w, z = self.outcome, self.w, self.z
        y_mean, w_mean, z_mean = y.mean(), w.mean(), z.mean(axis=0)
        y_c = y - y_mean
        w_c = w - w_mean
        z_c = z - z_mean
        n = y.shape[0]
        return {
            "n": n,
            "y_mean": y_mean,
            "w_mean": w_mean,
            "z_mean": z_mean,
            "s_zz": (z_c.T @ z_c) / n,
            "s_zw": (z_c.T @ w_c) / n,
            "s_zy": (z_c.T @ y_c) / n,
            "s_ww": float(w_c @ w_c) / n,
            "s_wy": float(w_c @ y_c) / n,
            "s_yy": float(y_c @ y_c) / n,
        }

    @cached_property
    def _szz_solution(self) -> np.ndarray:
        """S_zz solved once against [s_zw, s_zy, I]: S_zz^-1 s_zw, S_zz^-1 s_zy, S_zz^-1."""
        m = self._moments
        rhs = np.column_stack([m["s_zw"], m["s_zy"], np.eye(self.p)])
        solution = _solve(m["s_zz"], rhs)
        solution.flags.writeable = False
        return solution

    @cached_property
    def _gram_solution(self) -> np.ndarray:
        """X'X solved once against [X'y | I]: the fit, then (X'X)^-1."""
        gram, moment = self._normal_equations
        solution = _solve(gram, np.column_stack([moment, np.eye(moment.shape[0])]))
        solution.flags.writeable = False
        return solution

    @cached_property
    def _fit(self) -> np.ndarray:
        """Coefficients solving the normal equations, residual-checked."""
        gram, moment = self._normal_equations
        coefficients = self._gram_solution[:, 0]
        residual = np.max(np.abs(gram @ coefficients - moment))
        scale = max(np.max(np.abs(moment)), 1.0)
        # written so that a NaN residual or scale fails too
        if not residual <= 1e-9 * scale:
            raise SingularDesignError(
                f"normal-equation residual {residual:.3e} exceeds 1e-9 relative"
            )
        return coefficients


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
# Least squares through the normal equations
# =============================================================================


def ols_fit(dataset: IdealDataset) -> np.ndarray:
    """Coefficients of [1, Z, W] from solving the normal equations directly.

    The fit is formed once per dataset and returned read-only.
    """
    return dataset._fit


def w_coefficient_via_moments(dataset: IdealDataset) -> float:
    """Treatment coefficient from sample covariances alone.

    (s_wy - s_wz s_zz^-1 s_zy) / (s_ww - s_wz s_zz^-1 s_zw); an independent
    route to the same number ols_fit produces from the full normal equations.
    """
    m = dataset._moments
    szz_inv_szw, szz_inv_szy = dataset._szz_solution[:, :2].T
    numerator = m["s_wy"] - float(m["s_zw"] @ szz_inv_szy)
    denominator = m["s_ww"] - float(m["s_zw"] @ szz_inv_szw)
    return numerator / denominator


def standardized_w_coefficient(dataset: IdealDataset) -> float:
    """Treatment coefficient after scaling outcome and treatment to unit variance."""
    m = dataset._moments
    return float(ols_fit(dataset)[-1]) * math.sqrt(m["s_ww"]) / math.sqrt(m["s_yy"])


def block_inverse_check(dataset: IdealDataset) -> float:
    """Assemble (X'X)^-1 from block formulas and compare to direct inversion.

    The Gram matrix of [1, V] with V = [Z, W] inverts blockwise through the
    predictor covariance S_VV: with N rows and mean vector v,

        top-left      1/N + v (1/N) S_VV^-1 v'
        top edge      -(1/N) v S_VV^-1
        body          (1/N) S_VV^-1

    and S_VV itself inverts through the Schur complement of its covariate
    block.  Returns the maximum entrywise discrepancy against the direct
    inverse, scaled by the largest entry magnitude.  The S_zz solves are the
    ones the moment route uses, and the direct inverse comes from the same
    solve of X'X as the fit.
    """
    m = dataset._moments
    n = m["n"]
    p = dataset.p

    szz_inv_szw, szz_inv = dataset._szz_solution[:, 0], dataset._szz_solution[:, 2:]
    schur = m["s_ww"] - float(m["s_zw"] @ szz_inv_szw)
    if schur <= 0.0:
        raise SingularDesignError("nonpositive Schur complement of the covariate block")
    schur_inv = 1.0 / schur

    s_vv_inv = np.empty((p + 1, p + 1))
    s_vv_inv[:p, :p] = szz_inv + schur_inv * np.outer(szz_inv_szw, szz_inv_szw)
    s_vv_inv[:p, p] = -schur_inv * szz_inv_szw
    s_vv_inv[p, :p] = -schur_inv * szz_inv_szw
    s_vv_inv[p, p] = schur_inv

    v_mean = np.concatenate([m["z_mean"], [m["w_mean"]]])
    assembled = np.empty((p + 2, p + 2))
    assembled[0, 0] = 1.0 / n + float(v_mean @ s_vv_inv @ v_mean) / n
    assembled[0, 1:] = -(v_mean @ s_vv_inv) / n
    assembled[1:, 0] = assembled[0, 1:]
    assembled[1:, 1:] = s_vv_inv / n

    # Closed forms for the last row, assembled independently of the blocks above.
    last_row = np.empty(p + 2)
    last_row[0] = (float(m["s_zw"] @ (szz_inv @ m["z_mean"])) * schur_inv - m["w_mean"] * schur_inv) / n
    last_row[1 : p + 1] = -(schur_inv * (m["s_zw"] @ szz_inv)) / n
    last_row[p + 1] = schur_inv / n

    direct = dataset._gram_solution[:, 1:]
    scale = float(np.max(np.abs(direct)))
    error = float(np.max(np.abs(assembled - direct)))
    error = max(error, float(np.max(np.abs(last_row - direct[-1]))))
    return error / scale


def bayes_combination_check(dataset: IdealDataset) -> float:
    """Verify that combining the two half-samples reproduces the full fit.

    Splitting the rows into observed and counterfactual halves, the
    coefficient vector solving

        (Xo'Xo + Xu'Xu) b = Xo'Yo + Xu'Yu

    must match the least-squares fit on the stacked dataset, because the
    stacked Gram matrix and moment vector are exactly those sums.  Returns
    the maximum coefficient discrepancy.
    """
    observed = dataset.observed
    if not observed.any() or observed.all():
        raise InputValidationError("dataset must contain both observed and counterfactual rows")
    x = dataset.design_matrix()
    y = dataset.outcome
    xo, yo = x[observed], y[observed]
    xu, yu = x[~observed], y[~observed]
    combined = _solve(xo.T @ xo + xu.T @ xu, xo.T @ yo + xu.T @ yu)
    stacked = ols_fit(dataset)
    return float(np.max(np.abs(combined - stacked)))


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

    Covariate counts cycle through 0..6 and sample sizes through 8..512
    unless pinned; means are kept separated so relative comparisons of the
    treatment coefficient stay meaningful.
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

"""Desk-scale experiments on stochastic bit reservoirs.

Covers the contrast between deterministic and noisy reservoirs: processing
capacity scans over system size, switching-signal families with exponential
versus polynomial tails, tail classification, the power-basis construction
that spans exponentially many polynomials, sample-complexity curves for the
all-zeros detection argument, and a brute-force fat-shattering search.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng as _rng
from .capacity import (
    RANK_TOLERANCE,
    IPCReport,
    ReadoutFit,
    TargetBasis,
    _basis_sum_report,
    ipc_probability_rep,
)
from .errors import (
    ConditioningFailure,
    InvalidInput,
    Interval,
    NonpositiveSignal,
    SearchBudgetExceeded,
)
from .reservoir import (
    BITS,
    BitstringDistribution,
    InputMeasure,
    InputSequence,
    ReservoirSpec,
    build_reservoir,
    flip_gate,
    run_exact,
    set_gate,
    swap_gate,
    _check_dense,
)
from .signals import probability_signals

logger = logging.getLogger(__name__)

# the shift register's noise rate; at 0.5 the state is uniform after every step
NOISE_RATE = Interval(0.0, 0.5)
# the monomial Gram of power_basis_demo is numerically singular from n = 7 on
POWER_BASIS_BITS = Interval(1, 6, integer=True)
RATE = Interval(0.0, 1.0)
LEARNABILITY_TRIALS = Interval(1000, integer=True)
# a peak of the normalized switching family is at most 1
PEAK = Interval(0.0, 1.0, open_lo=True)
# dichotomies the exhaustive shattering search may test before it gives up
SHATTER_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# reservoir families for the size scan
# ---------------------------------------------------------------------------

def shift_register_flip_family(n: int, noise: float) -> ReservoirSpec:
    """Shift register that absorbs one drive bit per step, with flip noise.

    Per step: rotate the register by adjacent swaps, rewrite the last bit to
    1 with probability equal to the drive (binary drives write the input bit
    in), then flip every bit independently with probability ``noise``. The
    register holds the last n inputs, each degraded by one more noise layer
    per step of age, so under a fair binary drive the stationary capacity
    has the closed form prod_{a=1..n} (1 + (1-2*noise)**(2a)). With
    ``noise == 0`` the step is deterministic and the trajectory reaches
    every bitstring; with ``noise == 0.5`` the state is exactly uniform
    after every step.
    """
    BITS.check("n", n)
    NOISE_RATE.check("noise", noise)
    gates = []
    for i in range(n - 1):
        gates.append(swap_gate(i, i + 1))
    gates.append(set_gate(n - 1, {"type": "poly", "coeffs": [0.0, 1.0]}))
    if noise > 0.0:
        for i in range(n):
            gates.append(flip_gate(i, noise))
    return ReservoirSpec(
        n=n,
        gates=gates,
        initial_state=BitstringDistribution.point_mass(n, 0),
        depth_bound=max(4 * n, len(gates)),
        drive_domain=(0.0, 1.0),
    )


def shift_register_capacity_closed_form(n: int, noise: float) -> float:
    """Stationary probability-trace capacity of the shift-register family.

    Given the last n drive bits, the state is a product of independent
    Bernoullis whose bit of age a has mean (1 +/- (1-2*noise)**a) / 2; the
    trace formula then factorizes into prod_{a=1..n} (1 + (1-2*noise)**(2a)).
    """
    BITS.check("n", n)
    NOISE_RATE.check("noise", noise)
    r = 1.0 - 2.0 * noise
    out = 1.0
    for a in range(1, n + 1):
        out *= 1.0 + r ** (2 * a)
    return out


@dataclass
class ScalingCurve:
    """Processing capacity versus system size, with fits of its growth."""

    n_values: np.ndarray
    ipc_mean: np.ndarray
    ipc_stderr: np.ndarray
    noise: float
    slope_n: float = 0.0
    slope_n_stderr: float = 0.0
    slope_logn: float = 0.0
    slope_logn_stderr: float = 0.0
    subexponential_consistent: bool = False
    samples: list = field(default_factory=list)


def _line_fit(x: np.ndarray, y: np.ndarray):
    """OLS slope and its standard error, each None where undefined: the slope
    below two distinct x, the error below three points (no residual dof)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.min() == x.max():
        return None, None
    xm = x - x.mean()
    sxx = float(np.sum(xm * xm))
    slope = float(np.sum(xm * y) / sxx)
    if len(x) < 3:
        return slope, None
    resid = y - (y.mean() + slope * xm)
    stderr = math.sqrt(float(np.sum(resid * resid)) / (len(x) - 2) / sxx)
    return slope, stderr


def scan_system_size(family: Callable[[int, float], ReservoirSpec],
                     n_values: Sequence[int], noise: float,
                     measure: InputMeasure, timesteps: int = 2000,
                     washout: int = 100, repeats: int = 3,
                     seed: int = 0) -> ScalingCurve:
    """Probability-trace capacity of ``family(n, noise)`` across ``n_values``.

    Runs exact propagation, so every n must stay within the exact-mode cap.
    Error bars come from independent drive realizations. Fits the log of the
    mean capacity against n and against log n, and flags the curve as
    consistent with subexponential growth when the slope in n sits more
    than three standard errors below log 2. With fewer than three sizes the
    standard errors are None and the flag is False, and with one size the
    slopes are None too.
    """
    n_values = sorted(BITS.check("n", n) for n in n_values)
    Interval(1, integer=True).check("timesteps", timesteps)
    Interval(0, integer=True).check("washout", washout)
    Interval(1, integer=True).check("repeats", repeats)
    _check_dense(max(n_values), "scan's exact mode")
    means, errs, samples = [], [], []
    for n in n_values:
        spec = family(n, noise)
        res = build_reservoir(spec)
        vals = []
        for r in range(repeats):
            gen = _rng.stream(seed, n, r)
            drives = measure.draw(washout + timesteps, gen)
            seq = InputSequence(drives[:, None], washout_length=washout)
            dists = run_exact(res, seq)
            vals.append(ipc_probability_rep(probability_signals(dists)).ipc_value)
        vals = np.asarray(vals)
        means.append(vals.mean())
        errs.append(vals.std(ddof=1) / math.sqrt(repeats) if repeats > 1 else 0.0)
        samples.append(vals.tolist())
        logger.info("scan n=%d: capacity %.4f +/- %.4f", n, means[-1], errs[-1])

    means = np.asarray(means)
    errs = np.asarray(errs)
    slope_n, se_n = _line_fit(np.asarray(n_values, dtype=float), np.log(means))
    slope_logn, se_logn = _line_fit(np.log(np.asarray(n_values, dtype=float)), np.log(means))
    return ScalingCurve(
        n_values=np.asarray(n_values), ipc_mean=means, ipc_stderr=errs,
        noise=noise, slope_n=slope_n, slope_n_stderr=se_n,
        slope_logn=slope_logn, slope_logn_stderr=se_logn,
        subexponential_consistent=se_n is not None and slope_n < math.log(2.0) - 3.0 * se_n,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# switching-signal families
# ---------------------------------------------------------------------------

@dataclass
class SwitchingFamily:
    """K bump signals normalized to sum to one at every drive value."""

    kind: str
    centers: np.ndarray
    sharpness: float
    grid: np.ndarray
    signals: np.ndarray  # (K, grid points)
    peaks: np.ndarray
    confusion: np.ndarray

    @property
    def count(self) -> int:
        return len(self.centers)

    def normalization_residual(self) -> float:
        return float(np.max(np.abs(self.signals.sum(axis=0) - 1.0)))


def switching_family(kind: str, count: int, domain=(0.0, 1.0),
                     sharpness: float = 8.0, grid_points: int = 2001) -> SwitchingFamily:
    """Build a normalized family of K switching signals on ``domain``.

    ``kind`` selects the unnormalized bump shape: ``exponential`` uses
    2**(-sharpness * |u - c|); ``polynomial`` uses the inverse-quadratic
    1 / (1 + ((u - c)/sharpness)**2), so the sharpness is a half-width.
    Centers are equispaced; bumps are normalized pointwise to sum to one.
    """
    Interval(1, integer=True).check("count", count)
    Interval(0.0, open_lo=True).check("sharpness", sharpness)
    Interval(1, integer=True).check("grid_points", grid_points)
    lo, hi = float(domain[0]), float(domain[1])
    grid = np.linspace(lo, hi, grid_points)
    centers = lo + (hi - lo) * (2 * np.arange(count) + 1) / (2.0 * count)
    dist = np.abs(grid[None, :] - centers[:, None])
    if kind == "exponential":
        raw = np.exp2(-sharpness * dist)
    elif kind == "polynomial":
        raw = 1.0 / (1.0 + (dist / sharpness) ** 2)
    else:
        raise ValueError(f"unknown switching kind: {kind!r}")
    signals = raw / raw.sum(axis=0, keepdims=True)
    peaks = signals.max(axis=1)
    return SwitchingFamily(kind, centers, float(sharpness), grid, signals,
                           peaks, 1.0 - peaks)


def sweep_exponential_sharpness(count: int, domain=(0.0, 1.0),
                                target_min_peak: float = 0.99,
                                grid_points: int = 2001) -> float:
    """Smallest exponential sharpness whose worst signal peak reaches the target,
    bracketed and then bisected 60 times.

    Raises InvalidInput when no sharpness up to 1e7 reaches it, including
    when the bumps underflow to a NaN peak first.
    """
    PEAK.check("target_min_peak", target_min_peak)
    lo_b, hi_b = 1e-3, 4.0
    while not switching_family("exponential", count, domain, hi_b,
                               grid_points).peaks.min() >= target_min_peak:
        hi_b *= 2.0
        if hi_b > 1e7:
            raise InvalidInput("target peak unreachable")
    for _ in range(60):
        mid = 0.5 * (lo_b + hi_b)
        fam = switching_family("exponential", count, domain, mid, grid_points)
        if fam.peaks.min() >= target_min_peak:
            hi_b = mid
        else:
            lo_b = mid
    return hi_b


def matched_polynomial_sharpness(beta: float, rule: str = "decay-scale") -> float:
    """Half-width for the polynomial family matched to an exponential one.

    ``decay-scale`` equates the e-folding length of the exponential bump
    (1 / (beta * ln 2)); ``half-width`` equates the half-maximum width
    (1 / beta). The decay-scale rule is the default used in reports.
    """
    if rule == "decay-scale":
        return 1.0 / (beta * math.log(2.0))
    if rule == "half-width":
        return 1.0 / beta
    raise ValueError(f"unknown matching rule: {rule!r}")


# ---------------------------------------------------------------------------
# tail classification
# ---------------------------------------------------------------------------

@dataclass
class TailFit:
    """Outcome of fitting tail decay laws to positive signal samples."""

    classification: str  # "polynomial" | "exponential" | "inconclusive"
    parameter: float     # degree for polynomial, natural-log rate for exponential
    residual_poly: float
    residual_exp: float
    region: tuple


def _fit_residual(x: np.ndarray, y: np.ndarray):
    slope, _ = _line_fit(x, y)
    intercept = y.mean() - slope * x.mean()
    resid = y - (intercept + slope * x)
    return slope, float(np.mean(resid * resid))


def classify_tails(u: np.ndarray, p: np.ndarray) -> TailFit:
    """Classify the tail decay of one signal as polynomial or exponential by
    competing fits.

    Fits log p against log u (polynomial tail, parameter = degree) and log p
    against u (exponential tail, parameter = natural-log rate) over every
    sample given, so the caller passes the decay region's slice, and keeps
    the lower-residual law; residuals within 10 % of the larger one, or both
    at the rounding level of log p (as for a constant p), give
    "inconclusive". The fit's ``region`` is the span of u. Fewer than 3
    distinct u raise ``ValueError``, and a NaN or infinity in ``u`` or ``p``
    :class:`InvalidInput`, a ``ValueError``.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (np.isfinite(u).all() and np.isfinite(p).all()):
        raise InvalidInput("tail classification needs finite u and p")
    distinct = len(set(u.tolist()))
    if distinct < 3:  # two values of u fit both laws exactly, to rounding
        raise ValueError(f"tail classification needs at least 3 samples in the region, "
                         f"at distinct u, got {distinct}")
    if np.any(p <= 0.0):
        raise NonpositiveSignal("tail classification needs positive samples")
    if np.any(u <= 0.0):
        raise InvalidInput("decay region must have positive drive values")
    logp = np.log(p)
    slope_poly, r_poly = _fit_residual(np.log(u), logp)
    slope_exp, r_exp = _fit_residual(u, logp)
    reg = (float(u.min()), float(u.max()))
    floor = (64 * np.finfo(float).eps) ** 2 * float(np.mean(logp * logp))
    if abs(r_poly - r_exp) <= 0.10 * max(r_poly, r_exp) or max(r_poly, r_exp) <= floor:
        return TailFit("inconclusive", float("nan"), r_poly, r_exp, reg)
    if r_poly < r_exp:
        return TailFit("polynomial", -slope_poly, r_poly, r_exp, reg)
    return TailFit("exponential", -slope_exp, r_poly, r_exp, reg)


# ---------------------------------------------------------------------------
# deterministic power basis
# ---------------------------------------------------------------------------

@dataclass
class PowerBasisReport:
    """Rank and capacity of the subset-product signals of {x, x^2, x^4, ...}."""

    n: int
    rank: int
    gram_eigenvalues: np.ndarray
    ipc_report: IPCReport
    samples: int


def power_basis_demo(n: int, samples: int = 100_000, seed: int = 0) -> PowerBasisReport:
    """Span of the 2**n subset products of {x, x^2, x^4, ..., x^(2^(n-1))}.

    These products are exactly the monomials x^0 .. x^(2^n - 1), taken at
    ``samples`` drives drawn uniformly from [-1, 1]. The report contains the
    numeric rank of their Gram matrix, with eigenvalues below
    ``RANK_TOLERANCE`` times the largest counted as zero, and the
    summed capacity against the orthonormal polynomial targets of the same
    degrees, all scored against one :class:`ReadoutFit` of the monomials. A
    rank below 2**n raises ConditioningFailure with diagnostics instead of
    reporting a silently wrong span.
    """
    POWER_BASIS_BITS.check("n", n)
    Interval(1, integer=True).check("samples", samples)
    lo, hi = -1.0, 1.0
    d = 2 ** n
    x = _rng.stream(seed, n).uniform(lo, hi, size=samples)
    w = np.full(x.size, 1.0 / x.size)
    cols = np.vander(x, N=d, increasing=True)

    g1 = (cols * w[:, None]).T @ cols
    g1 = 0.5 * (g1 + g1.T)
    eigs = np.linalg.eigvalsh(g1)
    rank = int(np.sum(eigs >= RANK_TOLERANCE * eigs[-1]))
    if rank < d:
        raise ConditioningFailure(
            f"Gram rank {rank} < {d} at tolerance {RANK_TOLERANCE:.1e} "
            f"(eigenvalue range {eigs[0]:.3e} .. {eigs[-1]:.3e}); "
            "the monomial Gram is numerically singular at this size"
        )

    # orthonormal Legendre targets of degrees 0 .. d - 1, scored in one fit
    basis = TargetBasis(0, d - 1, "iid-uniform-interval", lo=lo, hi=hi)
    report = _basis_sum_report(ReadoutFit(cols, w).score(basis.evaluate(x)), basis, d)
    return PowerBasisReport(n=n, rank=rank, gram_eigenvalues=eigs,
                            ipc_report=report, samples=int(x.size))


# ---------------------------------------------------------------------------
# sample complexity of detecting a rarely nonzero signal
# ---------------------------------------------------------------------------

@dataclass
class LearnabilityCurve:
    """All-zeros probabilities for a detector that reports nonzero iff any
    sample is nonzero."""

    q: float
    m0_grid: np.ndarray
    exact_all_zero: np.ndarray
    empirical_all_zero: np.ndarray
    small_product_approx: np.ndarray  # the m0*q column
    approx_regime: np.ndarray         # where m0*q << 1
    trials: int
    seed: int


def sample_complexity_curve(q: float, m0_grid: Sequence[int], trials: int,
                            seed: int = 0) -> LearnabilityCurve:
    """Exact and simulated probability that all m0 Bernoulli(q) samples are zero.

    Also records the small-product column m0*q together with a flag for the
    regime m0*q << 1 where that approximation is meaningful. Note the exact
    all-zero probability is (1-q)**m0; the m0*q column approximates its
    complement, not the probability itself, and both are reported so the
    discrepancy stays visible.
    """
    RATE.check("q", q)
    LEARNABILITY_TRIALS.check("trials", trials)
    m0_grid = np.asarray([Interval(0, integer=True).check("m0", m) for m in m0_grid])
    gen = _rng.stream(seed)
    exact = (1.0 - q) ** m0_grid.astype(float)
    empirical = np.empty(len(m0_grid))
    for i, m0 in enumerate(m0_grid):
        nonzero_counts = gen.binomial(int(m0), q, size=trials)
        empirical[i] = np.mean(nonzero_counts == 0)
    approx = m0_grid * q
    return LearnabilityCurve(
        q=float(q), m0_grid=m0_grid, exact_all_zero=exact,
        empirical_all_zero=empirical, small_product_approx=approx,
        approx_regime=approx < 0.1, trials=trials, seed=seed,
    )


def detection_sample_threshold(q: float) -> float:
    """Median number of samples the any-nonzero detector needs to fire.

    Solves (1-q)**m = 1/2 for real m, ``q`` in (0, 1): m = ln(1/2) /
    ln(1-q), close to ln2/q for small q.
    """
    Interval(0.0, 1.0, open_lo=True, open_hi=True).check("q", q)
    return math.log(0.5) / math.log(1.0 - q)


# ---------------------------------------------------------------------------
# fat-shattering lower bound by exhaustive search
# ---------------------------------------------------------------------------

@dataclass
class ShatterWitness:
    """A set of instances, thresholds, and per-dichotomy functions proving a
    shattering dimension."""

    instance_indices: tuple
    thresholds: tuple
    assignment: dict  # dichotomy bitmask -> function row index
    gamma: float


def verify_shatter_witness(values: np.ndarray, witness: ShatterWitness) -> bool:
    """Independent re-check of a witness by direct comparison.

    False unless there is one threshold per instance and the assignment maps
    exactly the dichotomies 0 .. 2^d - 1 to functions that realize them.
    """
    d = len(witness.instance_indices)
    if len(witness.thresholds) != d or witness.assignment.keys() != set(range(2 ** d)):
        return False
    funcs = [witness.assignment[pattern] for pattern in range(2 ** d)]
    vals = np.asarray(values)[np.ix_(funcs, witness.instance_indices)]
    thr = np.asarray(witness.thresholds, dtype=float)
    hi = (np.arange(2 ** d)[:, None] >> np.arange(d)) & 1 == 1
    return bool(np.where(hi, vals >= thr + witness.gamma, vals <= thr - witness.gamma).all())


def fat_shattering_lower_bound(values: np.ndarray, gamma: float, thresholds=None):
    """Largest d such that d instances are gamma-shattered, by exhaustion.

    ``values[f, i]`` is function f evaluated at instance i, in [0, 1].
    Thresholds are searched per instance over midpoints of sorted distinct
    values unless pinned by ``thresholds`` (a scalar or one value per
    instance). Instance subsets and threshold combinations are scanned in
    lexicographic order and the first witness found for the largest feasible
    d is returned after independent re-verification; each dichotomy is
    assigned its lowest-index function. A search that would test more than
    ``SHATTER_BUDGET`` dichotomies raises SearchBudgetExceeded.
    """
    Interval(0.0).check("gamma", gamma)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("values must be functions x instances")
    if not np.all((values >= -1e-12) & (values <= 1 + 1e-12)):
        raise InvalidInput("function values must be finite and lie in [0, 1]")
    n_fun, n_inst = values.shape
    if n_inst > 20:
        raise ValueError("exhaustive search limited to 20 instances")
    if n_fun > 2 ** 16:
        raise ValueError("exhaustive search limited to 2^16 functions")

    if thresholds is None:
        cand = [0.5 * (v[:-1] + v[1:]) for v in map(np.unique, values.T)]
    else:
        pinned = [thresholds] * n_inst if np.isscalar(thresholds) else list(thresholds)
        if len(pinned) != n_inst:
            raise ValueError(f"{len(pinned)} thresholds for {n_inst} instances: "
                             "give a scalar or one threshold per instance")
        cand = [np.array([float(Interval().check("threshold", t))]) for t in pinned]

    # per instance, one (lo, hi, threshold) per candidate: lo and hi are the
    # bitsets of the functions at most t - gamma and at least t + gamma (a
    # tie at gamma <= 0 counts as hi)
    columns = []
    for col, t in zip(values.T, cand):
        hi = col >= t[:, None] + gamma
        lo = (col <= t[:, None] - gamma) & ~hi
        packed = np.packbits(np.stack([lo, hi], axis=1), axis=-1, bitorder="little")
        columns.append([(int.from_bytes(lo_bytes.tobytes(), "little"),
                         int.from_bytes(hi_bytes.tobytes(), "little"), thr)
                        for (lo_bytes, hi_bytes), thr in zip(packed, t.tolist())])

    everyone = (1 << n_fun) - 1
    work = 0
    for d in range(min(n_inst, max(n_fun.bit_length() - 1, 0)), 0, -1):
        for subset in itertools.combinations(range(n_inst), d):
            for choice in itertools.product(*(columns[i] for i in subset)):
                work += 2 ** d
                if work > SHATTER_BUDGET:
                    raise SearchBudgetExceeded(f"shattering search exceeded budget {SHATTER_BUDGET}")
                assignment = {}
                for pattern in range(2 ** d):
                    feasible = everyone
                    for pos, sets in enumerate(choice):
                        feasible &= sets[pattern >> pos & 1]
                        if not feasible:
                            break
                    if not feasible:
                        break
                    assignment[pattern] = (feasible & -feasible).bit_length() - 1
                else:
                    witness = ShatterWitness(subset, tuple(c[2] for c in choice),
                                             assignment, gamma)
                    if not verify_shatter_witness(values, witness):
                        raise AssertionError("internal error: witness failed re-verification")
                    return d, witness
    return 0, ShatterWitness((), (), {}, gamma)


def switching_subset_class(family: SwitchingFamily) -> np.ndarray:
    """Linear-combination class over a switching family: all subset sums.

    Row S (as a bitmask over signals) holds sum_{i in S} q_i evaluated at
    the signal centers, added in ascending member order; row 0 is the
    identically zero function. Values stay in [0, 1] because the signals sum
    to one pointwise.
    """
    k = family.count
    center_idx = [int(np.argmin(np.abs(family.grid - c))) for c in family.centers]
    at_centers = family.signals[:, center_idx]  # (K signals, K instances)
    out = np.zeros((2 ** k, k))
    for i in range(k):
        out[2 ** i: 2 ** (i + 1)] = out[:2 ** i] + at_centers[i]
    return np.clip(out, 0.0, 1.0)

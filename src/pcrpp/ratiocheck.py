"""Numerical certification of the approximation constant.

The grid sweep runs in two passes over chunks of grid points.

1. Float64 filter, an interval branch-and-bound over segments of consecutive
   grid points (Hansen & Walster, Global Optimization Using Interval
   Analysis, 2004).  On the window h(xi) = c(xi)(1 - xi) is nonincreasing.
   With t = kappa - xi, both a = (span^(beta+2) - t^(beta+2))/(beta+2) and
   d = span (span^(beta+1) - t^(beta+1))/(beta+1) - a are at least zero and
   nondecreasing in xi (dd/dt = t^beta (t - span) <= 0); both kernels
   phi_low and phi_high are positive and increasing; so
   h = 1 - (nu/span) xi (phi_low a + phi_high d) is nonincreasing, and at
   least h(kappa) = 1 - kappa >= 0.  A segment runs from its first point
   x_a to x_c, the first point of the next segment of its size, so every
   value in it is at most h(x_a)/(1 - x_c).  From the float64 value f at
   x_a a segment is bounded by max(H/(1 - x_a), H/(1 - x_c)) with
   H = f (1 - x_a) + 2 FILTER_BOUND, rounded up; a single point by f + m,
   with m(xi) = FILTER_BOUND/(1 - xi).  Every segment start raises the
   lower bound on the grid maximum to max(f - m).  The levels are the
   sub-blocks of SUB = 512 points, bounded across the whole grid first, so
   that their lower bound holds for every chunk; then, chunk by chunk,
   inside each live segment, its FANOUT = 8 segments of 64, 8 and 1 points.
   A segment whose bound lies below the lower bound is pruned; any other
   one (NaN included) is split, so a chunk none of whose sub-blocks reaches
   the grid-wide lower bound makes no further float64 evaluation.  A block
   of BLOCK points takes the largest bound of the pruned segments and single
   points it holds as its upper bound.
2. Longdouble pass.  Only the blocks whose upper bound is not below the
   largest lower bound of all chunks (NaN included) are evaluated again in
   extended precision (numpy longdouble, 64-bit mantissa on x86-64), whose
   round-off stays far below the 1e-8 margin the certificate needs; the
   tests demonstrate that budget against a high-precision reference.

The grid maximum, its argument and the certificate are those of a
longdouble evaluation of every point.  The filter rests on one bracket,
|f64 - f_ld| (1 - xi) <= FILTER_BOUND between the float64 and longdouble
values at one grid index, and uses it only at the points it evaluates: the
segment starts and the single points.  In H, one FILTER_BOUND is that
bracket at x_a; the other covers the float64 rounding of H and the
distance of at most 2^-52 between a float64 grid point and its longdouble
twin.  Dividing by the float64 1 - x_c keeps the bound: every point of a
segment lies a step (far above 2^-52) below x_c, except at the clamped top
of the window, whose float64 point is not below its longdouble twin.  The
tests measure the bracket with a 64-fold margin over whole grids, and on
each block evaluated again the float64 error times (1 - xi) is checked
against FILTER_BOUND; a larger one raises FilterBoundError instead of
returning a certificate that rests on a broken bound.

The sub-block starts are bounded FILTER_SLICE at a time and the live
segments of a level are split FILTER_SLICE // FANOUT at a time, so no float64
evaluation takes more than FILTER_SLICE points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LD = np.longdouble

PAPER_KAPPA0 = 0.36621005
PAPER_KAPPA = 0.99678328
PAPER_BETA = 1.98094420

CERT_TARGET = 1.6

# Bound on |float64 - longdouble| * (1 - xi) for the curve; measured at most
# 6.2e-16 on the grids the tests scan, so about 1600 times the worst seen.
FILTER_BOUND = 1e-12
BLOCK = 4096  # grid points per block: the unit the longdouble pass evaluates again
SUB = 512  # grid points per segment of the level bounded across the whole chunk
FANOUT = 8  # segments a live segment splits into; SUB is a power of it
# Most points one float64 evaluation of the filter takes, so its temporaries
# stay at 32 KiB each, in cache.  At 2 * BLOCK (64 KiB each) a 1e-7 sweep
# trimmed glibc's heap and faulted the pages in again, 192 minor page faults
# per sweep against none at BLOCK, in about the same time.
FILTER_SLICE = BLOCK


class FilterBoundError(ArithmeticError):
    """A float64 curve value missed its longdouble value by more than the filter bound."""


@dataclass(frozen=True)
class RatioParams:
    """Threshold window and density exponent of the randomized analysis."""

    kappa0: float = PAPER_KAPPA0
    kappa: float = PAPER_KAPPA
    beta: float = PAPER_BETA

    def __post_init__(self):
        for name in ("kappa0", "kappa", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.kappa0 < self.kappa <= 1.0:
            raise ValueError("need 0 <= kappa0 < kappa <= 1")
        if self.beta <= 0.0:
            raise ValueError("need beta > 0")

    @property
    def span(self) -> float:
        return self.kappa - self.kappa0

    @property
    def nu(self) -> float:
        return float(_nu_ld(self))


def _nu_ld(p: RatioParams) -> np.longdouble:
    k0, k, b = LD(p.kappa0), LD(p.kappa), LD(p.beta)
    span = k - k0
    inv = (LD(3.0) - k) * span ** (b + 1) / (b + 1) + span ** (b + 2) / (b + 2)
    if inv <= 0:
        raise ValueError("degenerate parameters: normalization is not positive")
    return LD(1.0) / inv


def density(p: RatioParams, delta: float) -> float:
    """Sampling density of the outer threshold on [kappa0, kappa]."""
    if not p.kappa0 <= delta <= p.kappa:
        return 0.0
    return float(_nu_ld(p) * (LD(3.0) - LD(delta)) * (LD(p.kappa) - LD(delta)) ** LD(p.beta))


def phi(p: RatioParams, xi: float, delta: float) -> float:
    """Concave kernel (3-delta-kappa)(3-delta)/(3-delta-xi)."""
    d, k, x = LD(delta), LD(p.kappa), LD(xi)
    return float((LD(3.0) - d - k) * (LD(3.0) - d) / (LD(3.0) - d - x))


def length_factor(p: RatioParams) -> float:
    """Expected inflation of the walk-length term over the threshold window."""
    k0, k, b = LD(p.kappa0), LD(p.kappa), LD(p.beta)
    span = k - k0
    nu = _nu_ld(p)
    val = nu * (
        (LD(7.0) - LD(4.0) * k) * span ** (b + 1) / (b + 1)
        + LD(2.0) * span ** (b + 2) / (b + 2)
    )
    return float(val)


def skip_factor(p: RatioParams) -> float:
    """Trivial budget for edges whose value falls below the window."""
    return float(LD(1.0) / (LD(1.0) - LD(p.kappa0)))


@lru_cache(maxsize=16)
def _curve_constants(p: RatioParams, dtype) -> tuple:
    """The scalars of ``_curve_array`` in dtype, computed once per (params, dtype).

    A 1e-7 sweep calls ``_curve_array`` 31 times with the same params, most
    calls on a few thousand points or fewer, and computing these scalars,
    the longdouble powers of ``_nu_ld`` included, took about a fifth of a
    one-point call.  The tests replace ``_curve_array`` by stand-ins with
    its signature, so the scalars are memoized here rather than passed in.
    """
    k0, k, b = dtype(p.kappa0), dtype(p.kappa), dtype(p.beta)
    span = k - k0
    nu = dtype(_nu_ld(p))
    three = dtype(3.0)
    return (
        k,
        b + 1,
        b + 2,
        span ** (b + 2),
        span ** (b + 1),
        span,
        three - k0,
        (three - k0 - k) * (three - k0),
        three - k,
        (three - k - k) * (three - k),
        nu,
        dtype(1.0),
    )


def _curve_array(p: RatioParams, xs: np.ndarray, dtype=LD) -> np.ndarray:
    """Profit-miss ratio h/(1-xi) on a grid inside [kappa0, kappa], computed in dtype.

    Each step is the operation the plain expression would apply, written in
    place where it can be, so a call allocates four arrays, one of which it
    returns.  The twenty temporaries of the plain expression made the filter
    a quarter slower whenever the process had not raised glibc's heap trim
    threshold: freed temporaries were trimmed from the heap and faulted in
    again on every slice, 25k minor page faults in a 1e-7 sweep.

    The sweep's segment bounds rest on h = value * (1 - xi) being
    nonincreasing in xi, so a test stand-in for this function must keep it
    so, as ``np.ones`` does.
    """
    k, b1, b2, span_b2, span_b1, span, low, low_num, high, high_num, nu, one = _curve_constants(
        p, dtype
    )
    xs = np.asarray(xs, dtype)
    t = np.subtract(k, xs)
    tb1 = np.power(t, b1)
    a_term = np.multiply(tb1, t, out=t)  # t^(b+2) for now
    np.subtract(span_b2, a_term, out=a_term)
    np.divide(a_term, b2, out=a_term)
    b_term = np.subtract(span_b1, tb1, out=tb1)
    np.multiply(span, b_term, out=b_term)
    np.divide(b_term, b1, out=b_term)
    phi_low = np.subtract(low, xs)
    np.divide(low_num, phi_low, out=phi_low)
    phi_high = np.subtract(high, xs)
    np.divide(high_num, phi_high, out=phi_high)
    # h = 1 - (xs nu / span) ((phi_low - phi_high) a_term + phi_high b_term)
    h = np.subtract(phi_low, phi_high, out=phi_low)
    np.multiply(h, a_term, out=h)
    np.multiply(phi_high, b_term, out=phi_high)
    np.add(h, phi_high, out=h)
    weight = np.multiply(xs, nu, out=a_term)
    np.divide(weight, span, out=weight)
    np.multiply(weight, h, out=h)
    np.subtract(one, h, out=h)
    return np.divide(h, np.subtract(one, xs, out=b_term), out=h)


def curve_value(p: RatioParams, xi: float) -> float:
    """Scalar profit-miss ratio with the endpoint guard at xi = 1."""
    if xi >= 1.0:
        if p.kappa < 1.0:
            raise ValueError("xi = 1 lies outside the window")
        xi = 1.0 - 1e-12
    return float(_curve_array(p, np.array([xi], dtype=LD))[0])


def h_value(p: RatioParams, xi: float) -> float:
    return curve_value(p, xi) * (1.0 - xi)


def derivative_cap(p: RatioParams) -> float:
    """Uniform bound on the curve slope used as the grid safety margin."""
    if p.kappa >= 1.0:
        raise ValueError("the slope bound 32/(1 - kappa) is infinite at kappa = 1")
    return 32.0 / (1.0 - p.kappa)


def fixed_threshold_terms(delta: float, kappa: float) -> tuple[float, float, float]:
    """The three closed-form ratio terms for one fixed threshold pair."""
    return (
        (7.0 - 2.0 * delta - 2.0 * kappa) / (3.0 - delta),
        (3.0 - delta) / (3.0 - delta - kappa),
        1.0 / (1.0 - delta),
    )


def _grid_count(p: RatioParams, step: float) -> int:
    return int(math.floor(p.span / step)) + 1


def _check_sweep_args(step: float, jobs: int) -> None:
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")


def _grid(p: RatioParams, step: float, lo: int, hi: int, dtype=LD) -> np.ndarray:
    """Grid points lo..hi-1 of the sweep in dtype, one-sided at xi = 1."""
    return _grid_at(p, step, np.arange(lo, hi, dtype=np.int64), dtype)


def _grid_at(p: RatioParams, step: float, idx: np.ndarray, dtype=LD) -> np.ndarray:
    """The grid points of the int64 indices idx in dtype, as ``_grid`` computes them."""
    xs = dtype(p.kappa0) + idx.astype(dtype) * dtype(step)
    top_x = dtype(p.kappa) if p.kappa < 1.0 else dtype(1.0) - dtype(1e-12)
    return np.minimum(xs, top_x)


def _segment_bounds(
    p: RatioParams, step: float, starts: np.ndarray, size: int
) -> tuple[np.ndarray, float]:
    """Float64 bound per segment of size grid points at starts, and max(f - m) over the starts.

    A segment runs from its start x_a to the next start x_c, the grid point
    size further on.  Its bound is the larger of (f (1 - x_a) + 2 FILTER_BOUND)
    / (1 - x) at x = x_a and x = x_c, rounded up, with f the float64 value at
    x_a; a segment of one point is bounded by f + m.
    """
    xs = _grid_at(p, step, starts, np.float64)
    vals = _curve_array(p, xs, np.float64)
    gaps = np.subtract(1.0, xs, out=xs)
    margin = FILTER_BOUND / gaps
    lower = np.fmax.reduce(vals - margin)  # NaN only if every value is
    if size == 1:
        return np.add(vals, margin, out=margin), lower
    h = np.multiply(vals, gaps, out=vals)
    np.add(h, 2.0 * FILTER_BOUND, out=h)
    ends = np.subtract(1.0, _grid_at(p, step, starts + size, np.float64))
    bounds = np.maximum(np.divide(h, gaps, out=margin), np.divide(h, ends, out=ends), out=h)
    return np.nextafter(bounds, np.inf, out=bounds), lower


def _sub_block_bounds(
    p: RatioParams, step: float, ranges: list[tuple[int, int]]
) -> tuple[list[np.ndarray], float]:
    """The bound of every SUB-point sub-block of each chunk in ranges, and max(f - m) over them.

    The sub-block starts of all the chunks are bounded FILTER_SLICE at a
    time, so each start is evaluated once, and the lower bound they give
    holds for the whole grid.
    """
    starts = [np.arange(lo, hi, SUB, dtype=np.int64) for lo, hi in ranges]
    flat = np.concatenate(starts)
    bounds = np.empty(len(flat))
    lower = -np.inf
    for i in range(0, len(flat), FILTER_SLICE):
        bounds[i:i + FILTER_SLICE], top = _segment_bounds(p, step, flat[i:i + FILTER_SLICE], SUB)
        lower = np.fmax(lower, top)
    return np.split(bounds, np.cumsum([len(s) for s in starts[:-1]])), float(lower)


def _refine(
    p: RatioParams, step: float, lo: int, hi: int, starts: np.ndarray, bounds: np.ndarray,
    size: int, lower: float, uppers: np.ndarray,
) -> float:
    """Prune the segments at starts against lower, split the live ones, return the raised lower bound.

    A segment whose bound lies below the lower bound, and every single point,
    raises the upper bound of its block in uppers to its bound; any other
    segment (NaN included) is split into FANOUT segments, FILTER_SLICE points
    at a time, whose bounds and values raise the lower bound in turn.
    """
    live = ~(bounds < lower) & (size > 1)
    np.maximum.at(uppers, (starts[~live] - lo) // BLOCK, bounds[~live])
    parents, part = starts[live], size // FANOUT
    for i in range(0, len(parents), FILTER_SLICE // FANOUT):
        children = np.add.outer(parents[i:i + FILTER_SLICE // FANOUT], np.arange(0, size, part))
        children = children[children < hi]
        child_bounds, top = _segment_bounds(p, step, children, part)
        lower = _refine(p, step, lo, hi, children, child_bounds, part, np.fmax(lower, top), uppers)
    return lower


def _filter_chunk(args) -> tuple[float, np.ndarray]:
    """One chunk's lower bound on the grid maximum and an upper bound per block.

    args ends with the bounds of the chunk's sub-blocks and the lower bound
    to start from, as ``_sub_block_bounds`` gives them.  Each sub-block whose
    bound reaches the lower bound is split down to single points (see the
    module docstring); if none does, the chunk makes no float64 evaluation.
    A block's upper bound is the largest bound of the pruned segments and
    single points it holds, so NaN in any of them stays NaN.
    """
    k0, k, b, step, lo, hi, bounds, lower = args
    p = RatioParams(k0, k, b)
    uppers = np.full(-(-(hi - lo) // BLOCK), -np.inf)
    starts = np.arange(lo, hi, SUB, dtype=np.int64)
    # NaN values need no warning: their blocks go to the longdouble pass, whose check raises
    with np.errstate(invalid="ignore"):
        lower = _refine(p, step, lo, hi, starts, bounds, SUB, lower, uppers)
    return float(lower), uppers


def _exact_block(p: RatioParams, step: float, lo: int, hi: int) -> tuple[np.longdouble, np.longdouble]:
    """First longdouble maximum on grid points lo..hi-1, after checking the filter bound."""
    xs = _grid(p, step, lo, hi)
    vals = _curve_array(p, xs)
    approx = _curve_array(p, _grid(p, step, lo, hi, np.float64), np.float64)
    scaled = np.abs(approx.astype(LD) - vals) * (LD(1.0) - xs)
    broken = ~(scaled <= FILTER_BOUND)
    if broken.any():
        i = int(np.argmax(broken))
        raise FilterBoundError(
            f"float64 curve value {approx[i]!r} against longdouble {float(vals[i])!r} at xi"
            f" {float(xs[i])!r}: error times (1 - xi) is {float(scaled[i])!r},"
            f" above the filter bound {FILTER_BOUND!r}"
        )
    top = int(np.argmax(vals))
    return vals[top], xs[top]


def sweep_curve(
    p: RatioParams, step: float, jobs: int = 1, chunk: int = 1 << 20
) -> tuple[float, float]:
    """Grid maximum of the profit-miss ratio with the argmax, smallest-xi ties.

    The result equals a longdouble evaluation of every grid point reduced per
    chunk and across chunks, keeping the first maximum in xi order each time.
    The sub-blocks of the whole grid are bounded first, and each chunk is
    refined by ``_filter_chunk`` from their lower bound, serially or in the
    pool alike.  Blocks whose upper bound lies below the largest chunk lower
    bound hold no point whose longdouble value reaches the maximum, so they
    are skipped.  ``multiprocessing`` is imported only when
    ``jobs > 1``, for the pool that filters the chunks.
    """
    _check_sweep_args(step, jobs)
    count = _grid_count(p, step)
    ranges = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    with np.errstate(invalid="ignore"):  # NaN bounds are kept live, as in _filter_chunk
        sub_bounds, lower = _sub_block_bounds(p, step, ranges)
    args = [
        (p.kappa0, p.kappa, p.beta, step, lo, hi, bounds, lower)
        for (lo, hi), bounds in zip(ranges, sub_bounds)
    ]
    if jobs > 1 and len(ranges) > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(min(jobs, len(ranges))) as pool:
            filtered = pool.map(_filter_chunk, args)
    else:
        filtered = [_filter_chunk(a) for a in args]
    floor = -math.inf
    for lower, _ in filtered:
        floor = float(np.fmax(floor, lower))
    results = []
    for (lo, hi), (_, uppers) in zip(ranges, filtered):
        best = None
        for j in np.flatnonzero(~(uppers < floor)):
            block_lo = lo + int(j) * BLOCK
            val, arg = _exact_block(p, step, block_lo, min(block_lo + BLOCK, hi))
            if best is None or val > best[0]:
                best = (val, arg)
        if best is not None:
            results.append((float(best[0]), float(best[1])))
    best_val, best_arg = results[0]
    for val, arg in results[1:]:
        if val > best_val:
            best_val, best_arg = val, arg
    end_val = curve_value(p, p.kappa) if p.kappa < 1.0 else curve_value(p, 1.0)
    if end_val > best_val:
        best_val, best_arg = end_val, p.kappa
    return best_val, best_arg


@dataclass(frozen=True)
class AlphaComponents:
    length_term: float
    skip_term: float
    curve_max: float
    curve_argmax: float

    @property
    def alpha(self) -> float:
        return max(self.length_term, self.skip_term, self.curve_max)


def alpha_components(p: RatioParams, step: float = 1e-6, jobs: int = 1) -> AlphaComponents:
    """The three terms whose maximum bounds the approximation ratio."""
    curve_max, curve_arg = sweep_curve(p, step, jobs=jobs)
    return AlphaComponents(length_factor(p), skip_factor(p), curve_max, curve_arg)


@dataclass(frozen=True)
class BoundCertificate:
    step: float
    grid_max: float
    argmax: float
    slack: float
    certified: float
    conclusive: bool
    points: int

    def as_lines(self) -> list[str]:
        return [
            f"step={self.step!r}",
            f"points={self.points}",
            f"grid_max={self.grid_max:.10f}",
            f"argmax={self.argmax:.10f}",
            f"slack={self.slack:.10f}",
            f"certified={self.certified:.10f}",
            f"conclusive={int(self.conclusive)}",
        ]


def verify_bound(p: RatioParams, step: float, jobs: int = 1) -> BoundCertificate:
    """Grid sweep plus Lipschitz slack; conclusive when the total stays below 1.6."""
    _check_sweep_args(step, jobs)
    slack = derivative_cap(p) * step
    if step >= p.span:
        vals = [(curve_value(p, p.kappa0), p.kappa0), (curve_value(p, p.kappa), p.kappa)]
        grid_max, argmax = max(vals, key=lambda t: (t[0], -t[1]))
        points = 2
    else:
        grid_max, argmax = sweep_curve(p, step, jobs=jobs)
        points = _grid_count(p, step) + 1
    certified = grid_max + slack
    return BoundCertificate(
        step=step,
        grid_max=grid_max,
        argmax=argmax,
        slack=slack,
        certified=certified,
        conclusive=certified < CERT_TARGET,
        points=points,
    )

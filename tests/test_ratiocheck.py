import math
import multiprocessing
import random
import re

import mpmath
import numpy as np
import pytest

from pcrpp import ratiocheck
from pcrpp.ratiocheck import (
    FILTER_BOUND,
    LD,
    FilterBoundError,
    RatioParams,
    _curve_array,
    _grid,
    _grid_count,
    alpha_components,
    curve_value,
    density,
    derivative_cap,
    h_value,
    length_factor,
    phi,
    skip_factor,
    sweep_curve,
    fixed_threshold_terms,
    verify_bound,
)

PAPER = RatioParams()


def test_param_validation():
    with pytest.raises(ValueError):
        RatioParams(0.5, 0.4, 1.0)
    with pytest.raises(ValueError):
        RatioParams(0.1, 0.9, -1.0)


@pytest.mark.parametrize("field", ["kappa0", "kappa", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_param_validation_rejects_non_finite(field, value):
    kwargs = {"kappa0": 0.2, "kappa": 0.8, "beta": 1.5, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RatioParams(**kwargs)


def test_degenerate_normalization_raises():
    # span^(beta + 1) underflows to zero, so nu has no finite value
    with pytest.raises(ValueError, match="normalization is not positive"):
        RatioParams(0.5, 0.5 + 1e-9, 1000.0).nu


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_verify_bound_rejects_bad_step(step):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        verify_bound(PAPER, step)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        sweep_curve(PAPER, step)


def test_verify_bound_rejects_kappa_one():
    # the slope bound 32/(1 - kappa) has no finite value at kappa = 1
    with pytest.raises(ValueError, match="infinite at kappa = 1"):
        verify_bound(RatioParams(0.38, 1.0, 2.0), 1e-4)


def test_length_factor_below_reported_bound():
    assert length_factor(PAPER) < 1.59862255


def test_skip_factor_below_reported_bound():
    assert skip_factor(PAPER) < 1.57780982


def test_curve_grid_maximum_location():
    comp = alpha_components(PAPER, step=1e-6)
    assert comp.curve_max == pytest.approx(1.59862256, abs=2e-6)
    assert abs(comp.curve_argmax - 0.94817979) < 1e-3
    assert comp.alpha < 1.6


def test_golden_ratio_identity():
    delta = (3.0 - math.sqrt(5.0)) / 2.0
    gold = (1.0 + math.sqrt(5.0)) / 2.0
    for term in fixed_threshold_terms(delta, 1.0):
        assert abs(term - gold) <= 1e-12


def test_h_at_upper_end_is_one_minus_kappa():
    assert abs(h_value(PAPER, PAPER.kappa) - (1.0 - PAPER.kappa)) <= 1e-12
    other = RatioParams(0.2, 0.8, 1.5)
    assert abs(h_value(other, other.kappa) - (1.0 - other.kappa)) <= 1e-12


def test_density_normalizes():
    mpmath.mp.dps = 40
    val = mpmath.quad(
        lambda d: density(PAPER, float(d)), [PAPER.kappa0, PAPER.kappa]
    )
    assert abs(float(val) - 1.0) <= 1e-12


def test_density_is_zero_outside_the_window():
    assert density(PAPER, PAPER.kappa0 - 1e-3) == 0.0
    assert density(PAPER, PAPER.kappa + 1e-3) == 0.0


def test_nu_matches_integral_identity():
    # nu is one over the integral of (3 - d) (kappa - d)^beta over the window
    mpmath.mp.dps = 40
    k0, k, b = (mpmath.mpf(repr(v)) for v in (PAPER.kappa0, PAPER.kappa, PAPER.beta))
    val = mpmath.quad(lambda d: (3 - d) * (k - d) ** b, [k0, k])
    assert abs(PAPER.nu - float(1 / val)) <= 1e-12 * PAPER.nu


def test_phi_concavity_sampled():
    rng = random.Random(13)
    k0, k = PAPER.kappa0, PAPER.kappa
    for _ in range(1000):
        xi = rng.uniform(k0, k)
        d = rng.uniform(k0, k)
        lam = (k - d) / (k - k0)
        chord = lam * phi(PAPER, xi, k0) + (1.0 - lam) * phi(PAPER, xi, k)
        assert phi(PAPER, xi, d) >= chord - 1e-12


def test_curve_finite_differences_bounded():
    cap = derivative_cap(PAPER)
    rng = random.Random(17)
    for _ in range(300):
        step = 10 ** rng.uniform(-6, -3)
        xi = rng.uniform(PAPER.kappa0, PAPER.kappa - step)
        diff = (curve_value(PAPER, xi + step) - curve_value(PAPER, xi)) / step
        assert abs(diff) <= cap


def test_interval_constants_sampled():
    # the constants inside the slope bound, checked by sampling the window
    k0, k, b = PAPER.kappa0, PAPER.kappa, PAPER.beta
    span = k - k0
    assert 0.63 < span < 0.631
    xs = [k0 + i * (span / 2000.0) for i in range(2001)]
    for xi in xs:
        t = k - xi
        assert abs(phi(PAPER, xi, k0) - phi(PAPER, xi, k)) < 4.65
        assert 0.0 <= phi(PAPER, xi, k) < 2.01
        assert 0.0 <= (span ** (b + 2) - t ** (b + 2)) / (b + 2) < 0.07
        assert 0.0 <= t ** (b + 1) < 0.399
        assert 0.0 <= (span ** (b + 1) - t ** (b + 1)) / (b + 1) < 0.138
        assert 0.0 <= t ** b < 0.631
    # slope of the two kernel endpoints, by central differences
    for xi in xs[1:-1]:
        h = span / 20000.0
        d_diff = (
            (phi(PAPER, xi + h, k0) - phi(PAPER, xi + h, k))
            - (phi(PAPER, xi - h, k0) - phi(PAPER, xi - h, k))
        ) / (2 * h)
        assert abs(d_diff) < 4.0
        d_hi = (phi(PAPER, xi + h, k) - phi(PAPER, xi - h, k)) / (2 * h)
        assert 0.0 <= d_hi < 2.0


def _curve_mpmath(p: RatioParams, xi):
    mpmath.mp.dps = 50
    k0, k, b = mpmath.mpf(repr(p.kappa0)), mpmath.mpf(repr(p.kappa)), mpmath.mpf(repr(p.beta))
    x = mpmath.mpf(repr(xi))
    span = k - k0
    nu = 1 / ((3 - k) * span ** (b + 1) / (b + 1) + span ** (b + 2) / (b + 2))
    t = k - x

    def kernel(d):
        return (3 - d - k) * (3 - d) / (3 - d - x)

    a_term = (span ** (b + 2) - t ** (b + 2)) / (b + 2)
    b_term = span * (span ** (b + 1) - t ** (b + 1)) / (b + 1)
    h = 1 - (x * nu / span) * ((kernel(k0) - kernel(k)) * a_term + kernel(k) * b_term)
    return float(h / (1 - x))


def test_roundoff_budget_against_mpmath():
    # the sweep arithmetic agrees with 50-digit decimals far below 1e-9
    rng = random.Random(19)
    worst = 0.0
    for _ in range(20):
        xi = rng.uniform(PAPER.kappa0, PAPER.kappa - 1e-6)
        worst = max(worst, abs(curve_value(PAPER, xi) - _curve_mpmath(PAPER, xi)))
    assert worst <= 1e-12


def test_verify_bound_coarse_is_inconclusive():
    cert = verify_bound(PAPER, 1e-2)
    assert cert.slack == pytest.approx(32.0 / (1.0 - PAPER.kappa) * 1e-2)
    assert cert.certified > 1.6
    assert not cert.conclusive


def test_verify_bound_degenerate_step_uses_endpoints():
    cert = verify_bound(PAPER, 1.0)
    assert cert.points == 2
    assert cert.grid_max == pytest.approx(
        max(curve_value(PAPER, PAPER.kappa0), curve_value(PAPER, PAPER.kappa))
    )
    assert not cert.conclusive


def test_verify_bound_fine_is_conclusive():
    cert = verify_bound(PAPER, 1e-7)
    assert cert.conclusive
    assert cert.certified < 1.6
    assert abs(cert.argmax - 0.94817979) < 1e-4


@pytest.mark.parametrize("step, grid_max, argmax, certified, points", [
    (1e-7, 1.598622558152412, 0.94817975, 1.5996173603111328, 6_305_734),
    (1e-8, 1.5986225581524323, 0.94817979, 1.5987220383683043, 63_057_325),
])
def test_paper_certificates_are_pinned(step, grid_max, argmax, certified, points):
    cert = verify_bound(PAPER, step)
    assert (cert.grid_max, cert.argmax, cert.certified, cert.points) == (
        grid_max, argmax, certified, points
    )
    assert cert.conclusive


def test_curve_value_at_one_needs_a_window_ending_at_one():
    with pytest.raises(ValueError, match="outside the window"):
        curve_value(PAPER, 1.0)


def test_window_ending_at_one_stays_finite():
    # at kappa = 1 the curve has a removable point at xi = 1 (h vanishes);
    # the sweep must evaluate one-sided instead of dividing by zero
    p = RatioParams(0.38, 1.0, 2.0)
    top, arg = sweep_curve(p, 1e-4)
    assert math.isfinite(top)
    assert math.isfinite(curve_value(p, 1.0))


def test_sweep_parallel_matches_serial():
    serial = sweep_curve(PAPER, 1e-5, jobs=1, chunk=1 << 14)
    parallel = sweep_curve(PAPER, 1e-5, jobs=2, chunk=1 << 14)
    assert serial == parallel


def _sweep_oracle(p: RatioParams, step: float, chunk: int = 1 << 20) -> tuple[float, float]:
    """The sweep evaluated in longdouble at every grid point, chunk by chunk."""
    count = _grid_count(p, step)
    top_x = LD(p.kappa) if p.kappa < 1.0 else LD(1.0) - LD(1e-12)
    results = []
    for lo in range(0, count, chunk):
        idx = np.arange(lo, min(lo + chunk, count), dtype=np.int64)
        xs = np.minimum(LD(p.kappa0) + idx.astype(LD) * LD(step), top_x)
        vals = ratiocheck._curve_array(p, xs)
        top = int(np.argmax(vals))
        results.append((float(vals[top]), float(xs[top])))
    best_val, best_arg = results[0]
    for val, arg in results[1:]:
        if val > best_val or (val == best_val and arg < best_arg):
            best_val, best_arg = val, arg
    end_val = curve_value(p, p.kappa) if p.kappa < 1.0 else curve_value(p, 1.0)
    if end_val > best_val:
        best_val, best_arg = end_val, p.kappa
    return best_val, best_arg


def _grid_index(p: RatioParams, step: float, xi: float) -> int:
    i = int(round((xi - p.kappa0) / step))
    assert float(_grid(p, step, i, i + 1)[0]) == xi
    return i


def _seeded_windows():
    rng = random.Random(23)
    seeded = []
    for _ in range(12):
        k0 = rng.uniform(0.0, 0.5)
        k = 1.0 if rng.random() < 0.25 else rng.uniform(k0 + 0.2, 0.999)
        p = RatioParams(k0, k, rng.uniform(0.3, 3.0))
        step = 10 ** rng.uniform(-5.5, -4.0)
        seeded.append((p, step, 1 << rng.randint(10, 20), rng.choice((1, 2))))
    return seeded


def _oracle_cases():
    fixed = [
        (PAPER, 1e-5, 1 << 10, 1),
        (PAPER, 1e-5, 1 << 20, 1),
        (PAPER, 1e-6, 1 << 16, 1),
        (PAPER, 1e-6, 1 << 17, 2),
        (PAPER, 3e-6, 4095, 1),
        (PAPER, 3e-6, 4097, 2),
        (PAPER, PAPER.span / (4096 * 50), 3 * 4096 + 1, 1),
        (RatioParams(0.38, 1.0, 2.0), 1e-5, 1 << 12, 1),
        (RatioParams(0.38, 1.0, 2.0), 1e-5, 1 << 20, 2),
        (RatioParams(0.1, 1.0, 0.5), 2e-5, 5000, 1),
        (RatioParams(0.2, 0.8, 0.5), 1e-5, 1 << 14, 1),
        (RatioParams(0.3, 0.95, 0.25), 1e-5, 1 << 11, 2),
    ]
    return fixed + _seeded_windows()


@pytest.mark.parametrize("p, step, chunk, jobs", _oracle_cases())
def test_sweep_matches_longdouble_oracle(p, step, chunk, jobs, monkeypatch):
    want = _sweep_oracle(p, step, chunk)
    assert sweep_curve(p, step, jobs=jobs, chunk=chunk) == want
    if p.kappa < 1.0:
        got = verify_bound(p, step, jobs=jobs)
        monkeypatch.setattr(ratiocheck, "sweep_curve", lambda p, step, jobs: _sweep_oracle(p, step))
        assert got == verify_bound(p, step, jobs=jobs)


@pytest.mark.parametrize("p", [PAPER, RatioParams(0.1, 1.0, 0.5), RatioParams(0.2, 0.8, 0.5)])
def test_sweep_matches_oracle_with_maximum_on_block_edges(p):
    # chunk boundaries put the oracle maximum first or last in a block
    step = 1e-5
    _, arg = _sweep_oracle(p, step)
    i = _grid_index(p, step, arg)
    for chunk in (i, i + 1, i - 4096 + 1):
        assert sweep_curve(p, step, chunk=chunk) == _sweep_oracle(p, step, chunk)


@pytest.mark.parametrize("chunk", [1 << 10, 8192, 3 * 4096 + 5, 1 << 20])
def test_sweep_plateau_keeps_first_maximum(chunk, monkeypatch):
    # a flat curve ties every point: the first maximum of each chunk, then the
    # smallest xi across chunks, so kappa0
    monkeypatch.setattr(ratiocheck, "_curve_array", lambda p, xs, dtype=LD: np.ones(len(xs), dtype))
    want = _sweep_oracle(PAPER, 1e-5, chunk)
    assert want == (1.0, PAPER.kappa0)
    assert sweep_curve(PAPER, 1e-5, chunk=chunk) == want


def test_sweep_later_chunk_beats_an_earlier_maximum(monkeypatch):
    # c = 1 up to a chunk edge and 1 + 1e-13 from it keeps h = c (1 - xi)
    # nonincreasing; the first chunk's maximum survives the filter and the
    # second chunk's larger one replaces it
    step, chunk = 1e-5, 3 * 4096
    edge = PAPER.kappa0 + (chunk - 0.5) * step
    monkeypatch.setattr(
        ratiocheck,
        "_curve_array",
        lambda p, xs, dtype=LD: np.where(xs > edge, dtype(1.0 + 1e-13), dtype(1.0)),
    )
    want = _sweep_oracle(PAPER, step, chunk)
    assert want == (1.0 + 1e-13, float(_grid(PAPER, step, chunk, chunk + 1)[0]))
    assert sweep_curve(PAPER, step, chunk=chunk) == want


def _filter(p: RatioParams, step: float, lo: int, hi: int) -> tuple[float, np.ndarray]:
    """``_filter_chunk`` on the chunk lo..hi-1, from its own sub-block bounds and -inf."""
    [bounds], _ = ratiocheck._sub_block_bounds(p, step, [(lo, hi)])
    return ratiocheck._filter_chunk((p.kappa0, p.kappa, p.beta, step, lo, hi, bounds, -np.inf))


@pytest.mark.parametrize("p", [PAPER, RatioParams(0.1, 1.0, 0.5), RatioParams(0.3, 0.95, 0.25)])
def test_filter_brackets_longdouble_values(p):
    # the chunk's lower bound is at most its longdouble maximum, and each
    # block's upper bound at least every longdouble value of the block
    step = 1e-5
    count = _grid_count(p, step)
    for lo in range(0, count, 1 << 14):
        hi = min(lo + (1 << 14), count)
        lower, uppers = _filter(p, step, lo, hi)
        exact = _curve_array(p, _grid(p, step, lo, hi))
        assert lower <= exact.max()
        assert len(uppers) == -(-(hi - lo) // ratiocheck.BLOCK)
        for j, upper in enumerate(uppers):
            block = exact[j * ratiocheck.BLOCK:(j + 1) * ratiocheck.BLOCK]
            assert upper >= block.max()


_BOUND_CASES = [
    (PAPER, 1e-5, 1 << 20),  # one chunk ending in a partial sub-block
    (PAPER, 3e-6, 3 * 4096 + 5),  # chunk edges off the sub-block grid
    (PAPER, 1e-5, 1000),  # every chunk shorter than a sub-block
    (RatioParams(0.38, 1.0, 2.0), 1e-5, 1 << 20),  # kappa = 1: the top point is clamped
    (RatioParams(0.1, 1.0, 0.5), 2e-5, 5000),
] + [(p, step, chunk) for p, step, chunk, _ in _seeded_windows()]


def _levels():
    """The segment sizes of the filter, from SUB down to single points."""
    size = ratiocheck.SUB
    while size >= 1:
        yield size
        size //= ratiocheck.FANOUT


@pytest.mark.parametrize("p, step, chunk", _BOUND_CASES)
def test_sub_block_bounds_cover_longdouble_values(p, step, chunk):
    # at every level each segment's bound is at least every longdouble value
    # in it, and each lower bound, the chunk's included, at most the chunk's
    # longdouble maximum
    count = _grid_count(p, step)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        exact = _curve_array(p, _grid(p, step, lo, hi))
        for size in _levels():
            starts = np.arange(lo, hi, size, dtype=np.int64)
            bounds, lower = ratiocheck._segment_bounds(p, step, starts, size)
            assert np.all(bounds >= np.maximum.reduceat(exact, starts - lo))
            assert lower <= exact.max()
        lower, _ = _filter(p, step, lo, hi)
        assert lower <= exact.max()


@pytest.mark.parametrize("p, step, chunk", _BOUND_CASES)
def test_grid_lower_bound_brackets_longdouble_values(p, step, chunk):
    # the lower bound from the sub-blocks of the whole grid is at most the
    # grid's longdouble maximum, and a chunk refined from it still bounds
    # every longdouble value of each block from above
    count = _grid_count(p, step)
    ranges = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    sub_bounds, lower = ratiocheck._sub_block_bounds(p, step, ranges)
    exact = _curve_array(p, _grid(p, step, 0, count))
    assert lower <= exact.max()
    for (lo, hi), bounds in zip(ranges, sub_bounds):
        assert len(bounds) == -(-(hi - lo) // ratiocheck.SUB)
        args = (p.kappa0, p.kappa, p.beta, step, lo, hi, bounds, lower)
        _, uppers = ratiocheck._filter_chunk(args)
        block_max = np.maximum.reduceat(exact[lo:hi], np.arange(0, hi - lo, ratiocheck.BLOCK))
        assert np.all(uppers >= block_max)


def test_sweep_bounds_each_sub_block_once_and_refines_only_live_chunks(monkeypatch):
    # the sub-blocks of the whole grid are bounded first, each start once and
    # at most FILTER_SLICE per call; every smaller segment lies in a chunk
    # that holds a sub-block bound not below the grid-wide lower bound, and
    # chunks without one make no further call
    step, chunk = 1e-6, 1 << 16
    count = _grid_count(PAPER, step)
    real_bounds = ratiocheck._segment_bounds
    calls = []

    def recording(p, step, starts, size):
        bounds, lower = real_bounds(p, step, starts, size)
        calls.append((starts.copy(), size, bounds, lower))
        return bounds, lower

    monkeypatch.setattr(ratiocheck, "_segment_bounds", recording)
    assert sweep_curve(PAPER, step, chunk=chunk) == _sweep_oracle(PAPER, step, chunk)
    sub_calls = [c for c in calls if c[1] == ratiocheck.SUB]
    assert all(len(starts) <= ratiocheck.FILTER_SLICE for starts, *_ in sub_calls)
    starts = np.concatenate([c[0] for c in sub_calls])
    ranges = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    want = np.concatenate([np.arange(lo, hi, ratiocheck.SUB) for lo, hi in ranges])
    assert starts.tolist() == want.tolist()
    lower = max(c[3] for c in sub_calls)
    bounds = np.concatenate([c[2] for c in sub_calls])
    live_chunks = set((starts[~(bounds < lower)] // chunk).tolist())
    refined = set()
    for seg_starts, size, *_ in calls[len(sub_calls):]:
        assert size < ratiocheck.SUB
        assert seg_starts[0] // chunk == seg_starts[-1] // chunk
        refined.add(int(seg_starts[0]) // chunk)
    assert refined == live_chunks
    assert 0 < len(live_chunks) < -(-count // chunk)


def test_h_nonincreasing_along_the_grid():
    # the segment bounds rest on h = c (1 - xi) being nonincreasing on the window
    rng = random.Random(29)
    worst = -math.inf
    for _ in range(200):
        k0 = rng.uniform(0.0, 0.5)
        k = 1.0 if rng.random() < 0.25 else rng.uniform(k0 + 0.2, 0.999)
        p = RatioParams(k0, k, rng.uniform(0.3, 3.0))
        step = p.span / rng.randint(500, 2000)
        xs = _grid(p, step, 0, _grid_count(p, step))
        h = _curve_array(p, xs) * (LD(1.0) - xs)
        worst = max(worst, np.diff(h).max())
    assert worst <= 0.0


def test_nan_at_a_sub_block_start_keeps_it_live_and_raises(monkeypatch):
    # a NaN float64 value at a segment start far below the maximum makes that
    # segment's bound NaN at every level, so it is split down to the single
    # point; its block's upper bound is NaN, and the block evaluated again
    # must raise
    step = 1e-5
    count = _grid_count(PAPER, step)
    i = 2 * ratiocheck.BLOCK + 3 * ratiocheck.SUB
    target = _grid(PAPER, step, i, i + 1, np.float64)[0]
    real = ratiocheck._curve_array

    def corrupted(p, xs, dtype=LD):
        vals = real(p, xs, dtype)
        return np.where(xs == target, np.nan, vals) if dtype is np.float64 else vals

    real_bounds = ratiocheck._segment_bounds
    nan_starts = {}

    def recording(p, step, starts, size):
        bounds, lower = real_bounds(p, step, starts, size)
        nan_starts.setdefault(size, []).extend(starts[np.isnan(bounds)].tolist())
        return bounds, lower

    monkeypatch.setattr(ratiocheck, "_curve_array", corrupted)
    monkeypatch.setattr(ratiocheck, "_segment_bounds", recording)
    [bounds], lower = ratiocheck._sub_block_bounds(PAPER, step, [(0, count)])
    args = (PAPER.kappa0, PAPER.kappa, PAPER.beta, step, 0, count, bounds, lower)
    _, uppers = ratiocheck._filter_chunk(args)
    assert nan_starts == {size: [i] for size in _levels()}
    assert np.flatnonzero(np.isnan(uppers)).tolist() == [i // ratiocheck.BLOCK]
    xi = float(_grid(PAPER, step, i, i + 1)[0])
    with pytest.raises(FilterBoundError, match=re.escape(f"at xi {xi!r}:")):
        verify_bound(PAPER, step)


@pytest.mark.parametrize("p", [
    PAPER,
    RatioParams(0.38, 1.0, 2.0),
    RatioParams(0.2, 0.8, 1.5),
    RatioParams(0.1, 0.9, 0.5),
    RatioParams(0.0, 0.999, 3.0),
])
def test_float64_error_within_filter_bound(p):
    # the whole grid at 1e-6: the float64 filter against longdouble, scaled by 1 - xi
    step = 1e-6
    count = _grid_count(p, step)
    worst = LD(0.0)
    for lo in range(0, count, 1 << 18):
        hi = min(lo + (1 << 18), count)
        xs = _grid(p, step, lo, hi)
        approx = _curve_array(p, _grid(p, step, lo, hi, np.float64), np.float64)
        err = np.abs(approx.astype(LD) - _curve_array(p, xs)) * (LD(1.0) - xs)
        worst = max(worst, err.max())
    assert worst <= FILTER_BOUND / 64


@pytest.mark.parametrize("where, delta", [("max", 1e-6), ("max", -1e-6), ("low", math.nan)])
def test_wrong_float64_value_trips_filter_check(where, delta, monkeypatch):
    # a float64 value off by more than the bound at the maximum, or a NaN far
    # from it at a sub-block start, where the sweep evaluates it in every
    # dtype, lies in a block evaluated again and must raise, naming xi
    step = 1e-5
    _, arg = _sweep_oracle(PAPER, step)
    i = _grid_index(PAPER, step, arg) if where == "max" else 2 * ratiocheck.SUB
    xi = float(_grid(PAPER, step, i, i + 1)[0])
    targets = {dtype: _grid(PAPER, step, i, i + 1, dtype)[0] for dtype in (LD, np.float64)}
    real = ratiocheck._curve_array

    def corrupted(p, xs, dtype=LD):
        vals = real(p, xs, dtype)
        if dtype is np.float64 or where == "low":
            vals = np.where(xs == targets[dtype], vals + delta, vals)
        return vals

    monkeypatch.setattr(ratiocheck, "_curve_array", corrupted)
    with pytest.raises(FilterBoundError, match=re.escape(f"at xi {xi!r}:")):
        verify_bound(PAPER, step)


class _RecordingContext:
    """Stands in for a multiprocessing context: records pool sizes, starts no process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return [func(item) for item in items]


def test_sweep_pool_capped_at_chunk_count(monkeypatch):
    ctx = _RecordingContext()
    # sweep_curve imports get_context from multiprocessing when it builds a pool
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    count = _grid_count(PAPER, 1e-4)
    assert 4096 < count <= 2 * 4096
    got = sweep_curve(PAPER, 1e-4, jobs=64, chunk=4096)
    assert ctx.sizes == [2]
    assert got == sweep_curve(PAPER, 1e-4, jobs=2, chunk=4096) == _sweep_oracle(PAPER, 1e-4, 4096)
    assert ctx.sizes == [2, 2]
    sweep_curve(PAPER, 1e-4, jobs=64)  # one chunk: no pool
    assert ctx.sizes == [2, 2]


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        sweep_curve(PAPER, 1e-4, jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        verify_bound(PAPER, 1e-4, jobs=jobs)

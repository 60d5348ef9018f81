"""Magnitude of finite metric spaces and persistent magnitude of barcodes.

Magnitude solves zeta w = 1 for the similarity matrix zeta = exp(-d) and
returns sum(w); persistent magnitude is the signed exponentially
weighted interval count (-1)^i (e^-a - e^-b).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import SingularSimilarityError
from .filtration import vietoris_rips
from .persistence import Barcode, Interval, persistence
from .spaces import MetricView, scale_grid
from .spaces import rescale  # unused here; perfbench/tracer.py wraps it under this module

RESIDUAL_TOL = 1e-8


def _check_finite(metric: MetricView):
    # a MetricView holds no NaN or negative entry, so its maximum decides
    if metric.size and not np.isfinite(metric.dist.max()):
        raise ValueError("magnitude requires all distances finite")


@functools.cache
def _openblas_setters() -> tuple:
    """openblas_set_num_threads_local of every loaded library that has it, found once.

    Each shared object mapped into the process is asked for the symbol
    (dlsym also searches its dependencies), and each distinct function is
    kept once. MKL, Accelerate and OpenBLAS before 0.3.27 lack the symbol,
    and only Linux has /proc/self/maps; the tuple is then empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            lines = [line for line in fh if "/" in line and ".so" in line]
    except OSError:
        return ()
    setters = {}
    for path in sorted({line[line.find("/") :].rstrip("\n") for line in lines}):
        try:
            setter = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.setdefault(ctypes.cast(setter, ctypes.c_void_p).value, setter)
    return tuple(setters.values())


class _OneBlasThread:
    """Every loaded OpenBLAS at one thread while any magnitude curve solves.

    The setter is process-wide, so concurrent curves share one pin: the
    first to enter sets each library to one thread and keeps the count it
    returns, and the last to leave gives each library that count back.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._previous = ()

    def __enter__(self):
        with self._lock:
            if self._active == 0:
                self._previous = tuple((setter, setter(1)) for setter in _openblas_setters())
            self._active += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._active -= 1
            if self._active == 0:
                for setter, count in self._previous:
                    setter(count)


_ONE_BLAS_THREAD = _OneBlasThread()


# Rows of zeta per block when zeta @ w rebuilds zeta from the metric, so the
# scratch holds ROWS x n floats, not n x n. A multiple of 4: OpenBLAS's
# dgemv groups rows by 4, so a block that starts at a multiple of 4 gives
# the bits of the whole zeta @ w. A one-row block goes to ddot and can
# differ, so a one-row tail joins the block before it.
ROWS = 32


def _solve_curve(dist: np.ndarray, t_grid) -> list:
    """(magnitude, residual) of tX for each t; dist must be finite.

    A curve holds one Fortran-order n x n buffer, and a scratch of about
    ROWS rows, beside the metric whatever its length. The buffer is an
    anonymous mapping, resident only in the pages written (tracemalloc does
    not see it). Per t, zeta = exp(-t d) is written block by block into the
    buffer's C-order view, as the Fortran upper triangle and the diagonal
    blocks only: LAPACK's upper Cholesky and Bunch-Kaufman factorisations
    read and overwrite nothing else, so the pages below the diagonal blocks
    stay untouched. Each zeta @ w rebuilds zeta's blocks from the metric in
    the scratch. Cholesky is exact for Euclidean-embeddable metrics; where
    it fails (a shortest-path metric is often not of negative type), the
    same blocks are written again for Bunch-Kaufman. One iterative-refinement
    step either way. Every value has the bits of a solve on a whole C-order zeta.

    The t loop runs with every loaded OpenBLAS at one thread (numpy's for
    zeta @ w, scipy's for the factorisation and the solves), so values do
    not depend on the BLAS thread setting, and each library gets its count
    back afterwards. The setter is process-wide: BLAS calls from other
    threads also run at one thread meanwhile. On a many-core host large-n
    solves give up BLAS parallelism. Where no loaded library exports
    openblas_set_num_threads_local, the solves run at the library's own
    setting, and that setting can move values in the last bit.
    """
    n = dist.shape[0]
    if n == 0:
        return [(0.0, 0.0)] * len(t_grid)
    starts = list(range(0, max(n - 1, 1), ROWS))
    blocks = list(zip(starts, starts[1:] + [n]))
    ones = np.ones(n)
    factor = np.ndarray((n, n), order="F", buffer=_anonymous_mapping(8 * n * n))
    scratch = np.empty((max(hi - lo for lo, hi in blocks), n))
    results = []
    with _ONE_BLAS_THREAD:
        for t in t_grid:
            results.append(_solve_in_buffers(dist, t, blocks, factor, scratch, ones))
    return results


def _anonymous_mapping(size: int) -> mmap.mmap:
    """size zeroed bytes, resident only in the pages written; MemoryError if refused.

    numpy asks for huge pages for large arrays, resident 2 MB at a time.
    """
    try:
        buffer = mmap.mmap(-1, size)
    except OSError as exc:
        raise MemoryError(f"cannot map {size} bytes ({exc})") from exc
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        with contextlib.suppress(OSError):  # a kernel without huge pages refuses the advice
            buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return buffer


def _zeta_into(dist_rows, t, out):
    """exp(-t d) of the given rows of the metric, written into out; returns out."""
    np.multiply(dist_rows, -t, out=out)
    return np.exp(out, out=out)


def _zeta_times(dist, t, blocks, scratch, w):
    """zeta @ w, each block of zeta rebuilt from dist into scratch."""
    product = np.empty(len(dist))
    for lo, hi in blocks:
        np.matmul(_zeta_into(dist[lo:hi], t, scratch[: hi - lo]), w, out=product[lo:hi])
    return product


def _solve_in_buffers(dist, t, blocks, factor, scratch, ones):
    """Solve zeta w = 1 at scale t in the buffers; returns (sum(w), residual).

    Where Cholesky fails, zeta is written again (dpotrf overwrote part of
    it) and factored in place by Bunch-Kaufman, at dsytrf's blocked lwork.
    """
    zeta = factor.T  # C-order view of the Fortran-order buffer
    for lo, hi in blocks:  # row i of the view is column i of the Fortran upper triangle
        _zeta_into(dist[lo:hi, :hi], t, zeta[lo:hi, :hi])
    factor, info = lapack.dpotrf(factor, lower=0, overwrite_a=1, clean=0)
    solve = functools.partial(lapack.dpotrs, factor)
    if info:
        for lo, hi in blocks:
            _zeta_into(dist[lo:hi, :hi], t, zeta[lo:hi, :hi])
        lwork = int(lapack.dsytrf_lwork(len(dist), lower=0)[0])
        factor, pivots, _ = lapack.dsytrf(factor, lower=0, lwork=lwork, overwrite_a=1)
        solve = functools.partial(lapack.dsytrs, factor, pivots)
    w = solve(ones)[0]
    w = w + solve(ones - _zeta_times(dist, t, blocks, scratch, w))[0]
    if not np.all(np.isfinite(w)):  # a singular zeta: dsytrs divides by a zero pivot
        return math.nan, math.inf
    residual = float(np.max(np.abs(_zeta_times(dist, t, blocks, scratch, w) - ones)))
    return float(w.sum()), residual


def magnitude(metric: MetricView) -> float:
    """Magnitude sum(ij) of the inverse similarity matrix."""
    _check_finite(metric)
    ((value, residual),) = _solve_curve(metric.dist, [1.0])
    if not (residual <= RESIDUAL_TOL):
        raise SingularSimilarityError(metric.scale, residual)
    return value


@dataclass(frozen=True)
class MagnitudeFunctionSamples:
    """Mag(tX) sampled over a scale grid, with per-entry solver residuals.

    Entries whose solve failed the residual tolerance hold NaN.
    """

    t_grid: tuple
    values: tuple
    residuals: tuple

    def __post_init__(self):
        if not (len(self.t_grid) == len(self.values) == len(self.residuals)):
            raise ValueError("grid, values and residuals must have equal length")

    def accepted(self) -> tuple:
        return tuple(
            math.isfinite(v) and r <= RESIDUAL_TOL
            for v, r in zip(self.values, self.residuals)
        )


def magnitude_function(metric: MetricView, t_grid) -> MagnitudeFunctionSamples:
    """Magnitude of the rescaled space per grid entry; failures flagged, not raised."""
    t_grid = scale_grid(t_grid, "t")
    _check_finite(metric)
    results = _solve_curve(metric.dist, t_grid)
    values = tuple(v if r <= RESIDUAL_TOL else math.nan for v, r in results)
    residuals = tuple(r for _, r in results)
    return MagnitudeFunctionSamples(tuple(t_grid), values, residuals)


def _exp_neg(x: np.ndarray) -> np.ndarray:
    """e^-x entrywise by math.exp; numpy's vectorised exp can differ from libm in the last bit."""
    return np.fromiter(map(math.exp, (-x).tolist()), float, x.size)


def persistent_magnitude_curve(barcodes, t_grid) -> list:
    """Persistent magnitude of the barcodes of tX for each t in the grid.

    The signed sum of (-1)^degree (e^-tb - e^-td) over every interval
    [b, d). Per t, math.exp maps t x once for each distinct endpoint x (an
    infinite death gives e^-inf = 0.0), and add.accumulate adds the terms
    in barcode order to a leading 0.0, as a loop from total = 0.0 does
    (np.sum would add pairwise).
    """
    t_grid = scale_grid(t_grid, "t")
    bars = [((-1) ** bc.degree, iv.birth, iv.death) for bc in barcodes for iv in bc.intervals]
    signs, births, deaths = np.array(bars, dtype=float).reshape(-1, 3).T
    ends, at = np.unique(np.concatenate((births, deaths)), return_inverse=True)
    born, died = at.reshape(2, -1)
    terms = np.zeros(births.size + 1)
    curve = []
    for t in t_grid:
        exps = _exp_neg(ends * t)
        np.multiply(signs, exps[born] - exps[died], out=terms[1:])
        curve.append(float(np.add.accumulate(terms)[-1]))
    return curve


def persistent_magnitude(barcodes) -> float:
    """Signed weighted interval sum: (-1)^degree (e^-birth - e^-death)."""
    return persistent_magnitude_curve(barcodes, [1.0])[0]


def rescale_barcode(barcode: Barcode, t: float) -> Barcode:
    """Barcode of the space rescaled by t: endpoints multiplied by t.

    Valid for Vietoris-Rips and alpha filtrations, whose complexes
    commute with uniform rescaling.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    return Barcode(
        barcode.degree,
        tuple(
            Interval(iv.birth * t, iv.death * t if iv.finite else math.inf)
            for iv in barcode.intervals
        ),
        death_complete=barcode.death_complete,
    )


def rips_magnitude(metric: MetricView, t: float, degree_cap: int = 1) -> float:
    """Persistent magnitude of the Vietoris-Rips barcodes of tX.

    The full sum over all degrees is infeasible beyond a few dozen
    points; degree_cap truncates it.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    n = metric.size
    if degree_cap < 0 or degree_cap > max(n - 2, 0):
        raise ValueError(f"degree_cap must lie in [0, {max(n - 2, 0)}]")
    complex = vietoris_rips(metric, min(degree_cap + 1, n - 1), math.inf)
    return persistent_magnitude_curve(persistence(complex, degree_cap), [t])[0]

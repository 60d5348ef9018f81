"""Magnitude of finite metric spaces and persistent magnitude of barcodes.

Magnitude solves zeta w = 1 for the similarity matrix zeta = exp(-d) and
returns sum(w); persistent magnitude is the signed exponentially
weighted interval count (-1)^i (e^-a - e^-b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularSimilarityError
from .filtration import alpha_complex_2d, vietoris_rips
from .parallel import parallel_map
from .persistence import Barcode, Interval, persistence
from .spaces import MetricView, PointCloud, rescale, scale_grid

RESIDUAL_TOL = 1e-8


def _solve_similarity(metric: MetricView):
    """Solve zeta w = 1; returns (magnitude, residual).

    Tries a Cholesky (positive-definite) factorisation first — exact for
    Euclidean-embeddable metrics — and falls back to a general symmetric
    solve. One iterative-refinement step either way.
    """
    n = metric.size
    if n == 0:
        return 0.0, 0.0
    zeta = np.exp(-metric.dist)
    ones = np.ones(n)
    try:
        factor = scipy.linalg.cho_factor(zeta)
        w = scipy.linalg.cho_solve(factor, ones)
        w = w + scipy.linalg.cho_solve(factor, ones - zeta @ w)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        try:
            w = scipy.linalg.solve(zeta, ones, assume_a="sym")
            w = w + scipy.linalg.solve(zeta, ones - zeta @ w, assume_a="sym")
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            return math.nan, math.inf
    if not np.all(np.isfinite(w)):
        return math.nan, math.inf
    residual = float(np.max(np.abs(zeta @ w - ones)))
    return float(w.sum()), residual


def magnitude(metric: MetricView) -> float:
    """Magnitude sum(ij) of the inverse similarity matrix."""
    if metric.size and not np.all(np.isfinite(metric.dist)):
        raise ValueError("magnitude requires all distances finite")
    value, residual = _solve_similarity(metric)
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

    def to_csv(self) -> str:
        rows = ["t,magnitude,residual"]
        rows.extend(
            f"{t:.17g},{v:.17g},{r:.17g}"
            for t, v, r in zip(self.t_grid, self.values, self.residuals)
        )
        return "\n".join(rows) + "\n"


def magnitude_function(metric: MetricView, t_grid, threads=None) -> MagnitudeFunctionSamples:
    """Magnitude of the rescaled space per grid entry; failures flagged, not raised."""
    t_grid = scale_grid(t_grid, "t")
    if metric.size and not np.all(np.isfinite(metric.dist)):
        raise ValueError("magnitude requires all distances finite")

    def solve_at(t):
        value, residual = _solve_similarity(rescale(metric, t))
        if not (residual <= RESIDUAL_TOL):
            return math.nan, residual
        return value, residual

    results = parallel_map(solve_at, t_grid, threads)
    values = tuple(v for v, _ in results)
    residuals = tuple(r for _, r in results)
    return MagnitudeFunctionSamples(tuple(t_grid), values, residuals)


def persistent_magnitude(barcodes) -> float:
    """Signed weighted interval sum: (-1)^degree (e^-birth - e^-death)."""
    total = 0.0
    for bc in barcodes:
        sign = -1.0 if bc.degree % 2 else 1.0
        for iv in bc.intervals:
            death_term = math.exp(-iv.death) if iv.finite else 0.0
            total += sign * (math.exp(-iv.birth) - death_term)
    return total


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
    barcodes = persistence(complex, degree_cap)
    return persistent_magnitude([rescale_barcode(bc, t) for bc in barcodes])


def alpha_magnitude(cloud: PointCloud, t: float, max_degree: int = 1) -> float:
    """Persistent magnitude of the alpha-complex barcodes of the cloud scaled by t."""
    if not t > 0:
        raise ValueError("t must be positive")
    if not (0 <= max_degree <= 2):
        raise ValueError("max_degree must lie in [0, 2]")
    complex = alpha_complex_2d(cloud)
    barcodes = persistence(complex, max_degree)
    return persistent_magnitude([rescale_barcode(bc, t) for bc in barcodes])

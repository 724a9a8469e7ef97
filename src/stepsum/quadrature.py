"""Adaptive composite Gauss-Legendre quadrature; the package never calls it.

The integrator drives a single 15-point Gauss-Legendre rule over a shrinking
binary subdivision of the requested interval.  A panel is accepted when the
rule applied to the whole panel and the sum of the rule applied to its two
halves agree within the panel's share of the absolute tolerance; otherwise
the halves are pushed back with half the budget each.  The returned error
bound is the sum of the accepted disagreements, so on success it never
exceeds the requested tolerance.

Fifteen points integrate polynomials through degree 29 exactly, which makes
the subdivision depth shallow for the smooth integrands this package feeds
it (reciprocal-logarithm shapes on intervals bounded away from 1).  The
panel budget is a hard cap: integrands that refuse to converge, typically
because a singularity sneaked inside the interval, raise PanelBudgetError
instead of spinning forever.
"""

import math

import numpy as np

from .errors import DomainError, PanelBudgetError

__all__ = ["integrate"]

_NODES, _WEIGHTS = (tuple(a) for a in np.polynomial.legendre.leggauss(15))


def _panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * math.fsum(w * f(mid + half * t) for t, w in zip(_NODES, _WEIGHTS))


def integrate(f, a, b, *, abs_tol=1e-12, max_panels=10**6):
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    Returns a pair ``(value, err_bound)`` with ``err_bound <= abs_tol``.
    Raises PanelBudgetError after ``max_panels`` panel evaluations.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a > b:
        raise DomainError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0, 0.0

    total = 0.0
    err_bound = 0.0
    panels = 0
    stack = [(a, b, _panel(f, a, b), abs_tol)]
    while stack:
        lo, hi, whole, tol = stack.pop()
        panels += 1
        if panels > max_panels:
            raise PanelBudgetError(
                f"quadrature on [{a}, {b}] exceeded {max_panels} panels"
            )
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        delta = left + right - whole
        # mid == lo or mid == hi means the panel is at float resolution and
        # cannot be split further; accept whatever it has.
        if abs(delta) <= tol or mid <= lo or mid >= hi:
            total += left + right
            err_bound += abs(delta)
        else:
            stack.append((lo, mid, left, 0.5 * tol))
            stack.append((mid, hi, right, 0.5 * tol))
    return total, err_bound

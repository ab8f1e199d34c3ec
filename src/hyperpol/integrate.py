"""Embedded Dormand-Prince RK45 for matrix-valued ODEs.

Adaptive step-size control on the embedded 4th/5th-order pair, plus a
fixed-step mode used by the convergence-order tests.  The state is any
complex ndarray; the right-hand side is called as f(t, y).
"""

from __future__ import annotations

import numpy as np

from .errors import StiffnessError

# Dormand-Prince 5(4) tableau (FSAL)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER = 5.0
# attempted adaptive steps per call: 40x the 2475 of the shipped evolve run
MAX_STEPS = 100_000


def _step(f, t, y, dt):
    """One Dormand-Prince step; returns (y5, error_estimate_norm_input)."""
    k = [f(t, y)]
    for i in range(1, 7):
        yi = y + dt * sum(a * kk for a, kk in zip(_A[i], k))
        k.append(f(t + _C[i] * dt, yi))
    y5 = y + dt * sum(b * kk for b, kk in zip(_B5, k) if b != 0.0)
    err = dt * sum((b5 - b4) * kk for b5, b4, kk in zip(_B5, _B4, k))
    return y5, err


def integrate(f, t0: float, t1: float, y0: np.ndarray, tol: float = 1e-10,
              fixed_step: float | None = None, record=None):
    """Integrate y' = f(t, y) from t0 to t1.

    Adaptive mode bounds the per-step error estimate by
    tol * max(norm(y), 1) (max-norm).  The final step lands on t1 exactly.
    ``record(t, y)`` is invoked after every accepted step.  Returns y(t1).
    In adaptive mode, more than MAX_STEPS attempted steps raise StiffnessError.
    """
    y = np.array(y0, dtype=complex)
    t = t0
    span = t1 - t0
    if span <= 0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")

    if fixed_step is not None:
        n = max(1, int(round(span / fixed_step)))
        dt = span / n
        for i in range(n):
            y, _ = _step(f, t, y, dt)
            t = t0 + (i + 1) * dt
            if record is not None:
                record(t, y)
        return y

    dt = span / 100.0
    dt_min = span * 1e-14
    steps = 0
    while t < t1:
        if steps == MAX_STEPS:
            raise StiffnessError(
                f"step budget exhausted: {steps} attempted steps reached only "
                f"t={t:.6g} ps of [{t0:.6g}, {t1:.6g}]; the decay rates are too stiff "
                "for the explicit pair - reduce them or the segment duration")
        steps += 1
        dt = min(dt, t1 - t)
        y_new, err = _step(f, t, y, dt)
        scale = max(float(np.max(np.abs(y))), 1.0)
        err_norm = float(np.max(np.abs(err))) / scale
        if err_norm <= tol:
            t = t1 if (t1 - t - dt) < dt_min else t + dt
            y = y_new
            if record is not None:
                record(t, y)
            factor = _MAX_FACTOR if err_norm == 0 else _SAFETY * (tol / err_norm) ** (1 / _ORDER)
            dt *= min(_MAX_FACTOR, max(1.0, factor))
        else:
            dt *= max(_MIN_FACTOR, _SAFETY * (tol / err_norm) ** (1 / _ORDER))
        if dt < dt_min:
            raise StiffnessError(
                f"step size underflowed at t={t:.6g} ps; the decay rates are too "
                "stiff for the explicit pair - reduce Gamma/hbar * dt or the "
                "segment duration")
    return y

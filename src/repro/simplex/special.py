"""Digamma and trigamma for the Dirichlet fit, without scipy.

``scipy.special`` costs about 25 MB and 0.2 s to import, which every
offline ``build`` paid for a handful of calls in the Dirichlet
maximum-likelihood fit.  For a positive finite argument, scipy's
``digamma`` runs Cephes' ``psi`` and ``polygamma(1, x)`` runs the
Hurwitz zeta ``zeta(2, x)``; :func:`psi` and :func:`zeta2` are the same
algorithms, operation for operation, on Python floats, so they return
the same bits.  Any other argument (zero, negative, NaN, infinite) is
handed to scipy; the fit never produces one.
"""

from __future__ import annotations

import math

import numpy as np

_EULER = 0.5772156649015328606065120
_MACHEP = 1.11022302462515654042e-16

# Asymptotic series of psi (Cephes psi.c, ``A``).
_PSI_ASYMPTOTIC = (
    8.33333333333333333333e-2,
    -2.10927960927960927961e-2,
    7.57575757575757575758e-3,
    -4.16666666666666666667e-3,
    3.96825396825396825397e-3,
    -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)

# Rational approximation of psi on [1, 2] (Boost, as used by Cephes).
_PSI_Y = float(np.float32(0.99558162689208984))
_PSI_ROOT1 = 1569415565.0 / 1073741824.0
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19
_PSI_P = (
    -0.0020713321167745952,
    -0.045251321448739056,
    -0.28919126444774784,
    -0.65031853770896507,
    -0.32555031186804491,
    0.25479851061131551,
)
_PSI_Q = (
    -0.55789841321675513e-6,
    0.0021284987017821144,
    0.054151797245674225,
    0.43593529692665969,
    1.4606242909763515,
    2.0767117023730469,
    1.0,
)

# Euler-Maclaurin coefficients of the Hurwitz zeta (Cephes zeta.c).
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)


def _polevl(x: float, coefficients) -> float:
    """Horner's rule, highest degree first (Cephes ``polevl``)."""
    result = coefficients[0]
    for coefficient in coefficients[1:]:
        result = result * x + coefficient
    return result


def psi(x: float) -> float:
    """Digamma of a positive finite ``x`` (Cephes ``psi``)."""
    if x <= 10.0 and x == math.floor(x):
        y = 0.0
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    y = 0.0
    # Recurrence into [1, 2], or the asymptotic series from 10 on.
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if 1.0 <= x <= 2.0:
        g = x - _PSI_ROOT1
        g -= _PSI_ROOT2
        g -= _PSI_ROOT3
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * _PSI_Y + g * r)
    if x < 1.0e17:
        z = 1.0 / (x * x)
        tail = z * _polevl(z, _PSI_ASYMPTOTIC)
    else:
        tail = 0.0
    return y + (math.log(x) - (0.5 / x) - tail)


def zeta2(q: float) -> float:
    """Trigamma of a positive finite ``q``: the Hurwitz ``zeta(2, q)``.

    The algorithm is Cephes ``zeta``.
    """
    if q > 1e8:
        return (1.0 + 1.0 / (2.0 * q)) * q**-1.0
    s = q**-2.0
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-2.0
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coefficient in _ZETA_A:
        a *= 2.0 + k
        b /= w
        t = a * b / coefficient
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= 2.0 + k
        b /= w
        k += 1.0
    return s


def _positive_finite(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values)) and np.all(values > 0.0))


def _apply(function, values: np.ndarray):
    if values.ndim == 0:
        return np.float64(function(float(values)))
    return np.array(
        [function(v) for v in values.ravel().tolist()], dtype=np.float64
    ).reshape(values.shape)


def digamma(x):
    """``scipy.special.digamma(x)``, bit for bit, for arrays or scalars."""
    values = np.asarray(x, dtype=np.float64)
    if not _positive_finite(values):
        from scipy.special import digamma as scipy_digamma

        return scipy_digamma(values)
    return _apply(psi, values)


def trigamma(x):
    """``scipy.special.polygamma(1, x)``, bit for bit, arrays or scalars."""
    values = np.asarray(x, dtype=np.float64)
    if not _positive_finite(values):
        from scipy.special import polygamma

        return polygamma(1, values)
    return _apply(zeta2, values)

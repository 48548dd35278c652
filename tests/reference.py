"""The 40-digit reference: a float series evaluated in mpmath, and the
roots whose enclosure holds no sign change of it.

Results are at mpmath's working precision; callers set 40 digits
(``mpmath.workdps(40)``).  The module imports mpmath and not the package,
so ``scripts/spectra_digest.py`` loads it by path and checks any checkout's
spectra with it.
"""

import mpmath


def exact(series):
    """The series as a function of an mpmath wavenumber, at working precision."""
    mp = mpmath.mp
    s0, phi0 = mp.mpf(series.leading_action), mp.mpf(series.leading_phase)
    terms = [(mp.mpf(t.action), mp.mpf(t.amplitude), mp.mpf(t.phase)) for t in series.terms]

    def value(k):
        return mp.cos(s0 * k + phi0) - mp.fsum(a * mp.cos(s * k + p) for s, a, p in terms)

    return value


def misses(series, roots) -> list[tuple[float, float]]:
    """The (k, half-width) pairs of ``roots`` whose two ends, k -+ half-width,
    have the same series sign at working precision."""
    mp = mpmath.mp
    value = exact(series)

    def sign(k) -> int:
        return int(mp.sign(value(k)))

    found = []
    for x, h in roots:
        k, r = mp.mpf(x), mp.mpf(h)
        if sign(k - r) * sign(k + r) >= 0:
            found.append((x, h))
    return found

"""Exception hierarchy for series algebra, graph expansion and root descent."""


class SpectralError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SpectralError, ValueError):
    """One or more structural invariants are violated.

    Every input the package refuses raises it, and it is also a
    ``ValueError``.  ``violations`` lists every violated invariant, one
    message per entry, each anchored at the config path of the offending
    value (``series.terms[1]: ...``, ``window.kmax: ...``) wherever the
    value has one, whether it came from a config or a library call.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SizeCapExceeded(ValidationError):
    """Input exceeds a size cap: a graph beyond the directed-bond cap, a
    window whose separator grid or uniform (scan or sample) grid has more
    cells than the solver's ``MAX_GRID_CELLS``, or a window so high that
    the float spacing there unpins the separator grid or the target
    bracket width reaches a leading cell; it is refused before anything of
    that size is allocated."""


class RealificationFailure(SpectralError):
    """Determinant coefficients do not pair into a real cosine sum."""


class NotRegular(SpectralError):
    """Separator grid requested for a series whose term sum is not below 1."""


class DegenerateSpectrum(SpectralError):
    """Descent hit a (near-)tangential root; the spectrum is not simple."""

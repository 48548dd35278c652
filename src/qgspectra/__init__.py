"""Certified spectra of scaling quantum graphs.

The secular condition of a scaling metric graph is a finite cosine sum
whose positive zeros are the eigen-wavenumbers.  This package constructs
that sum exactly from the graph, regularizes it by repeated normalized
differentiation, and extracts every root inside a certified bracket by
descending the derivative chain with root separators.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateEndpoint,
    DegenerateSpectrum,
    DegreeMismatch,
    EmptyWindow,
    NonpositiveLeadingAction,
    NotRegular,
    ParseError,
    RealificationFailure,
    SizeCapExceeded,
    SpectralError,
    TermActionExceedsLeading,
    ValidationError,
)
from .series import (
    DEFAULT_MARGIN,
    SpectralSeries,
    TrigTerm,
    canonicalize,
    derivative_series,
    evaluate,
    evaluate_array,
    regularity_sum,
)
from .graphs import (
    BondSpec,
    ExpoPolynomial,
    QuantumGraph,
    SecularExpansion,
    VertexSpec,
    bond_scattering_matrix,
    expand_secular,
    secular_series,
    transfer_determinant,
    transfer_matrix,
    vertex_scattering,
)
from .solver import (
    DescentChain,
    DescentTrace,
    Spectrum,
    SpectrumEntry,
    base_separators,
    build_chain,
    descend,
    descend_with_trace,
    regularization_order,
    solve_graph,
)
from .oracle import VerificationReport, scan_roots, verify_spectrum
from .cli import ConfigDoc, load_config, run

__all__ = [
    "BondSpec",
    "ConfigDoc",
    "DEFAULT_MARGIN",
    "DegenerateEndpoint",
    "DegenerateSpectrum",
    "DegreeMismatch",
    "DescentChain",
    "DescentTrace",
    "EmptyWindow",
    "ExpoPolynomial",
    "NonpositiveLeadingAction",
    "NotRegular",
    "ParseError",
    "QuantumGraph",
    "RealificationFailure",
    "SecularExpansion",
    "SizeCapExceeded",
    "SpectralError",
    "SpectralSeries",
    "Spectrum",
    "SpectrumEntry",
    "TermActionExceedsLeading",
    "TrigTerm",
    "ValidationError",
    "VerificationReport",
    "VertexSpec",
    "base_separators",
    "bond_scattering_matrix",
    "build_chain",
    "canonicalize",
    "derivative_series",
    "descend",
    "descend_with_trace",
    "evaluate",
    "evaluate_array",
    "expand_secular",
    "load_config",
    "regularity_sum",
    "regularization_order",
    "run",
    "scan_roots",
    "secular_series",
    "solve_graph",
    "transfer_determinant",
    "transfer_matrix",
    "verify_spectrum",
    "vertex_scattering",
]

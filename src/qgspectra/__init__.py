"""Certified spectra of scaling quantum graphs.

The secular condition of a scaling metric graph is a finite cosine sum
whose positive zeros are the eigen-wavenumbers.  This package constructs
that sum exactly from the graph, regularizes it by repeated normalized
differentiation, and extracts every root inside a certified bracket by
descending the derivative chain with root separators.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSpectrum,
    NotRegular,
    RealificationFailure,
    SizeCapExceeded,
    SpectralError,
    ValidationError,
)
from .series import canonicalize, derivative_series, evaluate_array
from .graphs import (
    BondSpec,
    QuantumGraph,
    VertexSpec,
    expand_secular,
    secular_series,
    transfer_matrix,
    vertex_scattering,
)
from .solver import (
    build_chain,
    descend,
    descend_with_trace,
    regularization_order,
    solve_graph,
)
from .oracle import scan_roots, verify_spectrum

__all__ = [
    "BondSpec",
    "DegenerateSpectrum",
    "NotRegular",
    "QuantumGraph",
    "RealificationFailure",
    "SizeCapExceeded",
    "SpectralError",
    "ValidationError",
    "VertexSpec",
    "build_chain",
    "canonicalize",
    "derivative_series",
    "descend",
    "descend_with_trace",
    "evaluate_array",
    "expand_secular",
    "regularization_order",
    "scan_roots",
    "secular_series",
    "solve_graph",
    "transfer_matrix",
    "verify_spectrum",
    "vertex_scattering",
]

"""Arrangements from edge-colored hypergraphs and their invariants."""

from .atomic_complex import AtomicComplex, ComplexConfig
from .bicomplex import BicomplexConfig, WordBicomplex
from .chromatic import (
    EnumerationBudget,
    chromatic_polynomial,
    chromatic_polynomial_by_counting,
    count_proper_colorings,
    integer_point_count,
)
from .errors import InputError, MismatchError, ResourceLimitError
from .hypergraph import EdgeColoredHypergraph, Violation, build_kequal
from .lattice import IntersectionLattice, build_lattice, characteristic_polynomial, is_geometric
from .massey import (
    MasseyColorSystem,
    find_massey_color_systems,
    kequal_no_massey,
    massey_d2_class,
    massey_triple_product,
    nonformality_report,
)
from .polynomial import IntPolynomial
from .spectral import SpectralPages, homotopy_ranks

__version__ = "0.1.0"

__all__ = [
    "AtomicComplex",
    "BicomplexConfig",
    "ComplexConfig",
    "EdgeColoredHypergraph",
    "EnumerationBudget",
    "InputError",
    "IntPolynomial",
    "IntersectionLattice",
    "MasseyColorSystem",
    "MismatchError",
    "ResourceLimitError",
    "SpectralPages",
    "Violation",
    "WordBicomplex",
    "build_kequal",
    "build_lattice",
    "characteristic_polynomial",
    "chromatic_polynomial",
    "chromatic_polynomial_by_counting",
    "count_proper_colorings",
    "find_massey_color_systems",
    "homotopy_ranks",
    "integer_point_count",
    "is_geometric",
    "kequal_no_massey",
    "massey_d2_class",
    "massey_triple_product",
    "nonformality_report",
]

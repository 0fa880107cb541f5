"""Exact analysis of finite-dimensional skew-symmetric algebras over the rationals."""

from .algebra import (SkewAlgebra, Subspace, SeriesReport, abelian, algebra3,
                      basis_vec, central_series, derived_series, filiform5,
                      heisenberg, is_lie, is_nilpotent, is_solvable,
                      jacobiator, killing_determinant, killing_matrix,
                      left_mult, multiply, span, subspace_product, transport)
from .classify import (ClassificationResult, LieTypeSolution, classify,
                       find_regular_pair, lie_type_constants, ns1_family,
                       ns2_family, sol_family)
from .qlinalg import (EchelonResult, ExactMatrix, determinant, echelonize,
                      format_rational, inverse, kernel_basis, parse_rational, rank)
from .sampler import GenericityReport, SampleConfig, random_algebra, run_experiment
from .structmats import (DerivationSpace, HomLieSpace, aut_dimension, build_HL,
                         build_M, derivation_defect, derivation_space,
                         endo_of_vec, hom_check, hom_jacobi_defect,
                         homlie_space, is_homlie, orbit_dimension, vec_of_endo)

__all__ = [name for name in dir() if not name.startswith("_")]

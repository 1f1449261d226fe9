"""Monotonicity-based scatterer detection for the 2D Helmholtz Neumann problem.

A numerical toolkit built around a single structural fact: ordered
coefficients order their Neumann-to-Dirichlet operators, not in the classic
semidefinite sense but up to a finite eigenvalue defect that the spectrum of
the configuration predicts exactly.  The package provides the P1 forward
solver, the eigenvalue counts, the boundary-operator assembly and the
pixelwise inclusion tests that turn that fact into a reconstruction method,
plus a command-line driver for reproducible experiments.
"""

__version__ = "0.1.0"

from .errors import (
    BasisMismatchError,
    ConfigError,
    EigenSolverError,
    HelmonoError,
    InvalidParameterError,
    ResonanceError,
    SolverError,
    SpectralAmbiguityError,
)
from .fem import (
    Coefficient,
    HelmholtzSystem,
    NodalField,
    as_coefficient,
    assemble_boundary_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    boundary_load_matrix,
)
from .mesh import (
    Mesh,
    PixelGrid,
    Region,
    build_unit_square_mesh,
    empty_region,
    mark_sigma,
    mesh_to_text,
    pixel_grid,
    rect_region,
)
from .monotone import (
    ComparisonResult,
    ReconstructionResult,
    identity_residual,
    inclusion_test,
    leq_d,
    monotonicity_check,
    reconstruct,
)
from .ntd import (
    BoundaryBasis,
    LocalizedPotential,
    SymOp,
    basis_edge_values,
    basis_load_matrix,
    basis_solutions,
    boundary_basis,
    gram_from_solutions,
    localized_potential,
    make_symop,
    ntd_matrix,
    project_onto_basis,
    tb_from_solutions,
)
from .spectral import (
    CountResult,
    count_K_eigs_above_one,
    count_negative,
    d_of_q,
    is_resonance,
    nearest_neumann_eigenvalue,
    neumann_eigenvalues,
)

__all__ = [
    "__version__",
    # errors
    "HelmonoError", "ConfigError", "ResonanceError", "SpectralAmbiguityError",
    "InvalidParameterError", "BasisMismatchError", "EigenSolverError", "SolverError",
    # mesh
    "Mesh", "Region", "PixelGrid", "build_unit_square_mesh", "mark_sigma",
    "rect_region", "empty_region", "pixel_grid", "mesh_to_text",
    # fem
    "Coefficient", "NodalField", "as_coefficient", "assemble_stiffness",
    "assemble_mass", "assemble_weighted_mass", "assemble_boundary_load",
    "boundary_load_matrix", "HelmholtzSystem",
    # spectral
    "CountResult", "neumann_eigenvalues", "d_of_q",
    "count_K_eigs_above_one", "is_resonance", "nearest_neumann_eigenvalue",
    "count_negative",
    # ntd
    "BoundaryBasis", "SymOp", "LocalizedPotential", "boundary_basis",
    "basis_load_matrix", "basis_solutions", "basis_edge_values",
    "project_onto_basis", "make_symop", "ntd_matrix", "tb_from_solutions",
    "gram_from_solutions", "localized_potential",
    # monotone
    "ComparisonResult", "ReconstructionResult", "leq_d", "identity_residual",
    "monotonicity_check", "inclusion_test", "reconstruct",
]

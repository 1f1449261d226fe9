"""The two rules for scalar inputs, :func:`helmono.errors.checked_positive`
and :func:`helmono.errors.checked_count`, hold at every entry point that
takes a positive real or a bounded count."""

import numpy as np
import pytest

from helmono import HelmholtzSystem, boundary_basis, build_unit_square_mesh, count_negative, \
    count_K_eigs_above_one, d_of_q, inclusion_test, is_resonance, leq_d, make_symop, \
    mark_sigma, neumann_eigenvalues, pixel_grid, reconstruct
from helmono.errors import InvalidParameterError, checked_count, checked_positive
from helmono.fem import Coefficient, checked_q_k
from helmono.monotone import contrast_alpha
from helmono.spectral import RejectionCertificate

MESH = mark_sigma(build_unit_square_mesh(4), "all")  # 16 flagged edges, 25 vertices
BASIS = boundary_basis(MESH, 4)
GRID = pixel_grid(MESH, 2, 2)
OP = make_symop(np.eye(2), "b", "op", 1.0)
CERTIFICATE = RejectionCertificate(np.zeros((2, 2)), 0.0, np.eye(2), np.eye(2))

BAD_SCALARS = {
    # Each of these was truncated, taken as 1 or met a TypeError before the
    # two shared checks.
    "segments 2.7": lambda: boundary_basis(MESH, 2.7),
    "segments True": lambda: boundary_basis(MESH, True),
    "n True": lambda: build_unit_square_mesh(True),
    "d True": lambda: leq_d(OP, OP, True),
    "nx 2.5": lambda: pixel_grid(MESH, 2.5, 2),
    "count 2.5": lambda: neumann_eigenvalues(MESH, 1.0, 1.0, 2.5),
    "k 10**200": lambda: HelmholtzSystem(MESH, 1.0, 10**200),
    "tol 10**400": lambda: d_of_q(MESH, 1.0, 1.0, 10**400),
    "alpha 10**400": lambda: reconstruct(MESH, 1.0, 1.0, BASIS, GRID, alpha=10**400),
    "k '2'": lambda: d_of_q(MESH, 1.0, "2"),
    "alpha '1'": lambda: reconstruct(MESH, 1.0, 1.0, BASIS, GRID, alpha="1"),
    # One case for each site that takes the rules from errors.
    "checked_q_k k nan": lambda: checked_q_k(MESH, 1.0, float("nan")),
    "is_resonance tol 0": lambda: is_resonance(MESH, 1.0, 1.0, 0.0),
    "count_K_eigs_above_one tol -1": lambda: count_K_eigs_above_one(MESH, 1.0, 1.0, -1.0),
    "count_negative tol inf": lambda: count_negative(np.eye(2), np.inf),
    "rejects tol nan": lambda: CERTIFICATE.rejects(1.0, 0, np.nan),
    "inclusion_test alpha 0": lambda: inclusion_test(OP, OP, OP, 0.0, 0),
    "contrast_alpha alpha -1": lambda: contrast_alpha(Coefficient.constant(MESH, 1.0),
                                                      "positive", -1.0),
    "build_unit_square_mesh n 0": lambda: build_unit_square_mesh(0),
    "pixel_grid ny 0": lambda: pixel_grid(MESH, 2, 0),
    "boundary_basis segments 17": lambda: boundary_basis(MESH, 17),
    "neumann_eigenvalues count 26": lambda: neumann_eigenvalues(MESH, 1.0, 1.0, 26),
    "leq_d d -1": lambda: leq_d(OP, OP, -1),
}


@pytest.mark.parametrize("call", BAD_SCALARS.values(), ids=BAD_SCALARS.keys())
def test_every_entry_point_refuses_a_bad_scalar_as_a_parameter(call):
    with pytest.raises(InvalidParameterError):
        call()


def test_the_checks_return_plain_numbers():
    assert checked_positive(np.float32(0.5), "x") == 0.5
    count = checked_count(np.int64(3), "x", 1, 3)
    assert count == 3 and type(count) is int
    assert leq_d(OP, OP, np.int32(0)).d_allowed == 0

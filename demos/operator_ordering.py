"""Ordered coefficients order the boundary operators, up to a finite defect.

Raising the coefficient anywhere in the domain pushes the Neumann-to-Dirichlet
operator down, except on an eigenspace whose dimension never exceeds d(q2),
the number of positive pencil eigenvalues of the larger configuration.  The
script measures the negative eigenvalues of Lambda(q2) - Lambda(q1) for random
ordered pairs and compares against the allowance; it then swaps the roles to
show the inequality genuinely fails in the other direction, with a violation
count that grows as the flux basis refines.
"""

import numpy as np

from helmono import (
    Coefficient,
    boundary_basis,
    build_unit_square_mesh,
    count_negative,
    mark_sigma,
    monotonicity_check,
    ntd_matrix,
    rect_region,
)

mesh = mark_sigma(build_unit_square_mesh(16), "all")
basis = boundary_basis(mesh)
rng = np.random.default_rng(42)

print("random ordered pairs q1 <= q2 on a 512-triangle mesh, k = 1")
print()
print("trial  negatives  allowance  verdict")
for trial in range(8):
    q1 = rng.uniform(0.5, 2.0, mesh.n_triangles)
    q2 = q1 + rng.uniform(0.0, 1.0, mesh.n_triangles)
    result = monotonicity_check(mesh, q1, q2, 1.0, basis)
    verdict = "undecided" if result.verdict is None else str(result.verdict).lower()
    print(f"{trial:5d}  {result.counts.negative:9d}  {result.d_allowed:9d}  {verdict}")

print()
print("the same comparison with the roles swapped is not just false, it")
print("fails harder on finer flux bases:")
print()

mesh32 = mark_sigma(build_unit_square_mesh(32), "all")
bump = rect_region(mesh32, (0.0, 0.0, 0.25, 0.25))
q2 = Coefficient.constant(mesh32, 1.0).with_region(bump, 2.0)
print("basis dim  negatives of Lambda(q1) - Lambda(q2)")
for segments in (8, 16, 32):
    b = boundary_basis(mesh32, segments)
    lam1 = ntd_matrix(mesh32, 1.0, 1.0, b)
    lam2 = ntd_matrix(mesh32, q2, 1.0, b)
    wrong_way = count_negative(lam1.matrix - lam2.matrix, tol=1e-9).negative
    print(f"{b.dim:9d}  {wrong_way:9d}")
print()
print("that growth is what separates two genuinely different coefficients;")
print("no fixed defect allowance can absorb it.")

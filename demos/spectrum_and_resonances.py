"""Eigenvalues of the Neumann pencil against separation of variables.

On the unit square with q = 1 the continuous problem is solvable by hand:
the Neumann Laplacian has eigenvalues pi^2 (i^2 + j^2), so the pencil
eigenvalues at k = 1 are 1 - pi^2 (i^2 + j^2).  The discrete spectrum should
land on those values to a few permille on a fine mesh.  The same spectrum
drives everything else here: the defect bound d(q) is the number of pencil
eigenvalues above zero, computed twice through two different pencils as a
cross-check, and a resonance is an eigenvalue sitting at zero: where d(q)
changes along a scan of k, eigenvalues crossed zero.
"""

import math

import numpy as np

from helmono import (
    build_unit_square_mesh,
    count_K_eigs_above_one,
    d_of_q,
    mark_sigma,
    nearest_neumann_eigenvalue,
    neumann_eigenvalues,
)

mesh = mark_sigma(build_unit_square_mesh(64), "all")
pi2 = math.pi ** 2

print("discrete spectrum at q = 1, k = 1, versus the closed form")
print()
print("  computed        exact           relative error")
values = neumann_eigenvalues(mesh, 1.0, 1.0, 12)
distinct = [values[0]]
for v in values[1:]:
    if abs(v - distinct[-1]) > 1e-3 * max(1.0, abs(v)):
        distinct.append(v)
for d, m in zip(distinct, (0, 1, 2, 4, 5)):
    exact = 1.0 - m * pi2
    print(f"  {d:13.6f}   {exact:13.6f}   {abs(d - exact) / abs(exact):.2e}")

print()
print("defect bound d(q) for constant q, computed along two routes")
print()
print("    q    k    d(q)  second route  agree")
for q, k in ((1.0, 1.0), (1.0, 4.0), (4.0, 1.0), (0.1, 1.0)):
    d = d_of_q(mesh, q, k)
    via_k = count_K_eigs_above_one(mesh, q, k)
    print(f"  {q:4.1f} {k:4.1f}  {d:4d}  {via_k:12d}  {str(d == via_k).lower()}")

print()
print("scanning k for the first resonance (the exact location is k = pi)")
print()
print("      k    nearest pencil eigenvalue   d(q)")
previous = None
for k in np.linspace(3.0, 3.3, 7):
    nearest = nearest_neumann_eigenvalue(mesh, 1.0, k)
    d = d_of_q(mesh, 1.0, k)
    marker = "  <- d(q) jumps" if previous is not None and d != previous else ""
    print(f"  {k:5.2f}   {nearest:12.5f}           {d:4d}{marker}")
    previous = d
print()
print(f"pi = {math.pi:.5f}; d(q) counts the pencil eigenvalues above zero, so its")
print("jump brackets the eigenvalues that cross zero, here the double one of")
print("the modes cos(pi x) and cos(pi y); solving there would be refused with")
print("a resonance error.")

"""Shape boundary fluxes whose solution energy concentrates where you ask.

With measurements on the bottom edge only, the script looks for a flux whose
solution is large inside a target box B near the upper-left corner while
staying small on the entire right half D of the square, among the fluxes
orthogonal to a fixed handful V of coarse flux modes.  The maximization runs
on V's orthogonal complement, so every flux it returns satisfies the
constraint exactly.  Refining the flux basis makes the ratio between the two
energies as large as you like; that freedom is what lets the reconstruction
separate a pixel from a scatterer behind it.
"""

import numpy as np

from helmono import (
    basis_edge_values,
    boundary_basis,
    build_unit_square_mesh,
    localized_potential,
    mark_sigma,
    project_onto_basis,
    rect_region,
)

mesh = mark_sigma(build_unit_square_mesh(32), "bottom")
region_b = rect_region(mesh, (0.0, 0.75, 0.25, 1.0))   # target box
region_d = rect_region(mesh, (0.5, 0.0, 1.0, 1.0))     # region to avoid
coarse = boundary_basis(mesh, 8)
v_coarse = np.eye(coarse.dim)[:, :3]                   # modes to stay orthogonal to

print("measurements on the bottom edge; target B = [0, 0.25] x [0.75, 1],")
print("avoided D = right half; flux orthogonal to 3 coarse modes")
print()
print("basis dim   energy in B   energy in D   B/D ratio   |proj on V|")

for segments in (8, 16, 32):
    basis = boundary_basis(mesh, segments)
    # the coarse modes in this basis (exact: the bases are nested)
    v = project_onto_basis(basis, basis_edge_values(coarse, v_coarse))
    result = localized_potential(mesh, 1.0, 1.0, basis, region_b, region_d, v)
    leak = np.linalg.norm(v.T @ result.g)
    print(f"{basis.dim:9d}   {result.b_energy:11.4e}   {result.d_energy:11.4e}"
          f"   {result.ratio:9.3f}   {leak:.1e}")

print()
print("the absolute energies depend on the normalization of the flux; the")
print("figure of merit is their ratio, which grows with every refinement")
print("(the ratio adds to the energy in D a floor, the smallest D energy")
print("the solutions resolve).")

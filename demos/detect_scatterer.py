"""Locate a scatterer from boundary measurements alone.

A square inclusion with contrast 2 sits in the middle of the unit square.
The only data used below is the Neumann-to-Dirichlet operator on the full
boundary for the true coefficient and for the background; every pixel of an
8 x 8 grid is then tried as a probe, and a pixel is kept when the probe test
cannot rule it out.  The accepted set should be exactly the four pixels the
inclusion covers.  The run is repeated for a contrast below the background,
where the test works with the operators in the other order and calibrates
its probe strength by a dyadic sweep.
"""

from pathlib import Path

from helmono import (
    Coefficient,
    boundary_basis,
    build_unit_square_mesh,
    mark_sigma,
    pixel_grid,
    reconstruct,
    rect_region,
)
from helmono.io import write_pgm

mesh = mark_sigma(build_unit_square_mesh(64), "all")
basis = boundary_basis(mesh, 128)
grid = pixel_grid(mesh, 8, 8)
scatterer = rect_region(mesh, (0.375, 0.375, 0.625, 0.625))
outdir = Path("demo_out")
outdir.mkdir(exist_ok=True)


def show(result):
    for iy in range(grid.ny - 1, -1, -1):
        row = "".join(
            "#" if result.mask[grid.index(ix, iy)] else "."
            for ix in range(grid.nx)
        )
        print(f"    {row}")
    print(f"    accepted pixels: {sorted(int(p) for p in result.mask.nonzero()[0])}")
    print(f"    alpha = {result.params['alpha']}, allowance d_max = {result.params['d_max']}")


for contrast, value in (("positive", 2.0), ("negative", 0.5)):
    q = Coefficient.constant(mesh, 1.0).with_region(scatterer, value)
    result = reconstruct(mesh, q, 1.0, basis, grid, contrast=contrast)
    path = outdir / f"mask_{contrast}.pgm"
    write_pgm(path, result.pixel_values().reshape(grid.ny, grid.nx))
    print(f"contrast {value} ({contrast} test), true support"
          " = [0.375, 0.625]^2:")
    show(result)
    print(f"    image written to {path}")
    print()

print("both contrasts recover the same four pixels, which tile the true")
print("support exactly at this grid resolution.")

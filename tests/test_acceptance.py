"""Acceptance suite: the eight headline behaviors at fixed configurations.

Each test prints a single ``acceptance N (...): PASS/FAIL`` line with the
measured quantity (run ``pytest -s`` to see them all), then asserts.  The
configurations are frozen; the tolerances are the contracted ones, not the
observed margins.
"""

import math

import numpy as np

from helmono import (
    Coefficient,
    basis_edge_values,
    basis_solutions,
    boundary_basis,
    build_unit_square_mesh,
    count_negative,
    d_of_q,
    count_K_eigs_above_one,
    gram_from_solutions,
    identity_residual,
    is_resonance,
    localized_potential,
    mark_sigma,
    monotonicity_check,
    neumann_eigenvalues,
    ntd_matrix,
    pixel_grid,
    project_onto_basis,
    reconstruct,
    rect_region,
)
from helmono.cli import main


def report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance {number} ({name}): {verdict} ({detail})")
    assert ok, f"{name}: {detail}"


def test_acceptance_1_energy_identity():
    mesh = mark_sigma(build_unit_square_mesh(16), "all")
    basis = boundary_basis(mesh)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        q1 = rng.uniform(0.5, 2.0, mesh.n_triangles)
        q2 = rng.uniform(0.5, 2.0, mesh.n_triangles)
        g = rng.standard_normal(basis.dim)
        worst = max(worst, identity_residual(mesh, q1, q2, 1.0, basis, g))
    report(1, "energy identity", worst <= 1e-9,
           f"worst relative residual {worst:.3e} over 100 random pairs, bound 1e-9")


def test_acceptance_2_defect_count_double_computation():
    mesh = mark_sigma(build_unit_square_mesh(16), "all")
    rng = np.random.default_rng(7)
    agreements = 0
    trials = 0
    for _ in range(20):
        q = rng.uniform(0.5, 2.0, mesh.n_triangles)
        for k in (1.0, 2.0, 4.0):
            trials += 1
            agreements += d_of_q(mesh, q, k) == count_K_eigs_above_one(mesh, q, k)
    report(2, "defect count, two routes", agreements == trials,
           f"{agreements}/{trials} agreements between the pencil routes")


def test_acceptance_3_spectrum_against_closed_form():
    mesh = mark_sigma(build_unit_square_mesh(64), "all")
    values = neumann_eigenvalues(mesh, 1.0, 1.0, 12)
    distinct = [values[0]]
    for v in values[1:]:
        if abs(v - distinct[-1]) > 1e-3 * max(1.0, abs(v)):
            distinct.append(v)
    pi2 = math.pi ** 2
    exact = [1.0, 1.0 - pi2, 1.0 - 2.0 * pi2, 1.0 - 4.0 * pi2, 1.0 - 5.0 * pi2]
    errs = [abs(d - e) / abs(e) for d, e in zip(distinct, exact)]
    ok = (len(distinct) >= 5 and max(errs) <= 0.02
          and d_of_q(mesh, 1.0, 1.0) == 1
          and d_of_q(mesh, 1.0, 4.0) == 3
          and is_resonance(mesh, 1.0, math.pi, 1e-2)
          and not is_resonance(mesh, 1.0, 1.0))
    report(3, "spectrum vs separation of variables", ok,
           f"first 5 distinct eigenvalues within {max(errs):.2%} of closed form, "
           f"d(1)=1 d(4)=3, resonance flags correct")


def test_acceptance_4_monotonicity_of_ntd():
    mesh = mark_sigma(build_unit_square_mesh(16), "all")
    basis = boundary_basis(mesh)
    rng = np.random.default_rng(42)
    passed = 0
    for _ in range(50):
        q1 = rng.uniform(0.5, 2.0, mesh.n_triangles)
        q2 = q1 + rng.uniform(0.0, 1.0, mesh.n_triangles)
        passed += monotonicity_check(mesh, q1, q2, 1.0, basis).verdict
    report(4, "ordered coefficients, ordered operators", passed == 50,
           f"{passed}/50 random ordered pairs satisfy the defect inequality")


def test_acceptance_5_scatterer_detection():
    mesh = mark_sigma(build_unit_square_mesh(64), "all")
    grid = pixel_grid(mesh, 8, 8)
    scatterer = rect_region(mesh, (0.375, 0.375, 0.625, 0.625))
    center = {27, 28, 35, 36}  # the four pixels covering the scatterer
    far_ring = [p for p in range(64)
                if divmod(p, 8)[1] in (0, 7) or divmod(p, 8)[0] in (0, 7)]

    failures = []
    for contrast, value, want_alpha in (("positive", 2.0, 1.0),
                                        ("negative", 0.5, 0.5)):
        q = Coefficient.constant(mesh, 1.0).with_region(scatterer, value)
        results = {}
        for segments in (128, 256):
            basis = boundary_basis(mesh, segments)
            results[segments] = reconstruct(mesh, q, 1.0, basis, grid,
                                            contrast=contrast)
        coarse, fine = results[128], results[256]
        for tag, res in (("128", coarse), ("256", fine)):
            got = set(np.flatnonzero(res.mask).tolist())
            if got != center:
                failures.append(f"{contrast}/{tag}: accepted {sorted(got)}")
            if res.ambiguous.any():
                failures.append(f"{contrast}/{tag}: ambiguous pixels")
        if fine.params["alpha"] != want_alpha:
            failures.append(f"{contrast}: alpha {fine.params['alpha']}")
        growth = (fine.negative_counts[far_ring]
                  - coarse.negative_counts[far_ring])
        if growth.min() < 1:
            failures.append(f"{contrast}: far-ring counts not growing")
    report(5, "scatterer localization on the pixel grid", not failures,
           "center 2x2 block accepted, boundary ring rejected with growing "
           "counts, both contrasts" if not failures else "; ".join(failures))


def test_acceptance_6_localized_potentials():
    mesh = mark_sigma(build_unit_square_mesh(32), "bottom")
    region_b = rect_region(mesh, (0.0, 0.75, 0.25, 1.0))
    region_d = rect_region(mesh, (0.5, 0.0, 1.0, 1.0))
    coarse = boundary_basis(mesh, 8)
    v_coarse = np.eye(coarse.dim)[:, :3]

    ratios = []
    d_over_b = []
    orth_ok = True
    for segments in (8, 16, 32):
        basis = boundary_basis(mesh, segments)
        v = (v_coarse if segments == 8 else
             project_onto_basis(basis, basis_edge_values(coarse, v_coarse)))
        result = localized_potential(mesh, 1.0, 1.0, basis, region_b, region_d, v)
        solutions = basis_solutions(mesh, 1.0, 1.0, basis)
        g_b = gram_from_solutions(mesh, region_b, basis, solutions, k=1.0).matrix
        g_d = gram_from_solutions(mesh, region_d, basis, solutions, k=1.0).matrix
        b_energy = result.g @ g_b @ result.g
        d_energy = result.g @ g_d @ result.g
        ratios.append(result.ratio)
        d_over_b.append(d_energy / b_energy)
        if np.linalg.norm(v.T @ result.g) > 1e-10:
            orth_ok = False
    ok = (all(a < b for a, b in zip(ratios, ratios[1:]))
          and ratios[-1] / ratios[0] >= 10.0
          and all(a > b for a, b in zip(d_over_b, d_over_b[1:]))
          and d_over_b[0] / d_over_b[-1] >= 10.0
          and orth_ok)
    report(6, "localized potentials", ok,
           f"target/avoided energy ratio grows {ratios[0]:.3g} -> {ratios[-1]:.3g} "
           f"({ratios[-1] / ratios[0]:.1f}x), leakage falls "
           f"{d_over_b[0]:.3g} -> {d_over_b[-1]:.3g}, flux orthogonal to V")


def test_acceptance_7_local_uniqueness_counts():
    mesh = mark_sigma(build_unit_square_mesh(32), "all")
    bump = rect_region(mesh, (0.0, 0.0, 0.25, 0.25))
    q2 = Coefficient.constant(mesh, 1.0).with_region(bump, 2.0)
    counts = []
    for segments in (8, 16, 32):
        basis = boundary_basis(mesh, segments)
        lam1 = ntd_matrix(mesh, 1.0, 1.0, basis)
        lam2 = ntd_matrix(mesh, q2, 1.0, basis)
        counts.append(count_negative(lam1.matrix - lam2.matrix, tol=1e-9).negative)
    steps = [b - a for a, b in zip(counts, counts[1:])]
    ok = min(steps) >= 2
    report(7, "separation grows under refinement", ok,
           f"positive-eigenvalue counts {counts} along basis dims 8/16/32")


def test_acceptance_8_byte_determinism(tmp_path):
    eigs_cfg = tmp_path / "eigs.cfg"
    recon_cfg = tmp_path / "recon.cfg"
    recon_cfg.write_text(
        "mesh.n = 16\nk = 1\ngrid.nx = 4\ngrid.ny = 4\n"
        "coefficient.inclusion = 0.25 0.25 0.5 0.5 2.0\n"
    )
    eigs_cfg.write_text("mesh.n = 16\nk = 1\neigs.count = 6\n")

    def run_twice(command, cfg):
        dirs = []
        for rep in ("first", "second"):
            out = tmp_path / f"{command}-{rep}"
            assert main([command, str(cfg), "--out", str(out)]) == 0
            dirs.append(out)
        return dirs

    mismatches = []
    for command, cfg in (("eigs", eigs_cfg), ("reconstruct", recon_cfg)):
        a, b = run_twice(command, cfg)
        names = sorted(p.name for p in a.iterdir())
        if names != sorted(p.name for p in b.iterdir()):
            mismatches.append(f"{command}: different artifact sets")
            continue
        for name in names:
            if name == "manifest.txt":
                strip = lambda p: [ln for ln in (p / name).read_text().splitlines()
                                   if not ln.startswith("time.")]
                if strip(a) != strip(b):
                    mismatches.append(f"{command}/{name}")
            elif (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{command}/{name}")
    report(8, "byte-identical reruns", not mismatches,
           "eigs and reconstruct artifacts byte-stable across runs"
           if not mismatches else "unstable: " + ", ".join(mismatches))

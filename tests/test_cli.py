import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from helmono import Coefficient, assemble_mass, assemble_stiffness, boundary_basis, \
    build_unit_square_mesh, leq_d, make_symop, mark_sigma, ntd_matrix, pixel_grid, \
    reconstruct, rect_region
from helmono import cli, spectral
from helmono.cli import main
from helmono.errors import ConfigError, InvalidParameterError, SpectralAmbiguityError
from helmono.fem import counting
from helmono.io import parse_config_text, write_pgm, write_sparse_csv, write_symop_csv
from support import read_pgm, read_symop_csv

K_STAR_N8 = 3.1614184302807775  # sqrt of the first positive Neumann eigenvalue, n = 8


def run(tmp_path, text, command, *extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main([command, str(cfg), *extra])


def base_cfg(outdir, n=16, k=1.0, **more):
    lines = [f"mesh.n = {n}", f"k = {k}", f"output.dir = {outdir}"]
    lines += [f"{key} = {value}" for key, value in more.items()]
    return "\n".join(lines) + "\n"


def read_kv(path):
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("helmono ")


def test_mesh_command_writes_mesh_and_manifest(tmp_path):
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=4), "mesh") == 0
    assert (out / "mesh.txt").exists()
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert manifest[0] == "# helmono run manifest"
    assert "command = mesh" in manifest
    assert "config.mesh.n = 4" in manifest
    assert sum(ln.startswith("time.") for ln in manifest) == 1


@pytest.mark.parametrize("numpy_calls", [True, False])
def test_manifest_says_whether_the_blas_limit_held(tmp_path, monkeypatch, numpy_calls):
    if not numpy_calls:
        found = spectral._blas_thread_calls()
        monkeypatch.setattr(spectral, "_blas_thread_calls", lambda: (None, found[1]))
    held = spectral._blas_thread_calls()[0] is not None
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=4), "mesh") == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert f"stat.blas_one_thread = {'true' if held else 'false'}" in manifest
    assert sum(ln.startswith("stat.") for ln in manifest) == 1


@pytest.mark.skipif(None in spectral._blas_thread_calls(),
                    reason="a bundled OpenBLAS exports no thread-count calls")
@pytest.mark.parametrize("raised, code", [
    (None, 0), (ConfigError("bad key"), 2), (SpectralAmbiguityError("near zero"), 4)])
def test_every_subcommand_runs_with_one_blas_thread_in_both_copies(
        tmp_path, monkeypatch, raised, code):
    calls = spectral._blas_thread_calls()  # numpy's copy, then scipy's
    seen = []

    def command(cfg, args, outdir):
        seen.append([get() for get, _ in calls])
        if raised is not None:
            raise raised

    monkeypatch.setitem(cli._COMMANDS, "mesh", command)
    originals = [get() for get, _ in calls]
    try:
        for _, put in calls:
            put(2)
        before = [get() for get, _ in calls]
        assert run(tmp_path, base_cfg(tmp_path / "out", n=4), "mesh") == code
        after = [get() for get, _ in calls]
    finally:
        for (_, put), count in zip(calls, originals):
            put(count)
    assert seen == [[1, 1]]
    assert after == before


def test_eigs_top_eigenvalue(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, n=32, **{"eigs.count": 2})
    assert run(tmp_path, text, "eigs") == 0
    lines = (out / "eigs.csv").read_text().splitlines()
    assert lines[0] == "index,value"
    top = float(lines[1].split(",")[1])
    assert abs(top - 1.0) <= 1e-3


def test_eigs_default_count_is_capped_at_the_vertex_count(tmp_path, capsys):
    # mesh.n = 1 has 4 vertices: the unset default of 5 asks for all of them,
    # while the same 5 configured is refused on its line
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=1), "eigs") == 0
    assert len((out / "eigs.csv").read_text().splitlines()) == 1 + 4
    out = tmp_path / "set"
    assert run(tmp_path, base_cfg(out, n=1, **{"eigs.count": 5}), "eigs") == 2
    assert "line 4: eigs.count must be between 1 and 4, got 5" in capsys.readouterr().err


def test_eigs_byte_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh.n = 16\nk = 1.0\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["eigs", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "eigs.csv").read_bytes() == (b / "eigs.csv").read_bytes()

    def stable(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("time.")]

    assert stable(a / "manifest.txt") == stable(b / "manifest.txt")


def test_identity_check_equal_coefficients(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, k=1.3,
                    **{"coefficient.background": 1.3, "coefficient2.background": 1.3})
    assert run(tmp_path, text, "identity-check") == 0
    pairs = read_kv(out / "identity.txt")
    assert pairs["g_mode"] == "first"
    assert pairs["residual"] == "0"


def test_identity_check_random_flux(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, seed=5,
                    **{"coefficient.background": 0.8, "coefficient2.background": 1.7,
                       "g.mode": "random"})
    assert run(tmp_path, text, "identity-check") == 0
    pairs = read_kv(out / "identity.txt")
    assert pairs["g_mode"] == "random"
    assert float(pairs["residual"]) <= 1e-9


def test_dq_routes_agree(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, k=2.0, **{"coefficient.background": 1.5})
    assert run(tmp_path, text, "dq") == 0
    pairs = read_kv(out / "dq.txt")
    assert pairs["agree"] == "true"
    assert pairs["d_of_q"] == pairs["count_K_eigs_above_one"]
    # the window and the eigenvalue nearest zero, from the counted factorization
    assert float(pairs["tol"]) == 1e-8 * (4.0 * 1.5 + 1.0)
    assert abs(float(pairs["nearest_eigenvalue"])) > float(pairs["tol"])
    manifest = read_kv(out / "manifest.txt")
    assert (manifest["stat.defect.inertia"], manifest["stat.defect.sweep"]) == ("1", "0")


def test_dq_decides_in_the_window_of_monotonicity_check(tmp_path):
    # The top pencil eigenvalue 2e-7 above zero at n = 8, q = 1: outside the
    # window 1e-8 (k^2 + 1) ~ 1.1e-7 that monotonicity-check decides with.
    # The compact-part count is independent and puts its eigenvalue, ~1.8e-8
    # above one, below its own threshold 1 + tol, so the two disagree.
    mesh = build_unit_square_mesh(8)
    s, m = assemble_stiffness(mesh).toarray(), assemble_mass(mesh).toarray()
    k = float(np.sqrt(np.sort(sla.eigh(s, m, eigvals_only=True))[1] + 2e-7))
    out = tmp_path / "dq"
    assert run(tmp_path, base_cfg(out, n=8, k=repr(k)), "dq") == 0
    pairs = read_kv(out / "dq.txt")
    assert (pairs["d_of_q"], pairs["count_K_eigs_above_one"], pairs["agree"]) == (
        "2", "1", "false")
    assert float(pairs["nearest_eigenvalue"]) == pytest.approx(2e-7, rel=1e-3)
    compare = tmp_path / "compare"
    text = base_cfg(compare, n=8, k=repr(k), **{"coefficient.background": 0.5})
    assert run(tmp_path, text, "monotonicity-check") == 0
    assert read_kv(compare / "comparison.txt")["d_allowed"] == "2"


def test_dq_writes_an_undecided_cross_check_and_exits_4(tmp_path, capsys):
    # k^2 = rho_1 (1 + 1e-7) at n = 8, q = 1: d_of_q decides 2, while the
    # compact-part count finds an eigenvalue inside its own band around
    # 1 + tol.  dq.txt says so and the run exits 4 with its manifest.
    mesh = build_unit_square_mesh(8)
    s, m = assemble_stiffness(mesh).toarray(), assemble_mass(mesh).toarray()
    k = float(np.sqrt(np.sort(sla.eigh(s, m, eigvals_only=True))[1] * (1.0 + 1e-7)))
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=8, k=repr(k)), "dq") == 4
    assert "decision point" in capsys.readouterr().err
    pairs = read_kv(out / "dq.txt")
    assert (pairs["d_of_q"], pairs["count_K_eigs_above_one"], pairs["agree"]) == (
        "2", "undecided", "undecided")
    assert read_kv(out / "manifest.txt")["stat.exit_code"] == "4"


def test_resonance_scan_brackets_known_resonance(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, n=8)
    text = text.replace("k = 1.0\n", "")
    text += "scan.k_min = 3.0\nscan.k_max = 3.3\nscan.steps = 7\n"
    assert run(tmp_path, text, "resonance-scan") == 0
    scan = (out / "scan.csv").read_text().splitlines()
    assert scan[0] == "k,lambda_nearest_zero"
    assert len(scan) == 8
    brackets = (out / "brackets.csv").read_text().splitlines()
    assert brackets[0] == "k_lo,k_hi"
    assert len(brackets) == 2
    k_lo, k_hi = map(float, brackets[1].split(","))
    assert k_lo < K_STAR_N8 < k_hi


@pytest.mark.parametrize("key, value, message", [
    ("scan.k_min", "nan", "line 3: scan.k_min must be positive and finite"),
    ("scan.k_min", "0", "line 3: scan.k_min must be positive and finite"),
    ("scan.k_max", "inf", "line 4: scan.k_max must be positive and finite"),
    ("scan.k_max", "2.0", "line 4: scan.k_max must exceed scan.k_min"),
    ("scan.steps", "1", "line 5: scan.steps must be at least 2"),
])
def test_resonance_scan_refuses_bad_bounds_on_their_line(tmp_path, capsys, key, value,
                                                         message):
    out = tmp_path / "out"
    keys = {"scan.k_min": "3.0", "scan.k_max": "3.3", "scan.steps": "7", key: value}
    text = base_cfg(out, n=4, **keys).replace("k = 1.0\n", "")
    assert run(tmp_path, text, "resonance-scan") == 2
    assert message in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


def test_ntd_roundtrip_and_dumps(tmp_path):
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=8), "ntd", "--dump-matrices") == 0
    assert (out / "system_matrix.csv").exists()
    assert (out / "load_matrix.csv").exists()
    mesh = mark_sigma(build_unit_square_mesh(8), "all")
    basis = boundary_basis(mesh)
    loaded = read_symop_csv(out / "ntd.csv", basis)
    direct = ntd_matrix(mesh, 1.0, 1.0, basis)
    assert np.array_equal(loaded.matrix, direct.matrix)  # 17 digits round-trip
    assert leq_d(loaded, direct, 0).verdict


def test_monotonicity_check_verdict(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, **{"coefficient.background": 1.0,
                            "coefficient2.background": 1.0,
                            "coefficient2.inclusion": "0.25 0.25 0.75 0.75 1.5"})
    assert run(tmp_path, text, "monotonicity-check") == 0
    pairs = read_kv(out / "comparison.txt")
    assert pairs["verdict"] == "true"
    assert int(pairs["negative_count"]) <= int(pairs["d_allowed"])
    assert pairs["indeterminate_count"] == "0"


@pytest.mark.parametrize("refuse_symmetric", [False, True])
def test_manifest_counts_factorizations_and_ntd_routes(tmp_path, monkeypatch,
                                                       refuse_symmetric):
    # one factorization per coefficient, both operators off trailing blocks;
    # a refused symmetric factorization shows as factorizations redone with
    # partial pivoting and operators solved for
    from helmono import fem

    if refuse_symmetric:
        monkeypatch.setattr(fem, "SYMMETRIC_PIVOT_RTOL", 1.0)
    out = tmp_path / "out"
    text = base_cfg(out, n=8, **{"coefficient2.background": 1.5})
    assert run(tmp_path, text, "monotonicity-check") == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    stats = [ln for ln in manifest if ln.startswith("stat.")]
    # d(q2) from the pivots, or from the sweep when they have no signs
    expected = (4, 0, 2, 0, 1) if refuse_symmetric else (2, 2, 0, 1, 0)
    assert stats == ["stat.blas_one_thread = " + stats[0].split(" = ")[1],
                     f"stat.factorizations = {expected[0]}",
                     f"stat.ntd.trailing = {expected[1]}",
                     f"stat.ntd.solved = {expected[2]}",
                     f"stat.defect.inertia = {expected[3]}",
                     f"stat.defect.sweep = {expected[4]}"]


def test_undecided_comparison_exits_4(tmp_path, capsys, monkeypatch):
    # d(q2) = 1 here; one certainly negative eigenvalue and one inside the
    # window leave the count on either side of it.
    from helmono import monotone

    undecided = spectral.CountResult(negative=2, indeterminate=1, tol=1e-6, certain=1)
    monkeypatch.setattr(monotone, "count_negative", lambda matrix, tol=None: undecided)
    out = tmp_path / "out"
    text = base_cfg(out, n=8, **{"coefficient2.background": 1.5})
    assert run(tmp_path, text, "monotonicity-check") == 4
    assert "undecided comparison" in capsys.readouterr().err
    pairs = read_kv(out / "comparison.txt")
    assert (pairs["d_allowed"], pairs["verdict"]) == ("1", "undecided")
    # the manifest still explains the factorizations and routes taken
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert [ln for ln in manifest if ln.startswith("stat.")][1:] == [
        "stat.factorizations = 2", "stat.ntd.trailing = 2", "stat.ntd.solved = 0",
        "stat.defect.inertia = 1", "stat.defect.sweep = 0", "stat.exit_code = 4"]


def test_resonance_of_the_smaller_coefficient_exits_3(tmp_path, capsys):
    # q2 = 1.5 is not resonant at k*, so d(q2) is counted; q1 = 1 is, and its
    # factorization reports it
    out = tmp_path / "out"
    text = base_cfg(out, n=8, k=K_STAR_N8, **{"coefficient2.background": 1.5})
    assert run(tmp_path, text, "monotonicity-check") == 3
    assert "near-singular system" in capsys.readouterr().err
    assert not (out / "comparison.txt").exists()
    manifest = read_kv(out / "manifest.txt")
    assert (manifest["stat.defect.inertia"], manifest["stat.exit_code"]) == ("1", "3")


def test_monotonicity_check_rejects_unordered(tmp_path, capsys):
    out = tmp_path / "out"
    text = base_cfg(out, **{"coefficient.background": 2.0,
                            "coefficient2.background": 1.0})
    assert run(tmp_path, text, "monotonicity-check") == 5
    assert "error:" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, **{"eigs.count": 3}), "dq") == 2
    err = capsys.readouterr().err
    assert "unknown key 'eigs.count'" in err
    assert "line 4" in err
    assert out.is_dir() and not (out / "manifest.txt").exists()


def test_duplicate_key_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    text = base_cfg(out) + "mesh.n = 8\n"
    assert run(tmp_path, text, "mesh") == 2
    err = capsys.readouterr().err
    assert "duplicate key 'mesh.n'" in err
    assert "line 4" in err and "line 1" in err


def test_bad_selector_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    text = base_cfg(out, **{"sigma.selector": "diagonal"})
    assert run(tmp_path, text, "mesh") == 2
    assert "sigma.selector" in capsys.readouterr().err


@pytest.mark.parametrize("selector, message", [
    ("bottom + diagonal", "unknown boundary selector 'diagonal'"),
    ("+", "empty boundary selector"),
])
def test_bad_selector_is_refused_on_its_line_before_the_mesh(tmp_path, capsys, monkeypatch,
                                                             selector, message):
    def no_mesh(*args, **kwargs):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli, "build_unit_square_mesh", no_mesh)
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, **{"sigma.selector": selector}), "mesh") == 2
    assert f"line 4: key 'sigma.selector': {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_missing_output_dir_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh.n = 4\nk = 1\n")
    assert main(["mesh", str(cfg)]) == 2
    assert "output.dir" in capsys.readouterr().err


def test_empty_output_dir_rejected(tmp_path, capsys, monkeypatch):
    # An empty value names no directory; it must not mean the working one.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.cfg").write_text("mesh.n = 4\nk = 1\noutput.dir =\n")
    (tmp_path / "set.cfg").write_text("mesh.n = 4\nk = 1\noutput.dir = out\n")
    for argv in (["mesh", "empty.cfg"], ["mesh", "empty.cfg", "--out", ""],
                 ["mesh", "set.cfg", "--out", ""]):
        assert main(argv) == 2
        assert "no output directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cfg", "set.cfg"]


def test_malformed_seed_is_refused_before_any_artifact(tmp_path, capsys):
    for seed, message in (("abc", "line 4: key 'seed': not an integer"),
                          ("-1", "line 4: seed must be at least 0, got -1")):
        out = tmp_path / f"out{seed}"
        assert run(tmp_path, base_cfg(out, n=4, seed=seed), "mesh") == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []
    # Commands that draw from the seed refuse it too, instead of failing in numpy.
    out = tmp_path / "outrandom"
    text = base_cfg(out, n=4, seed=-1, **{"g.mode": "random"})
    assert run(tmp_path, text, "identity-check") == 2
    assert "line 4: seed must be at least 0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    # Undecodable bytes are a configuration problem, as a directory is.
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"mesh.n = 2\n# caf\xe9\n")
    for path in (bad, tmp_path):
        assert main(["mesh", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_and_artifacts_are_utf8_under_any_locale(tmp_path):
    # A non-ASCII value read under an ASCII locale is echoed as its UTF-8 bytes.
    (tmp_path / "run.cfg").write_bytes("mesh.n = 1\nk = 1\noutput.dir = café\n".encode())
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    done = subprocess.run([sys.executable, "-m", "helmono.cli", "mesh", "run.cfg",
                           "--out", "out"], cwd=tmp_path, env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    manifest = (tmp_path / "out" / "manifest.txt").read_bytes()
    assert "config.output.dir = café\n".encode() in manifest


def test_output_path_naming_a_file_is_refused(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for out in (taken, taken / "sub"):
        assert run(tmp_path, base_cfg(out, n=4), "mesh") == 2
        assert f"output directory {out}" in capsys.readouterr().err
    assert run(tmp_path, base_cfg(tmp_path / "out", n=4), "mesh", "--out", str(taken)) == 2
    assert f"output directory {taken}" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_ntd_at_resonance_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=8, k=K_STAR_N8), "ntd") == 3
    assert "error:" in capsys.readouterr().err
    assert not (out / "ntd.csv").exists()


@pytest.mark.parametrize("command, more", [
    ("ntd", {}), ("dq", {}), ("eigs", {}),
    ("reconstruct", {"grid.nx": 2, "grid.ny": 2,
                     "coefficient.inclusion": "0.25 0.25 0.75 0.75 2"}),
])
def test_wavenumber_whose_square_overflows_exits_5(tmp_path, capsys, command, more):
    # k^2 = inf: neither a resonance (3) nor a crash (1)
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=4, k=1e200, **more), command) == 5
    assert "k^2 q must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_dq_at_resonance_is_ambiguous(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=8, k=K_STAR_N8), "dq") == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, more", [
    ("monotonicity-check", {}),
    ("reconstruct", {"grid.nx": 2, "grid.ny": 2, "alpha.value": 0.5}),
    ("reconstruct", {"grid.nx": 2, "grid.ny": 2, "contrast": "negative"}),
])
def test_ambiguous_defect_precedes_resonance(tmp_path, capsys, command, more):
    # The forward system of q = 1 at k* cannot be factored; the ambiguous
    # d(q) count is what gets reported, as when the count ran first.
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=8, k=K_STAR_N8, **more), command) == 4
    assert "Neumann eigenvalue(s) within" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_reconstruct_rejects_a_count_tolerance_that_is_not_finite(tmp_path, capsys, value):
    out = tmp_path / "out"
    text = base_cfg(out, n=8, **{"grid.nx": 2, "grid.ny": 2, "alpha.value": 0.5,
                                 "tol.count": value})
    assert run(tmp_path, text, "reconstruct") == 2
    assert "tol.count must be positive and finite" in capsys.readouterr().err
    assert not (out / "reconstruct.csv").exists()


def test_reconstruct_no_scatterer_all_rejected(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, **{"grid.nx": 4, "grid.ny": 4, "alpha.value": 0.5})
    assert run(tmp_path, text, "reconstruct") == 0
    mask = read_pgm(out / "mask.pgm")
    assert mask.shape == (4, 4)
    assert (mask == 0).all()
    rows = (out / "reconstruct.csv").read_text().splitlines()
    assert rows[0] == ("pixel,ix,iy,x0,y0,x1,y1,"
                       "negative_count,indeterminate_count,accepted")
    assert len(rows) == 17
    assert all(ln.endswith(",false") for ln in rows[1:])
    pairs = read_kv(out / "params.txt")
    assert pairs["alpha"] == "0.5"
    assert pairs["contrast"] == "positive"


def test_reconstruct_negative_sweep(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, **{"grid.nx": 4, "grid.ny": 4, "contrast": "negative",
                            "coefficient.inclusion": "0.25 0.25 0.5 0.5 0.5"})
    assert run(tmp_path, text, "reconstruct") == 0
    pairs = read_kv(out / "params.txt")
    assert pairs["alpha"] == "0.25"
    mask = read_pgm(out / "mask.pgm")
    assert mask[1, 1] == 255
    assert (mask == 255).sum() == 1
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "alpha,accepted_count"
    assert len(sweep) >= 2


def test_reconstruct_on_a_refined_nested_basis_accepts_no_more(tmp_path):
    # basis.segments 8 and 16 are nested; at a fixed alpha and count
    # tolerance the finer basis rejects at least the pixels the coarser does,
    # here also two outside the inclusion that the coarser accepts
    rows = {}
    for segments in (8, 16):
        out = tmp_path / f"segments{segments}"
        text = base_cfg(out, **{"grid.nx": 4, "grid.ny": 4, "basis.segments": segments,
                                "coefficient.inclusion": "0.25 0.25 0.75 0.5 2.0",
                                "alpha.value": 0.1, "tol.count": 1e-9})
        assert run(tmp_path, text, "reconstruct") == 0
        lines = (out / "reconstruct.csv").read_text().splitlines()[1:]
        rows[segments] = [(int(f[7]), int(f[8]), f[9] == "true")
                          for f in (line.split(",") for line in lines)]
    pairs = [(c, f) for c, f in zip(rows[8], rows[16]) if c[1] == 0 and f[1] == 0]
    assert len(pairs) >= 8
    assert all(f[0] >= c[0] for c, f in pairs)
    assert not any(f[2] and not c[2] for c, f in pairs)
    assert any(c[2] and not f[2] for c, f in pairs)  # pixels outside the inclusion


def test_reconstruct_fixed_alpha_must_be_positive(tmp_path, capsys, monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli, "build_unit_square_mesh", no_mesh)
    for contrast in ("positive", "negative"):
        out = tmp_path / contrast
        text = base_cfg(out, n=8, **{"grid.nx": 2, "grid.ny": 2, "alpha.value": -1,
                                     "contrast": contrast})
        assert run(tmp_path, text, "reconstruct") == 2
        assert "line 6: alpha.value must be positive and finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("contrast, inclusion", [("positive", "0.25 0.25 0.5 0.5 2.0"),
                                                 ("negative", "0.25 0.25 0.5 0.5 0.5")])
def test_reconstruct_runs_at_alpha_value_for_either_contrast(tmp_path, contrast, inclusion):
    # alpha.value fixes alpha; without it positive contrast derives alpha
    # and negative contrast sweeps
    for name, more in (("fixed", {"alpha.value": 0.125}), ("own", {})):
        out = tmp_path / name
        text = base_cfg(out, n=8, **{"grid.nx": 2, "grid.ny": 2, "contrast": contrast,
                                     "coefficient.inclusion": inclusion}, **more)
        assert run(tmp_path, text, "reconstruct") == 0
    assert read_kv(tmp_path / "fixed" / "params.txt")["alpha"] == "0.125"
    assert not (tmp_path / "fixed" / "sweep.csv").exists()
    swept = (tmp_path / "own" / "sweep.csv").exists()
    assert swept == (contrast == "negative")
    if not swept:  # derived: min(q - 1) on the scatterer
        assert read_kv(tmp_path / "own" / "params.txt")["alpha"] == "1"


def test_reconstruct_threads_equivalent(tmp_path):
    # --threads changes nothing: every count runs on the calling thread.
    outs = []
    for name, threads in (("one", "1"), ("four", "4")):
        out = tmp_path / name
        text = base_cfg(out, **{"grid.nx": 3, "grid.ny": 3, "alpha.value": 0.5})
        assert run(tmp_path, text, "reconstruct", "--threads", threads) == 0
        outs.append(out)
    a, b = outs
    assert (a / "reconstruct.csv").read_bytes() == (b / "reconstruct.csv").read_bytes()
    assert (a / "mask.pgm").read_bytes() == (b / "mask.pgm").read_bytes()


def test_manifest_counts_dense_and_certified_pixel_counts_for_any_threads(tmp_path):
    # --threads changes no tally; a pixel of a sweep step is counted densely
    # or certified, and a fixed alpha certifies nothing.
    stats = {}
    for name, threads, more in (("one", "1", {}), ("two", "2", {}),
                                ("fixed", "2", {"alpha.value": 0.25})):
        out = tmp_path / name
        text = base_cfg(out, **{"grid.nx": 4, "grid.ny": 4, "contrast": "negative",
                                "coefficient.inclusion": "0.25 0.25 0.5 0.5 0.5"}, **more)
        assert run(tmp_path, text, "reconstruct", "--threads", threads) == 0
        manifest = read_kv(out / "manifest.txt")
        stats[name] = (int(manifest["stat.counts.dense"]),
                       int(manifest["stat.counts.certified"]),
                       int(manifest["stat.pixels.undecided"]))
        assert stats[name][2] == (read_pgm(out / "mask.pgm") == 128).sum()
        built = int(manifest["stat.probes.built"])
        assert 0 < built <= min(stats[name][0], 16)
    steps = len((tmp_path / "one" / "sweep.csv").read_text().splitlines()) - 1
    assert stats["one"] == stats["two"]
    dense, certified, _ = stats["one"]
    assert dense + certified == 16 * steps and certified > 0
    assert stats["fixed"][:2] == (16, 0)
    assert read_kv(tmp_path / "fixed" / "manifest.txt")["stat.probes.built"] == "16"


def test_reconstruct_writes_certified_rows_without_counting_them(tmp_path):
    # A pixel the sweep certified as rejected at the reported step gets no
    # dense count: its row says certified and is never accepted, and the
    # manifest's dense counts are the counted rows plus the other steps'.
    out = tmp_path / "out"
    text = base_cfg(out, **{"grid.nx": 4, "grid.ny": 4, "contrast": "negative",
                            "coefficient.inclusion": "0.25 0.25 0.5 0.5 0.5"})
    assert run(tmp_path, text, "reconstruct") == 0
    rows = [line.split(",") for line in
            (out / "reconstruct.csv").read_text().splitlines()[1:]]
    certified = [row for row in rows if "certified" in row[7:9]]
    assert certified and all(row[7:] == ["certified", "certified", "false"]
                             for row in certified)
    assert int(read_kv(out / "params.txt")["certified"]) == len(certified)
    mesh = mark_sigma(build_unit_square_mesh(16), "all")
    q = Coefficient.constant(mesh, 1.0).with_region(
        rect_region(mesh, (0.25, 0.25, 0.5, 0.5)), 0.5)
    with counting() as tally:
        swept = reconstruct(mesh, q, 1.0, boundary_basis(mesh), pixel_grid(mesh, 4, 4),
                            contrast="negative")
    assert [p for p, c in enumerate(swept.counts) if c is None] == [
        int(row[0]) for row in certified]
    other_steps = tally["counts.dense"] - (len(rows) - len(certified))
    assert other_steps > 0
    manifest = read_kv(out / "manifest.txt")
    assert int(manifest["stat.counts.dense"]) == len(rows) - len(certified) + other_steps


def test_reconstruct_rejects_pixels_whose_window_sits_above_the_threshold(tmp_path):
    # Pixels 34 and 37 report alpha 0.5 with eigenvalues about -1.5e-4,
    # -2.8e-7 and -1.34e-9 against a tol of about 1.48e-9 and d_max 1: two
    # lie below the window, so either side of it the count exceeds d_max.
    # The sweep certifies that rejection, so their rows say so; the dense
    # count at the reported alpha gives the same verdict.
    out = tmp_path / "out"
    text = base_cfg(out, n=64, **{"basis.segments": 256, "grid.nx": 8, "grid.ny": 8,
                                  "contrast": "negative",
                                  "coefficient.inclusion": "0.375 0.5 0.625 0.75 0.35"})
    assert run(tmp_path, text, "reconstruct", "--threads", "1") == 0
    assert read_kv(out / "params.txt")["alpha"] == "0.5"
    rows = [line.split(",") for line in
            (out / "reconstruct.csv").read_text().splitlines()[1:]]
    mask = read_pgm(out / "mask.pgm").ravel()
    mesh = mark_sigma(build_unit_square_mesh(64), "all")
    q = Coefficient.constant(mesh, 1.0).with_region(
        rect_region(mesh, (0.375, 0.5, 0.625, 0.75)), 0.35)
    dense = reconstruct(mesh, q, 1.0, boundary_basis(mesh, 256), pixel_grid(mesh, 8, 8),
                        contrast="negative", alpha=0.5)
    for p in (34, 37):
        assert rows[p][7:] == ["certified", "certified", "false"]
        c = dense.counts[p]
        assert (c.negative, c.indeterminate, c.verdict(dense.params["d_max"])) == (2, 1, False)
        assert mask[p] == 0
    assert all(mask[p] == (255 if row[9] == "true" else 0)
               for p, row in enumerate(rows) if mask[p] != 128)


def _artifacts(out):
    """Every output file's bytes, the manifest without its timing lines; each
    file must be nonempty UTF-8 text with LF line endings."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, path.name
        data.decode("utf-8")
        if path.name == "manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"time."))
        files[path.name] = data
    return files


def _artifacts_per_blas_thread_count(tmp_path, command, text, *extra):
    """The artifacts of one run under OPENBLAS_NUM_THREADS 1, then 2."""
    src = Path(__file__).resolve().parent.parent / "src"
    (tmp_path / "run.cfg").write_text(text)
    outs = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=blas)
        done = subprocess.run(
            [sys.executable, "-m", "helmono.cli", command, str(tmp_path / "run.cfg"),
             "--out", str(out), *extra],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        outs.append(_artifacts(out))
    return outs


def test_reconstruct_bytes_independent_of_blas_threads(tmp_path):
    # The default count tolerance scales with the largest eigenvalue, whose
    # last bits follow the BLAS thread count unless the counts cap it: on
    # this configuration params.txt's tol differs between 1 and 2 threads.
    text = "\n".join([
        "mesh.n = 64", "k = 1", "basis.segments = 256", "grid.nx = 8", "grid.ny = 8",
        "contrast = negative", "coefficient.background = 1.0",
        "coefficient.inclusion = 0.5 0.125 0.75 0.375 0.3029965880234349",
    ]) + "\n"
    outs = _artifacts_per_blas_thread_count(tmp_path, "reconstruct", text, "--threads", "2")
    assert set(outs[0]) >= {"reconstruct.csv", "mask.pgm", "params.txt", "sweep.csv",
                            "manifest.txt"}
    assert outs[0] == outs[1]


def test_monotonicity_check_bytes_independent_of_blas_threads(tmp_path):
    text = "\n".join([
        "mesh.n = 24", "k = 2", "basis.segments = 48", "coefficient.background = 1.0",
        "coefficient2.background = 1.0",
        "coefficient2.inclusion = 0.25 0.25 0.75 0.5 1.8",
    ]) + "\n"
    outs = _artifacts_per_blas_thread_count(tmp_path, "monotonicity-check", text)
    assert set(outs[0]) == {"comparison.txt", "manifest.txt"}
    assert outs[0] == outs[1]


def test_localize_bytes_independent_of_blas_threads(tmp_path):
    text = "\n".join([
        "mesh.n = 32", "k = 1", "sigma.selector = bottom", "localize.v_dim = 3",
        "localize.b_box = 0.0 0.75 0.25 1.0", "localize.d_box = 0.5 0.0 1.0 1.0",
        "localize.segments = 8 16",
    ]) + "\n"
    outs = _artifacts_per_blas_thread_count(tmp_path, "localize", text)
    assert set(outs[0]) == {"localize.csv", "g.csv", "manifest.txt"}
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, more, files", [
    ("eigs", "k = 2.5\neigs.count = 8\n", {"eigs.csv"}),
    ("dq", "k = 3\n", {"dq.txt"}),
    ("resonance-scan", "scan.k_min = 2.5\nscan.k_max = 4.5\nscan.steps = 5\n",
     {"scan.csv", "brackets.csv"}),
])
def test_arpack_routes_bytes_independent_of_blas_threads(tmp_path, command, more, files):
    # mesh.n = 40 has 1681 vertices, above DENSE_CUTOFF: every eigenvalue
    # here comes from ARPACK on a sparse factorization.
    text = ("mesh.n = 40\ncoefficient.background = 1.0\n"
            "coefficient.inclusion = 0.25 0.25 0.75 0.5 1.8\n" + more)
    outs = _artifacts_per_blas_thread_count(tmp_path, command, text)
    assert set(outs[0]) == files | {"manifest.txt"}
    assert outs[0] == outs[1]


def test_reconstruct_records_whether_the_sweep_settled(tmp_path, capsys):
    # q = 1 leaves -alpha T_B as every pixel matrix: PSD T_B is nonzero, so no
    # pixel is ever accepted and the sweep runs to its cap.
    grid = {"grid.nx": 2, "grid.ny": 2, "contrast": "negative"}
    out = tmp_path / "flat"
    assert run(tmp_path, base_cfg(out, n=8, **grid), "reconstruct") == 0
    pairs = read_kv(out / "params.txt")
    assert pairs["sweep_stable"] == "false"
    assert pairs["alpha"] == "9.5367431640625e-07"
    # every pixel certified at the reported step: no count gives a tolerance
    assert (pairs["certified"], pairs["tol"]) == ("4", "none")
    warning = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(warning) == 1 and warning[0].startswith("warning: ")
    out = tmp_path / "settled"
    text = base_cfg(out, n=8, **grid, **{"coefficient.inclusion": "0 0 0.5 0.5 0.5"})
    assert run(tmp_path, text, "reconstruct") == 0
    assert read_kv(out / "params.txt")["sweep_stable"] == "true"
    assert capsys.readouterr().err == ""
    out = tmp_path / "fixed"
    text = base_cfg(out, n=8, **{"grid.nx": 2, "grid.ny": 2, "alpha.value": 0.5})
    assert run(tmp_path, text, "reconstruct") == 0
    assert "sweep_stable" not in read_kv(out / "params.txt")


def test_threads_below_one_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=4), "mesh", "--threads", "0") == 2
    assert "thread cap must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_out_flag_overrides_config_dir(tmp_path):
    ignored = tmp_path / "ignored"
    chosen = tmp_path / "chosen"
    assert run(tmp_path, base_cfg(ignored, n=4), "mesh", "--out", str(chosen)) == 0
    assert (chosen / "mesh.txt").exists()
    assert not ignored.exists()


def test_localize_multilevel_random_v(tmp_path):
    out = tmp_path / "out"
    text = base_cfg(out, seed=1,
                    **{"sigma.selector": "bottom",
                       "localize.b_box": "0.0 0.75 0.25 1.0",
                       "localize.d_box": "0.5 0.0 1.0 1.0",
                       "localize.v_dim": 2,
                       "localize.v_mode": "random",
                       "localize.segments": "4 8"})
    assert run(tmp_path, text, "localize") == 0
    rows = (out / "localize.csv").read_text().splitlines()
    assert rows[0] == "dim,ratio,b_energy,d_energy,floor"
    assert len(rows) == 3
    for ln in rows[1:]:
        dim, ratio, b_energy, d_energy, floor = ln.split(",")
        assert float(ratio) > 0.0
        assert float(b_energy) > 0.0
        assert float(ratio) == float(b_energy) / (float(d_energy) + float(floor))
    assert int(rows[2].split(",")[0]) == 8
    g_rows = (out / "g.csv").read_text().splitlines()
    assert len(g_rows) == 9


def test_localize_factors_once_for_every_level(tmp_path):
    # acceptance 6's configuration: three levels share one factorization, and
    # the floor leaves the first two ratios at their constrained maxima
    out = tmp_path / "out"
    text = base_cfg(out, n=32, **{"sigma.selector": "bottom", "localize.v_dim": 3,
                                  "localize.b_box": "0.0 0.75 0.25 1.0",
                                  "localize.d_box": "0.5 0.0 1.0 1.0",
                                  "localize.segments": "8 16 32"})
    assert run(tmp_path, text, "localize") == 0
    assert read_kv(out / "manifest.txt")["stat.factorizations"] == "1"
    rows = [ln.split(",") for ln in (out / "localize.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [8, 16, 32]
    assert float(rows[0][1]) == pytest.approx(0.38734, abs=1e-5)
    assert float(rows[1][1]) == pytest.approx(7.025, abs=1e-3)


def _localize_cfg(out, **more):
    keys = {"sigma.selector": "bottom", "localize.b_box": "0.0 0.75 0.25 1.0",
            "localize.segments": "4 8"}
    return base_cfg(out, n=8, **{**keys, **more})


def test_localize_first_modes_are_excluded_at_the_first_level(tmp_path):
    # v_mode = first excludes the first level's first basis functions: the
    # flux has no component along them
    out = tmp_path / "out"
    assert run(tmp_path, _localize_cfg(out, **{"localize.v_dim": 2,
                                               "localize.segments": "4"}), "localize") == 0
    rows = (out / "g.csv").read_text().splitlines()[1:]
    g = np.array([float(row.split(",")[1]) for row in rows])
    assert g.shape == (4,)
    assert abs(g[0]) <= 1e-10 and abs(g[1]) <= 1e-10


@pytest.mark.parametrize("key, value, message", [
    ("localize.b_box", "0.5 0.5 0.4 0.9", "degenerate box"),
    ("localize.d_box", "2 2 3 3", "selects no triangle"),
    ("coefficient.inclusion", "0.5 0.5 0.4 0.9 2.0", "degenerate box"),
    ("coefficient.inclusion", "2 2 3 3 2.0", "selects no triangle"),
])
def test_localize_refuses_a_bad_box_on_its_line(tmp_path, capsys, key, value, message):
    out = tmp_path / "out"
    text = _localize_cfg(out, **{key: value})
    lineno = text.splitlines().index(f"{key} = {value}") + 1
    assert run(tmp_path, text, "localize") == 2
    err = capsys.readouterr().err
    assert f"line {lineno}: key '{key}': " in err and message in err
    assert not (out / "localize.csv").exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_wavenumber_must_be_positive_and_finite(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run(tmp_path, _localize_cfg(out, k=value), "localize") == 2
    assert "line 2: k must be positive and finite" in capsys.readouterr().err
    assert not (out / "localize.csv").exists()


def test_localize_refuses_an_empty_level_list(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(tmp_path, _localize_cfg(out, **{"localize.segments": ""}), "localize") == 2
    assert "line 6: localize.segments lists no level" in capsys.readouterr().err


@pytest.mark.parametrize("command, more, key", [
    ("reconstruct", {"grid.nx": 0, "grid.ny": 2}, "grid.nx"),
    ("ntd", {"basis.segments": 0}, "basis.segments"),
    ("eigs", {"eigs.count": 0}, "eigs.count"),
    ("localize", {"sigma.selector": "bottom", "localize.b_box": "0.0 0.75 0.25 1.0",
                  "basis.segments": 8, "localize.v_dim": 500}, "localize.v_dim"),
])
def test_out_of_range_counts_are_refused_on_their_line_before_the_mesh(
        tmp_path, capsys, monkeypatch, command, more, key):
    def no_mesh(*args, **kwargs):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(cli, "build_unit_square_mesh", no_mesh)
    out = tmp_path / "out"
    text = base_cfg(out, n=8, **more)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key))
    assert run(tmp_path, text, command) == 2
    assert f"line {lineno}: {key} must be " in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, more, key, message", [
    ("ntd", {"basis.segments": 33}, "basis.segments", "segments must be between 1 and 32"),
    ("eigs", {"eigs.count": 82}, "eigs.count", "eigs.count must be between 1 and 81"),
    ("localize", {"localize.b_box": "0.0 0.75 0.25 1.0", "localize.v_dim": 32},
     "localize.v_dim", "localize.v_dim must be between 0 and 31"),
])
def test_counts_above_the_meshs_bound_are_refused_on_their_line(tmp_path, capsys, command,
                                                                more, key, message):
    # These bounds are the mesh's vertex or flagged-edge counts, known once
    # it is built, and are refused before any solve.
    out = tmp_path / "out"
    text = base_cfg(out, n=8, **more)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key))
    assert run(tmp_path, text, command) == 2
    err = capsys.readouterr().err
    assert f"line {lineno}: " in err and message in err
    assert list(out.iterdir()) == []


_GRID = {"grid.nx": 2, "grid.ny": 2}


@pytest.mark.parametrize("command, more, keys", [
    # a grid finer than the mesh leaves a pixel without a triangle
    ("reconstruct", {"grid.nx": 9, "grid.ny": 2}, ("grid.nx", "grid.ny")),
    ("eigs", {"coefficient.background": "inf"}, ("coefficient.background",)),
    ("eigs", {"coefficient.background": "nan"}, ("coefficient.background",)),
    ("eigs", {"coefficient.inclusion": "0 0 0.5 0.5 inf"}, ("coefficient.inclusion",)),
    ("eigs", {"coefficient.inclusion": "0 0 0.5 0.5 nan"}, ("coefficient.inclusion",)),
    ("reconstruct", {"grid.nx": 2, "grid.ny": 2, "alpha.value": -1}, ("alpha.value",)),
    ("reconstruct", {"grid.nx": 2, "grid.ny": 2, "alpha.value": 0}, ("alpha.value",)),
    ("reconstruct", {"grid.nx": 2, "grid.ny": 2, "alpha.value": "inf"}, ("alpha.value",)),
    ("reconstruct", {"grid.nx": 2, "grid.ny": 2, "alpha.policy": "fixed"},
     ("alpha.policy",)),
    ("mesh", {"mesh.domain": "unit_square"}, ("mesh.domain",)),
    # misspelt coefficient keys
    ("eigs", {"coefficient.backgrund": 5}, ("coefficient.backgrund",)),
    ("monotonicity-check", {"coefficient2.inclusoin": "0 0 0.5 0.5 2"},
     ("coefficient2.inclusoin",)),
    ("eigs", {"coefficient.inclusion.x": "0 0 0.5 0.5 2"}, ("coefficient.inclusion.x",)),
    # reconstruct's contrast preconditions, before any solve
    ("reconstruct", {**_GRID, "coefficient.background": 0.5}, ("coefficient.background",)),
    ("reconstruct", {**_GRID, "coefficient.background": 1.0}, ("coefficient.background",)),
    ("reconstruct", {**_GRID, "contrast": "negative", "coefficient.inclusion": "0 0 0.5 0.5 2"},
     ("coefficient.inclusion",)),
    # keys a subcommand accepts but does not read are checked too
    ("eigs", {"tol.count": -3}, ("tol.count",)),
    ("localize", {"localize.b_box": "0 0.75 0.25 1", "localize.segments": 4,
                  "basis.segments": 0}, ("basis.segments",)),
    ("mesh", {"k": 0}, ("k",)),
    # refused before a pixel is allocated: each pixel needs a triangle
    ("reconstruct", {"grid.nx": 100000, "grid.ny": 100000}, ("grid.nx", "grid.ny")),
])
def test_refused_values_exit_2_on_their_lines(tmp_path, capsys, command, more, keys):
    out = tmp_path / "out"
    text = base_cfg(out, n=4, **more)
    assert run(tmp_path, text, command) == 2
    err = capsys.readouterr().err
    for key in keys:
        lineno = next(i for i, line in enumerate(text.splitlines(), 1)
                      if line.startswith(f"{key} = "))
        assert f"line {lineno}: " in err and key in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("more, message", [
    ({"coefficient.background": 0.5},
     "line 6: key 'coefficient.background': "
     "positive contrast requires q >= 1 everywhere (min is 0.5)"),
    ({"coefficient.background": 1.0},
     "line 6: key 'coefficient.background': "
     "no triangle has q > 1; give alpha explicitly for a no-scatterer run"),
    ({"coefficient.background": 1.0, "coefficient.inclusion": "0 0 0.5 0.5 2",
      "contrast": "negative"},
     "line 6: key 'coefficient.background', line 7: key 'coefficient.inclusion': "
     "negative contrast requires q <= 1 everywhere (max is 2)"),
])
def test_contrast_preconditions_keep_their_messages_on_the_coefficient_lines(
        tmp_path, capsys, more, message):
    out = tmp_path / "out"
    assert run(tmp_path, base_cfg(out, n=4, **_GRID, **more), "reconstruct") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_SHARED_KEYS = {"mesh.n", "sigma.selector", "output.dir", "seed", "k", "tol.count",
                "basis.segments"}
_Q1_KEYS = {"coefficient.background", "coefficient.inclusion", "coefficient.inclusion.0"}
_Q2_KEYS = _Q1_KEYS | {"coefficient2.background", "coefficient2.inclusion",
                       "coefficient2.inclusion.12"}
# Each subcommand's keys before the key table, less what its coefficient
# prefixes let through unread: coefficient2.* outside the comparisons and
# every coefficient key but background and inclusion[.<int>].
_ACCEPTED = {
    "mesh": _SHARED_KEYS,
    "eigs": _SHARED_KEYS | _Q1_KEYS | {"eigs.count"},
    "dq": _SHARED_KEYS | _Q1_KEYS,
    "resonance-scan": (_SHARED_KEYS - {"k"}) | _Q1_KEYS | {"scan.k_min", "scan.k_max",
                                                           "scan.steps"},
    "ntd": _SHARED_KEYS | _Q1_KEYS,
    "identity-check": _SHARED_KEYS | _Q2_KEYS | {"g.mode"},
    "monotonicity-check": _SHARED_KEYS | _Q2_KEYS,
    "localize": _SHARED_KEYS | _Q1_KEYS | {"localize.b_box", "localize.d_box",
                                           "localize.v_dim", "localize.v_mode",
                                           "localize.segments"},
    "reconstruct": _SHARED_KEYS | _Q1_KEYS | {"grid.nx", "grid.ny", "contrast",
                                              "alpha.value"},
}


def _accepts(command, key):
    """Does ``command`` take ``key``?  An empty value may still be refused."""
    try:
        cli.Config({key: ("", 1)}, command)
    except ConfigError as exc:
        return "unknown key" not in str(exc)
    return True


def test_each_subcommand_accepts_the_keys_it_accepted_before_the_key_table():
    probes = set().union(*_ACCEPTED.values()) | {
        "coefficient.backgrund", "coefficient2.inclusoin", "coefficient.inclusion0",
        "alpha.policy", "mesh.domain", "eigs", "inclusion.0"}
    assert set(cli._COMMANDS) == set(_ACCEPTED)
    assert set(cli._KEYS) <= probes
    for command, accepted in _ACCEPTED.items():
        assert {key for key in probes if _accepts(command, key)} == accepted, command


def test_readme_names_every_accepted_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = [key for key in cli._KEYS if not re.search(
        rf"(?<![\w.]){re.escape(key)}(?!\w)", readme)]
    assert {"k", "coefficient.inclusion", "coefficient2.background", "alpha.value"} \
        <= set(cli._KEYS)
    assert missing == []


def test_parse_config_text_details():
    entries = parse_config_text("# intro\n\na.b = 1\nc = two words\n")
    assert entries["a.b"] == ("1", 3)
    assert entries["c"] == ("two words", 4)
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnonsense\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


def test_config_values_parse_with_line_precise_errors():
    text = ("k = 1.5\nmesh.n = 3\nlocalize.b_box = 0 0 0.5 1\nlocalize.segments = 4 8\n"
            "coefficient.inclusion.2 = 0 0 1 1 2\n")
    cfg = cli.Config(parse_config_text(text), "localize")
    assert (cfg["k"], cfg["mesh.n"]) == (1.5, 3)
    assert (cfg["localize.b_box"], cfg["localize.segments"]) == ([0.0, 0.0, 0.5, 1.0], [4, 8])
    assert cfg["coefficient.inclusion.2"] == (2, 0.0, 0.0, 1.0, 1.0, 2.0)
    assert (cfg["localize.d_box"], cfg["localize.v_mode"], cfg["seed"]) == (None, "first", 0)
    with pytest.raises(ConfigError, match="missing required key 'localize.b_box'"):
        cli.Config(parse_config_text("mesh.n = 3\n"), "localize")["localize.b_box"]
    for command, line, message in (
            ("eigs", "coefficient.background = x",
             "line 1: key 'coefficient.background': not a number: 'x'"),
            ("mesh", "mesh.n = 1.5", "line 1: key 'mesh.n': not an integer: '1.5'"),
            ("localize", "localize.b_box = 1 x",
             "line 1: key 'localize.b_box': expected numbers, got '1 x'"),
            ("localize", "localize.segments = 1 x",
             "line 1: key 'localize.segments': expected integers, got '1 x'"),
            ("localize", "localize.b_box = 1 2 3",
             "line 1: key 'localize.b_box': expected 4 numbers, got 3"),
            ("reconstruct", "contrast = sideways",
             "line 1: key 'contrast': expected one of ['negative', 'positive'], got 'sideways'"),
            ("eigs", "coefficient.inclusion.x = 0 0 1 1 2",
             "line 1: key 'coefficient.inclusion.x': inclusion index must be an integer"),
            ("eigs", "coefficient.backgrund = 5",
             "line 1: unknown key 'coefficient.backgrund' for this subcommand"),
            ("mesh", "coefficient.background = 1",
             "line 1: unknown key 'coefficient.background' for this subcommand")):
        with pytest.raises(ConfigError) as info:
            cli.Config(parse_config_text(line + "\n"), command)
        assert str(info.value) == message


def test_pgm_roundtrip_orientation(tmp_path):
    values = np.array([[0, 128], [255, 0]])
    path = tmp_path / "img.pgm"
    write_pgm(path, values)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["P2", "2 2", "255"]
    assert lines[3] == "255 0"  # top row first: values[1]
    assert lines[4] == "0 128"
    assert np.array_equal(read_pgm(path), values)
    with pytest.raises(InvalidParameterError):
        write_pgm(path, np.array([[300]]))


def test_symop_csv_validation(tmp_path):
    op = make_symop(np.eye(3), "abc", "thing", 2.0)
    path = tmp_path / "op.csv"
    write_symop_csv(path, op)
    back = read_symop_csv(path)
    assert back.label == "thing"
    assert back.k == 2.0
    assert np.array_equal(back.matrix, op.matrix)
    mesh = mark_sigma(build_unit_square_mesh(4), "all")
    with pytest.raises(InvalidParameterError, match="does not match basis"):
        read_symop_csv(path, boundary_basis(mesh))
    path.write_text("just,two\n")
    with pytest.raises(InvalidParameterError, match="malformed header"):
        read_symop_csv(path)


def test_sparse_and_operator_dumps_have_exact_bytes(tmp_path):
    path = tmp_path / "sparse.csv"
    # entries out of order: the dump is row-major
    write_sparse_csv(path, sp.coo_matrix(([-1.0 / 3.0, 0.1, 2.0], ([1, 0, 1], [1, 1, 0]))))
    assert path.read_bytes() == (b"row,col,value\n0,1,0.10000000000000001\n1,0,2\n"
                                 b"1,1,-0.33333333333333331\n")
    write_symop_csv(path, make_symop(np.array([[1.0, 0.1], [0.1, 2.5]]), "b", "lam", 2.5))
    assert path.read_bytes() == b"lam,2.5,2\n1,0.10000000000000001\n0.10000000000000001,2.5\n"

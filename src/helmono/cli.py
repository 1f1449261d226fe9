"""Command-line driver for mesh, spectra, operators and reconstructions.

Every subcommand reads one flat key-value configuration file (``key = value``
per line, ``#`` comments), writes its artifacts into an output directory and
leaves a run manifest there, also on exit 3 or 4 (with ``stat.exit_code``).
Domain failures map to distinct exit codes:

* 2 -- configuration problems (unknown keys, missing values, bad types or values)
* 3 -- resonant configuration (the forward operator is singular)
* 4 -- ambiguous eigenvalue count at the requested tolerance, undecided comparison
* 5 -- violated precondition of a library operation

Outputs are deterministic: rerunning a subcommand with the same configuration
and seed reproduces every artifact byte for byte (manifest timing lines aside).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, HelmonoError, InvalidParameterError, ResonanceError, \
    SpectralAmbiguityError
from .fem import Coefficient, HelmholtzSystem, counting
from .io import (
    fmt,
    parse_config_text,
    write_eigs_csv,
    write_manifest,
    write_mesh_text,
    write_pgm,
    write_sparse_csv,
    write_symop_csv,
    write_table_csv,
    write_vector_csv,
)
from .mesh import build_unit_square_mesh, empty_region, mark_sigma, pixel_grid, rect_region
from .monotone import identity_residual, monotonicity_check, reconstruct
from .ntd import (
    basis_edge_values,
    basis_load_matrix,
    boundary_basis,
    localized_potential,
    ntd_matrix,
    project_onto_basis,
)
from .spectral import (
    _at_zero,
    count_K_eigs_above_one,
    nearest_neumann_eigenvalue,
    neumann_eigenvalues,
    one_blas_thread,
)

_REQUIRED = object()


class Config:
    """Typed access to parsed configuration entries with line-precise errors."""

    def __init__(self, entries: dict):
        self._entries = entries

    def keys(self):
        return list(self._entries)

    def pairs(self):
        return [(k, v) for k, (v, _) in self._entries.items()]

    def has(self, key: str) -> bool:
        return key in self._entries

    def _fetch(self, key: str, default):
        if key in self._entries:
            return self._entries[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        return None

    def get_str(self, key: str, default=_REQUIRED, choices=None):
        entry = self._fetch(key, default)
        if entry is None:
            value = default
        else:
            value = entry[0]
        if value is not None and choices is not None and value not in choices:
            where = f"line {entry[1]}: " if entry else ""
            raise ConfigError(
                f"{where}key '{key}': expected one of {sorted(choices)}, got {value!r}"
            )
        return value

    def _parsed(self, key: str, default, parse, message: str):
        """``parse`` of the key's value, or ``default`` when it is absent."""
        entry = self._fetch(key, default)
        if entry is None:
            return default
        value, lineno = entry
        try:
            return parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key '{key}': {message} {value!r}") from exc

    def get_float(self, key: str, default=_REQUIRED):
        return self._parsed(key, default, float, "not a number:")

    def get_int(self, key: str, default=_REQUIRED):
        return self._parsed(key, default, int, "not an integer:")

    def get_floats(self, key: str, count=None, default=_REQUIRED):
        vals = self._parsed(key, default, lambda v: [float(x) for x in v.split()],
                            "expected numbers, got")
        if vals is not default and count is not None and len(vals) != count:
            raise ConfigError(f"line {self.lineno(key)}: key '{key}': expected {count} "
                              f"numbers, got {len(vals)}")
        return vals

    def get_ints(self, key: str, default=_REQUIRED):
        return self._parsed(key, default, lambda v: [int(x) for x in v.split()],
                            "expected integers, got")

    def lineno(self, key: str) -> int:
        return self._entries[key][1]

    @contextmanager
    def refusing(self, *keys: str):
        """Refuse an :class:`InvalidParameterError` raised in the block, by a
        library call that builds a value from ``keys``, as a configuration
        error on the keys' lines; an absent key names no line."""
        try:
            yield
        except InvalidParameterError as exc:
            where = ", ".join(f"line {self._entries[key][1]}: key '{key}'"
                              if key in self._entries else f"key '{key}'" for key in keys)
            raise ConfigError(f"{where}: {exc}") from exc

    def check_known(self, exact: set, prefixes: tuple = ()) -> None:
        for key, (_, lineno) in self._entries.items():
            if key in exact:
                continue
            if any(key.startswith(p) for p in prefixes):
                continue
            raise ConfigError(f"line {lineno}: unknown key '{key}' for this subcommand")


_BASE_KEYS = {"mesh.n", "sigma.selector", "output.dir", "seed", "k",
              "tol.count", "basis.segments"}
_COEFF_PREFIXES = ("coefficient.", "coefficient2.")


def _load_config(path) -> Config:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return Config(parse_config_text(text))


def _bounded(cfg: Config, key: str, value, least: int, most: Optional[int] = None):
    """``value`` of the integer ``key``, refused on the key's line outside
    ``[least, most]``."""
    if value is not None and not (least <= value and (most is None or value <= most)):
        where = f"line {cfg.lineno(key)}: " if cfg.has(key) else ""
        bound = f"at least {least}" if most is None else f"between {least} and {most}"
        raise ConfigError(f"{where}{key} must be {bound}, got {value}")
    return value


def _build_mesh(cfg: Config):
    mesh = build_unit_square_mesh(_bounded(cfg, "mesh.n", cfg.get_int("mesh.n"), 1))
    with cfg.refusing("sigma.selector"):
        return mark_sigma(mesh, cfg.get_str("sigma.selector", "all"))


def _inclusion_keys(cfg: Config, prefix: str):
    bare = f"{prefix}.inclusion"
    found = []
    for key in cfg.keys():
        if key == bare:
            found.append((-1, key))
        elif key.startswith(bare + "."):
            suffix = key[len(bare) + 1:]
            try:
                found.append((int(suffix), key))
            except ValueError:
                raise ConfigError(
                    f"line {cfg.lineno(key)}: key '{key}': inclusion index must be an integer"
                ) from None
    return [key for _, key in sorted(found)]


def _build_coefficient(cfg: Config, mesh, prefix: str = "coefficient") -> Coefficient:
    key = f"{prefix}.background"
    with cfg.refusing(key):
        coeff = Coefficient.constant(mesh, cfg.get_float(key, 1.0))
    for key in _inclusion_keys(cfg, prefix):
        region, (value,) = _box_region(cfg, mesh, key, extra=1)
        with cfg.refusing(key):
            coeff = coeff.with_region(region, value)
    return coeff


def _box_region(cfg: Config, mesh, key: str, extra: int = 0):
    """The region of the box ``x0 y0 x1 y1`` that leads the key's value, and
    the ``extra`` numbers after it.  A box ``rect_region`` refuses is a
    configuration error on the key's line."""
    vals = cfg.get_floats(key, count=4 + extra)
    with cfg.refusing(key):
        return rect_region(mesh, vals[:4]), vals[4:]


def _segments(cfg: Config):
    """``basis.segments``, at least 1, or None when absent (one function per edge)."""
    return _bounded(cfg, "basis.segments", cfg.get_int("basis.segments", None), 1)


def _build_basis(cfg: Config, mesh, segments, key: str = "basis.segments"):
    """The basis of ``segments`` groups; more groups than flagged edges is a
    configuration error on the key's line."""
    with cfg.refusing(key):
        return boundary_basis(mesh, segments)


def _positive(cfg: Config, key: str, default=_REQUIRED) -> Optional[float]:
    """The number ``key``, refused on its line unless positive and finite;
    None when it is absent and ``default`` is None."""
    value = cfg.get_float(key, default)
    if value is not None and not (value > 0.0 and np.isfinite(value)):
        raise ConfigError(f"line {cfg.lineno(key)}: {key} must be positive and finite")
    return value


def _out_dir(cfg: Config, args) -> Path:
    out = args.out or cfg.get_str("output.dir", None)
    if out is None:
        raise ConfigError("no output directory: set output.dir or pass --out")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path or one of its parents is a file
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc
    return path


def _note(path: Path) -> None:
    print(f"wrote {path}")


def cmd_mesh(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(_BASE_KEYS)
    mesh = _build_mesh(cfg)
    write_mesh_text(outdir / "mesh.txt", mesh)
    _note(outdir / "mesh.txt")


def cmd_eigs(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(_BASE_KEYS | {"eigs.count"}, _COEFF_PREFIXES)
    count = _bounded(cfg, "eigs.count", cfg.get_int("eigs.count", 5), 1)
    mesh = _build_mesh(cfg)
    _bounded(cfg, "eigs.count", count, 1, mesh.n_vertices)
    q = _build_coefficient(cfg, mesh)
    k = _positive(cfg, "k")
    result = neumann_eigenvalues(mesh, q, k, count)
    write_eigs_csv(outdir / "eigs.csv", result.values)
    _note(outdir / "eigs.csv")


def cmd_dq(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(_BASE_KEYS, _COEFF_PREFIXES)
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    k = _positive(cfg, "k")
    tol = _positive(cfg, "tol.count", None)
    zero = _at_zero(mesh, q, k, tol)
    d = zero.decided()
    try:
        via_k, undecided = count_K_eigs_above_one(mesh, q, k, tol), None
    except SpectralAmbiguityError as exc:  # dq.txt says so, then the run exits 4
        via_k, undecided = "undecided", exc
    agree = "undecided" if undecided else "true" if d == via_k else "false"
    text = (
        f"d_of_q = {d}\n"
        f"nearest_eigenvalue = {fmt(zero.nearest)}\n"
        f"tol = {fmt(zero.tol)}\n"
        f"count_K_eigs_above_one = {via_k}\n"
        f"agree = {agree}\n"
    )
    (outdir / "dq.txt").write_text(text)
    print(text, end="")
    _note(outdir / "dq.txt")
    if undecided:
        raise undecided


def cmd_resonance_scan(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(
        (_BASE_KEYS - {"k"}) | {"scan.k_min", "scan.k_max", "scan.steps"},
        _COEFF_PREFIXES,
    )
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    k_min, k_max = _positive(cfg, "scan.k_min"), _positive(cfg, "scan.k_max")
    if not k_min < k_max:
        raise ConfigError(f"line {cfg.lineno('scan.k_max')}: scan.k_max must exceed scan.k_min")
    steps = _bounded(cfg, "scan.steps", cfg.get_int("scan.steps"), 2)
    ks = np.linspace(k_min, k_max, steps)
    nearest = [nearest_neumann_eigenvalue(mesh, q, k) for k in ks]
    write_table_csv(outdir / "scan.csv", ["k", "lambda_nearest_zero"],
                    zip(ks, nearest))
    brackets = []
    for i in range(len(ks) - 1):
        if np.sign(nearest[i]) * np.sign(nearest[i + 1]) < 0:
            brackets.append((ks[i], ks[i + 1]))
    write_table_csv(outdir / "brackets.csv", ["k_lo", "k_hi"], brackets)
    _note(outdir / "scan.csv")
    _note(outdir / "brackets.csv")
    print(f"{len(brackets)} resonance bracket(s) in [{fmt(k_min)}, {fmt(k_max)}]")


def cmd_ntd(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(_BASE_KEYS, _COEFF_PREFIXES)
    segments = _segments(cfg)
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    k = _positive(cfg, "k")
    basis = _build_basis(cfg, mesh, segments)
    system = HelmholtzSystem(mesh, q, k, sigma_last=True)
    write_symop_csv(outdir / "ntd.csv", ntd_matrix(mesh, q, k, basis, system=system))
    _note(outdir / "ntd.csv")
    if args.dump_matrices:
        write_sparse_csv(outdir / "system_matrix.csv", system.matrix)
        write_sparse_csv(outdir / "load_matrix.csv", basis_load_matrix(mesh, basis))
        _note(outdir / "system_matrix.csv")
        _note(outdir / "load_matrix.csv")


def cmd_identity_check(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(_BASE_KEYS | {"g.mode"}, _COEFF_PREFIXES)
    segments = _segments(cfg)
    mesh = _build_mesh(cfg)
    q1 = _build_coefficient(cfg, mesh, "coefficient")
    q2 = _build_coefficient(cfg, mesh, "coefficient2")
    k = _positive(cfg, "k")
    basis = _build_basis(cfg, mesh, segments)
    mode = cfg.get_str("g.mode", "first", choices={"first", "random"})
    seed = cfg.get_int("seed", 0)
    if mode == "first":
        g = np.zeros(basis.dim)
        g[0] = 1.0
    else:
        g = np.random.default_rng(seed).standard_normal(basis.dim)
        g /= np.linalg.norm(g)
    residual = identity_residual(mesh, q1, q2, k, basis, g)
    text = f"g_mode = {mode}\nresidual = {fmt(residual)}\n"
    (outdir / "identity.txt").write_text(text)
    print(text, end="")
    _note(outdir / "identity.txt")


def cmd_monotonicity_check(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(_BASE_KEYS, _COEFF_PREFIXES)
    segments = _segments(cfg)
    mesh = _build_mesh(cfg)
    q1 = _build_coefficient(cfg, mesh, "coefficient")
    q2 = _build_coefficient(cfg, mesh, "coefficient2")
    k = _positive(cfg, "k")
    basis = _build_basis(cfg, mesh, segments)
    result = monotonicity_check(mesh, q1, q2, k, basis, _positive(cfg, "tol.count", None))
    verdict = ("true" if result.verdict else "false") if result.decided else "undecided"
    text = (
        f"negative_count = {result.negative_count}\n"
        f"indeterminate_count = {result.indeterminate_count}\n"
        f"d_allowed = {result.d_allowed}\n"
        f"tol = {fmt(result.tol)}\n"
        f"verdict = {verdict}\n"
    )
    (outdir / "comparison.txt").write_text(text)
    print(text, end="")
    _note(outdir / "comparison.txt")
    if not result.decided:
        raise SpectralAmbiguityError(f"undecided comparison: {result.indeterminate_count}"
                                     f" eigenvalue(s) in the window around -{fmt(result.tol)}")


def cmd_localize(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(
        _BASE_KEYS | {"localize.b_box", "localize.d_box", "localize.v_dim",
                      "localize.v_mode", "localize.segments"},
        _COEFF_PREFIXES,
    )
    v_mode = cfg.get_str("localize.v_mode", "first", choices={"first", "random"})
    levels = cfg.get_ints("localize.segments", None)
    if levels is None:
        key, levels = "basis.segments", [_segments(cfg)]
    elif not levels:
        raise ConfigError(f"line {cfg.lineno('localize.segments')}: "
                          f"localize.segments lists no level")
    else:
        key = "localize.segments"
        for segments in levels:
            _bounded(cfg, key, segments, 1)
    # a level of segments has that dimension; one function per edge needs the mesh
    v_dim = _bounded(cfg, "localize.v_dim", cfg.get_int("localize.v_dim", 0), 0,
                     None if None in levels else min(levels) - 1)
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    k = _positive(cfg, "k")
    region_b, _ = _box_region(cfg, mesh, "localize.b_box")
    if cfg.has("localize.d_box"):
        region_d, _ = _box_region(cfg, mesh, "localize.d_box")
    else:
        region_d = empty_region(mesh)

    bases = [_build_basis(cfg, mesh, segments, key) for segments in levels]
    _bounded(cfg, "localize.v_dim", v_dim, 0, min(basis.dim for basis in bases) - 1)
    # V is given as modes of the first level's basis and carried to every
    # level, the first included, by the same projection
    coarse = bases[0]
    if v_mode == "first":
        v_coarse = np.eye(coarse.dim)[:, :v_dim]
    else:
        v_coarse = np.random.default_rng(cfg.get_int("seed", 0)).standard_normal(
            (coarse.dim, v_dim))

    rows = []
    for basis in bases:
        v = project_onto_basis(basis, basis_edge_values(coarse, v_coarse))
        result = localized_potential(mesh, q, k, basis, region_b, region_d, v)
        rows.append((basis.dim, result.ratio, result.b_energy, result.d_energy))
    write_table_csv(outdir / "localize.csv",
                    ["dim", "ratio", "b_energy", "d_energy"], rows)
    write_vector_csv(outdir / "g.csv", result.g)
    _note(outdir / "localize.csv")
    _note(outdir / "g.csv")
    for dim, ratio, be, de in rows:
        print(f"dim {dim}: ratio {fmt(ratio)}, target energy {fmt(be)}, "
              f"avoided energy {fmt(de)}")


def cmd_reconstruct(cfg: Config, args, outdir: Path) -> None:
    cfg.check_known(
        _BASE_KEYS | {"grid.nx", "grid.ny", "contrast", "alpha.value"},
        _COEFF_PREFIXES,
    )
    contrast = cfg.get_str("contrast", "positive", choices={"positive", "negative"})
    # Without alpha.value, positive contrast derives alpha and negative sweeps it.
    alpha = _positive(cfg, "alpha.value", None)
    nx, ny = (_bounded(cfg, key, cfg.get_int(key), 1) for key in ("grid.nx", "grid.ny"))
    segments = _segments(cfg)
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    k = _positive(cfg, "k")
    basis = _build_basis(cfg, mesh, segments)
    with cfg.refusing("grid.nx", "grid.ny"):
        grid = pixel_grid(mesh, nx, ny)

    result = reconstruct(mesh, q, k, basis, grid, contrast=contrast, alpha=alpha,
                         tol=_positive(cfg, "tol.count", None))

    # Certified pixels were never counted; result.negative_counts would count them.
    rows = []
    for p, c in enumerate(result.counts):
        iy, ix = divmod(p, grid.nx)
        x0, y0, x1, y1 = grid.boxes[p]
        cells = ("certified", "certified") if c is None else (c.negative, c.indeterminate)
        rows.append((p, ix, iy, x0, y0, x1, y1, *cells, bool(result.mask[p])))
    write_table_csv(
        outdir / "reconstruct.csv",
        ["pixel", "ix", "iy", "x0", "y0", "x1", "y1",
         "negative_count", "indeterminate_count", "accepted"],
        rows,
    )
    write_pgm(outdir / "mask.pgm", result.pixel_values().reshape(grid.ny, grid.nx))
    params = result.params
    text = ""
    for key in ("k", "alpha", "d_max", "basis_dim", "tol", "contrast"):
        v = params[key]
        text += f"{key} = {fmt(v) if isinstance(v, float) else 'none' if v is None else v}\n"
    if result.sweep is not None:
        stable = params["sweep_stable"]
        text += f"sweep_stable = {'true' if stable else 'false'}\n"
        text += f"certified = {sum(c is None for c in result.counts)}\n"
        if not stable:
            print(f"warning: the alpha sweep found no stable accepted set; "
                  f"reporting the smallest alpha {fmt(params['alpha'])}", file=sys.stderr)
        write_table_csv(outdir / "sweep.csv", ["alpha", "accepted_count"], result.sweep)
        _note(outdir / "sweep.csv")
    (outdir / "params.txt").write_text(text)
    _note(outdir / "reconstruct.csv")
    _note(outdir / "mask.pgm")
    _note(outdir / "params.txt")
    print(f"accepted {int(result.mask.sum())} of {grid.nx * grid.ny} pixels")


_COMMANDS = {
    "mesh": cmd_mesh,
    "eigs": cmd_eigs,
    "dq": cmd_dq,
    "resonance-scan": cmd_resonance_scan,
    "ntd": cmd_ntd,
    "identity-check": cmd_identity_check,
    "monotonicity-check": cmd_monotonicity_check,
    "localize": cmd_localize,
    "reconstruct": cmd_reconstruct,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmono",
        description="Monotonicity-based scatterer detection for the 2D "
                    "Helmholtz Neumann problem.",
    )
    parser.add_argument("--version", action="version", version=f"helmono {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("config", help="path to the flat key-value configuration file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides output.dir)")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="accepted for compatibility and changes nothing "
                            "(at least 1; default: the CPU count): every "
                            "subcommand runs on one thread under a one-thread "
                            "BLAS limit")
        p.add_argument("--dump-matrices", action="store_true",
                       help="also dump system matrix and load vectors (debug)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    failure = None
    try:
        if args.threads < 1:
            raise ConfigError("thread cap must be at least 1")
        cfg = _load_config(args.config)
        outdir = _out_dir(cfg, args)
        seed = _bounded(cfg, "seed", cfg.get_int("seed", 0), 0)  # before any artifact
        # One thread for everything: the BLAS pools cost more than they gain
        # at these sizes and would make the counts' last bits vary.
        with one_blas_thread() as capped, counting() as tally:
            try:
                _COMMANDS[args.command](cfg, args, outdir)
            except (ResonanceError, SpectralAmbiguityError) as exc:
                failure = exc  # a numerical outcome: the manifest explains it too
        stats = [("blas_one_thread", "true" if capped else "false")]
        for group in (("factorizations", "ntd.trailing", "ntd.solved"),
                      ("defect.inertia", "defect.sweep"),
                      ("counts.dense", "probes.built", "counts.certified",
                       "pixels.undecided")):
            if any(tally[name] for name in group):
                stats += [(name, tally[name]) for name in group]
        stats += [("exit_code", failure.exit_code)] if failure else []
        write_manifest(
            outdir / "manifest.txt",
            args.command,
            cfg.pairs(),
            seed,
            [("total", time.perf_counter() - started)],
            stats,
        )
        if failure is not None:
            raise failure
    except HelmonoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())

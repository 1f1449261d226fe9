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
    SpectralAmbiguityError, checked_count, checked_positive
from .fem import Coefficient, HelmholtzSystem, counting
from .io import (
    fmt,
    read_config,
    write_eigs_csv,
    write_key_values,
    write_manifest,
    write_mesh_text,
    write_pgm,
    write_sparse_csv,
    write_symop_csv,
    write_table_csv,
    write_vector_csv,
)
from .mesh import _side_names, build_unit_square_mesh, empty_region, mark_sigma, pixel_grid, \
    rect_region
from .monotone import contrast_alpha, identity_residual, monotonicity_check, reconstruct
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
    neumann_eigenvalues,
    one_blas_thread,
)

_REQUIRED = object()


def _checked(cfg: Optional[Config], key: str, check, value, *bounds):
    """``check(value, key, *bounds)``, a shared check of :mod:`helmono.errors`,
    refused as a :class:`ConfigError` on the line of ``key`` if ``cfg`` has one."""
    try:
        return check(value, key, *bounds)
    except InvalidParameterError as exc:
        where = f"line {cfg.lineno(key)}: " if cfg is not None and cfg.has(key) else ""
        raise ConfigError(f"{where}{exc}") from None


# The kinds of the key table: each parses a present key's text, refusing it
# on the key's line.
def _parsed(cfg: Config, key: str, text: str, parse, message: str):
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"line {cfg.lineno(key)}: key '{key}': {message} {text!r}") from None


def _count(least: int):
    """An integer of at least ``least``."""
    return lambda cfg, key, text: _checked(
        cfg, key, checked_count, _parsed(cfg, key, text, int, "not an integer:"), least)


def _number(cfg: Config, key: str, text: str) -> float:
    return _parsed(cfg, key, text, float, "not a number:")


def _positive_number(cfg: Config, key: str, text: str) -> float:
    """A positive, finite number."""
    return _checked(cfg, key, checked_positive, _number(cfg, key, text))


def _numbers(count: int):
    """``count`` numbers: a box ``x0 y0 x1 y1`` and the values after it."""
    def kind(cfg: Config, key: str, text: str) -> list:
        vals = _parsed(cfg, key, text, lambda v: [float(x) for x in v.split()],
                       "expected numbers, got")
        if len(vals) != count:
            raise ConfigError(f"line {cfg.lineno(key)}: key '{key}': expected {count} "
                              f"numbers, got {len(vals)}")
        return vals
    return kind


def _inclusion(cfg: Config, key: str, text: str) -> tuple:
    """The index (-1 for the bare key), box and value of
    ``<prefix>.inclusion[.<int>]``."""
    suffix = key.partition(".inclusion")[2]
    try:
        index = int(suffix[1:]) if suffix else -1
    except ValueError:
        raise ConfigError(
            f"line {cfg.lineno(key)}: key '{key}': inclusion index must be an integer"
        ) from None
    return index, *_numbers(5)(cfg, key, text)


def _levels(cfg: Config, key: str, text: str) -> list:
    """A nonempty list of segment counts, each at least 1."""
    levels = _parsed(cfg, key, text, lambda v: [int(x) for x in v.split()],
                     "expected integers, got")
    if not levels:
        raise ConfigError(f"line {cfg.lineno(key)}: {key} lists no level")
    for segments in levels:
        _checked(cfg, key, checked_count, segments, 1)
    return levels


def _choice(*choices: str):
    def kind(cfg: Config, key: str, text: str) -> str:
        if text not in choices:
            raise ConfigError(f"line {cfg.lineno(key)}: key '{key}': expected one of "
                              f"{sorted(choices)}, got {text!r}")
        return text
    return kind


def _string(cfg: Config, key: str, text: str) -> str:
    return text


def _selector(cfg: Config, key: str, text: str) -> str:
    """Side names of the unit square, joined by ``+`` or whitespace."""
    with cfg.refusing(key):
        _side_names(text)
    return text


_ONE_Q = {"eigs", "dq", "resonance-scan", "ntd", "localize", "reconstruct"}
_TWO_Q = {"identity-check", "monotonicity-check"}
_EVERY = {"mesh"} | _ONE_Q | _TWO_Q

# Every accepted key: its kind, its default (or _REQUIRED) and the subcommands
# that accept it.  "<prefix>.inclusion" also names "<prefix>.inclusion.<int>".
# A subcommand checks every key it accepts, also one it does not read.
_KEYS = {
    "mesh.n": (_count(1), _REQUIRED, _EVERY),
    "sigma.selector": (_selector, "all", _EVERY),
    "output.dir": (_string, None, _EVERY),
    "seed": (_count(0), 0, _EVERY),
    "k": (_positive_number, _REQUIRED, _EVERY - {"resonance-scan"}),
    "tol.count": (_positive_number, None, _EVERY),
    "basis.segments": (_count(1), None, _EVERY),
    "coefficient.background": (_number, 1.0, _ONE_Q | _TWO_Q),
    "coefficient.inclusion": (_inclusion, None, _ONE_Q | _TWO_Q),
    "coefficient2.background": (_number, 1.0, _TWO_Q),
    "coefficient2.inclusion": (_inclusion, None, _TWO_Q),
    "eigs.count": (_count(1), 5, {"eigs"}),
    "scan.k_min": (_positive_number, _REQUIRED, {"resonance-scan"}),
    "scan.k_max": (_positive_number, _REQUIRED, {"resonance-scan"}),
    "scan.steps": (_count(2), _REQUIRED, {"resonance-scan"}),
    "g.mode": (_choice("first", "random"), "first", {"identity-check"}),
    "localize.b_box": (_numbers(4), _REQUIRED, {"localize"}),
    "localize.d_box": (_numbers(4), None, {"localize"}),
    "localize.v_dim": (_count(0), 0, {"localize"}),
    "localize.v_mode": (_choice("first", "random"), "first", {"localize"}),
    "localize.segments": (_levels, None, {"localize"}),
    "grid.nx": (_count(1), _REQUIRED, {"reconstruct"}),
    "grid.ny": (_count(1), _REQUIRED, {"reconstruct"}),
    "contrast": (_choice("positive", "negative"), "positive", {"reconstruct"}),
    "alpha.value": (_positive_number, None, {"reconstruct"}),
}


def _row(key: str) -> str:
    """The name of the table row that covers ``key``."""
    head, indexed, _ = key.partition(".inclusion.")
    return head + ".inclusion" if indexed else key


class Config:
    """The configuration of one subcommand: every key checked against the key
    table and parsed to its kind on construction, with line-precise errors."""

    def __init__(self, entries: dict, command: str):
        self._entries = entries
        self._values = {}
        for key, (text, lineno) in entries.items():
            kind, _, commands = _KEYS.get(_row(key), (None, None, ()))
            if command not in commands:
                raise ConfigError(f"line {lineno}: unknown key '{key}' for this subcommand")
            self._values[key] = kind(self, key, text)

    def __getitem__(self, key: str):
        """The parsed value of ``key``, or its default when it is absent."""
        if key in self._values:
            return self._values[key]
        default = _KEYS[_row(key)][1]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        return default

    def keys(self):
        return list(self._entries)

    def has(self, key: str) -> bool:
        return key in self._entries

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


def _build_mesh(cfg: Config):
    return mark_sigma(build_unit_square_mesh(cfg["mesh.n"]), cfg["sigma.selector"])


def _inclusion_keys(cfg: Config, prefix: str):
    return sorted((key for key in cfg.keys() if _row(key) == f"{prefix}.inclusion"),
                  key=lambda key: (cfg[key][0], key))


def _build_coefficient(cfg: Config, mesh, prefix: str = "coefficient") -> Coefficient:
    key = f"{prefix}.background"
    with cfg.refusing(key):
        coeff = Coefficient.constant(mesh, cfg[key])
    for key in _inclusion_keys(cfg, prefix):
        _, *box, value = cfg[key]
        with cfg.refusing(key):
            coeff = coeff.with_region(rect_region(mesh, box), value)
    return coeff


def _out_dir(entries: dict, args) -> Path:
    out = args.out if args.out is not None else entries.get("output.dir", (None,))[0]
    if not out:
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
    mesh = _build_mesh(cfg)
    write_mesh_text(outdir / "mesh.txt", mesh)
    _note(outdir / "mesh.txt")


def cmd_eigs(cfg: Config, args, outdir: Path) -> None:
    mesh = _build_mesh(cfg)
    count = (_checked(cfg, "eigs.count", checked_count, cfg["eigs.count"], 1, mesh.n_vertices)
             if cfg.has("eigs.count") else min(cfg["eigs.count"], mesh.n_vertices))
    q = _build_coefficient(cfg, mesh)
    values = neumann_eigenvalues(mesh, q, cfg["k"], count)
    write_eigs_csv(outdir / "eigs.csv", values)
    _note(outdir / "eigs.csv")


def cmd_dq(cfg: Config, args, outdir: Path) -> None:
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    k, tol = cfg["k"], cfg["tol.count"]
    zero = _at_zero(mesh, q, k, tol)
    d = zero.decided()
    try:
        via_k, undecided = count_K_eigs_above_one(mesh, q, k, tol), None
    except SpectralAmbiguityError as exc:  # dq.txt says so, then the run exits 4
        via_k, undecided = "undecided", exc
    text = write_key_values(outdir / "dq.txt", [
        ("d_of_q", d), ("nearest_eigenvalue", zero.nearest), ("tol", zero.tol),
        ("count_K_eigs_above_one", via_k),
        ("agree", "undecided" if undecided else d == via_k)])
    print(text, end="")
    _note(outdir / "dq.txt")
    if undecided:
        raise undecided


def cmd_resonance_scan(cfg: Config, args, outdir: Path) -> None:
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    k_min, k_max = cfg["scan.k_min"], cfg["scan.k_max"]
    if not k_min < k_max:
        raise ConfigError(f"line {cfg.lineno('scan.k_max')}: scan.k_max must exceed scan.k_min")
    ks = np.linspace(k_min, k_max, cfg["scan.steps"])
    steps = [_at_zero(mesh, q, k) for k in ks]  # one factorization per step
    write_table_csv(outdir / "scan.csv", ["k", "lambda_nearest_zero", "d"],
                    [(k, step.nearest, step.d) for k, step in zip(ks, steps)])
    # d counts the eigenvalues above zero: its change is the net crossings
    brackets = [(k_lo, k_hi, hi.d - lo.d) for k_lo, k_hi, lo, hi
                in zip(ks, ks[1:], steps, steps[1:]) if hi.d != lo.d]
    write_table_csv(outdir / "brackets.csv", ["k_lo", "k_hi", "crossings"], brackets)
    _note(outdir / "scan.csv")
    _note(outdir / "brackets.csv")
    print(f"{len(brackets)} resonance bracket(s) in [{fmt(k_min)}, {fmt(k_max)}]")


def cmd_ntd(cfg: Config, args, outdir: Path) -> None:
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    k = cfg["k"]
    with cfg.refusing("basis.segments"):
        basis = boundary_basis(mesh, cfg["basis.segments"])
    system = HelmholtzSystem(mesh, q, k, sigma_last=True)
    write_symop_csv(outdir / "ntd.csv", ntd_matrix(mesh, q, k, basis, system=system))
    _note(outdir / "ntd.csv")
    if args.dump_matrices:
        write_sparse_csv(outdir / "system_matrix.csv", system.matrix)
        write_sparse_csv(outdir / "load_matrix.csv", basis_load_matrix(mesh, basis))
        _note(outdir / "system_matrix.csv")
        _note(outdir / "load_matrix.csv")


def cmd_identity_check(cfg: Config, args, outdir: Path) -> None:
    mesh = _build_mesh(cfg)
    q1 = _build_coefficient(cfg, mesh, "coefficient")
    q2 = _build_coefficient(cfg, mesh, "coefficient2")
    with cfg.refusing("basis.segments"):
        basis = boundary_basis(mesh, cfg["basis.segments"])
    mode = cfg["g.mode"]
    if mode == "first":
        g = np.zeros(basis.dim)
        g[0] = 1.0
    else:
        g = np.random.default_rng(cfg["seed"]).standard_normal(basis.dim)
        g /= np.linalg.norm(g)
    residual = identity_residual(mesh, q1, q2, cfg["k"], basis, g)
    text = write_key_values(outdir / "identity.txt", [("g_mode", mode), ("residual", residual)])
    print(text, end="")
    _note(outdir / "identity.txt")


def cmd_monotonicity_check(cfg: Config, args, outdir: Path) -> None:
    mesh = _build_mesh(cfg)
    q1 = _build_coefficient(cfg, mesh, "coefficient")
    q2 = _build_coefficient(cfg, mesh, "coefficient2")
    with cfg.refusing("basis.segments"):
        basis = boundary_basis(mesh, cfg["basis.segments"])
    result = monotonicity_check(mesh, q1, q2, cfg["k"], basis, cfg["tol.count"])
    counts, verdict = result.counts, result.verdict
    text = write_key_values(outdir / "comparison.txt", [
        ("negative_count", counts.negative), ("indeterminate_count", counts.indeterminate),
        ("d_allowed", result.d_allowed), ("tol", counts.tol),
        ("verdict", "undecided" if verdict is None else verdict)])
    print(text, end="")
    _note(outdir / "comparison.txt")
    if verdict is None:
        raise SpectralAmbiguityError(f"undecided comparison: {counts.indeterminate}"
                                     f" eigenvalue(s) in the window around -{fmt(counts.tol)}")


def cmd_localize(cfg: Config, args, outdir: Path) -> None:
    key, levels = "localize.segments", cfg["localize.segments"]
    if levels is None:
        key, levels = "basis.segments", [cfg["basis.segments"]]
    # a level of segments has that dimension; one function per edge needs the mesh
    v_dim = _checked(cfg, "localize.v_dim", checked_count, cfg["localize.v_dim"], 0,
                     None if None in levels else min(levels) - 1)
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    with cfg.refusing("localize.b_box"):
        region_b = rect_region(mesh, cfg["localize.b_box"])
    d_box = cfg["localize.d_box"]
    with cfg.refusing("localize.d_box"):
        region_d = empty_region(mesh) if d_box is None else rect_region(mesh, d_box)

    with cfg.refusing(key):  # more segments than flagged edges
        bases = [boundary_basis(mesh, segments) for segments in levels]
    _checked(cfg, "localize.v_dim", checked_count, v_dim, 0,
             min(basis.dim for basis in bases) - 1)
    # V is given as modes of the first level's basis and carried to every
    # level, the first included, by the same projection
    coarse = bases[0]
    if cfg["localize.v_mode"] == "first":
        v_coarse = np.eye(coarse.dim)[:, :v_dim]
    else:
        v_coarse = np.random.default_rng(cfg["seed"]).standard_normal((coarse.dim, v_dim))

    system = HelmholtzSystem(mesh, q, cfg["k"])  # one factorization for every level
    rows = []
    for basis in bases:
        v = project_onto_basis(basis, basis_edge_values(coarse, v_coarse))
        result = localized_potential(mesh, q, cfg["k"], basis, region_b, region_d, v,
                                     system=system)
        rows.append((basis.dim, result.ratio, result.b_energy, result.d_energy, result.floor))
    write_table_csv(outdir / "localize.csv",
                    ["dim", "ratio", "b_energy", "d_energy", "floor"], rows)
    write_vector_csv(outdir / "g.csv", result.g)
    _note(outdir / "localize.csv")
    _note(outdir / "g.csv")
    for dim, ratio, be, de, floor in rows:
        print(f"dim {dim}: ratio {fmt(ratio)}, target energy {fmt(be)}, "
              f"avoided energy {fmt(de)}, floor {fmt(floor)}")


def cmd_reconstruct(cfg: Config, args, outdir: Path) -> None:
    nx, ny = cfg["grid.nx"], cfg["grid.ny"]
    mesh = _build_mesh(cfg)
    q = _build_coefficient(cfg, mesh)
    with cfg.refusing("basis.segments"):
        basis = boundary_basis(mesh, cfg["basis.segments"])
    with cfg.refusing("grid.nx", "grid.ny"):
        grid = pixel_grid(mesh, nx, ny)
    # Without alpha.value, positive contrast derives alpha and negative sweeps it.
    contrast, alpha = cfg["contrast"], cfg["alpha.value"]
    with cfg.refusing("coefficient.background", *_inclusion_keys(cfg, "coefficient")):
        contrast_alpha(q, contrast, alpha)  # before any solve

    result = reconstruct(mesh, q, cfg["k"], basis, grid, contrast=contrast, alpha=alpha,
                         tol=cfg["tol.count"])

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
    if result.sweep is not None:
        if not params["sweep_stable"]:
            print(f"warning: the alpha sweep found no stable accepted set; "
                  f"reporting the smallest alpha {fmt(params['alpha'])}", file=sys.stderr)
        write_table_csv(outdir / "sweep.csv", ["alpha", "accepted_count"], result.sweep)
        _note(outdir / "sweep.csv")
        params = {**params, "certified": sum(c is None for c in result.counts)}
    write_key_values(outdir / "params.txt", params.items())
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
        if name == "ntd":
            p.add_argument("--dump-matrices", action="store_true",
                           help="also dump system matrix and load vectors (debug)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    failure = None
    try:
        _checked(None, "thread cap", checked_count, args.threads, 1)
        entries = read_config(args.config)
        outdir = _out_dir(entries, args)  # so a refused key leaves it empty
        cfg = Config(entries, args.command)  # every key checked before any artifact
        # One thread for everything: the BLAS pools cost more than they gain
        # at these sizes and would make the counts' last bits vary.
        with one_blas_thread() as capped, counting() as tally:
            try:
                _COMMANDS[args.command](cfg, args, outdir)
            except (ResonanceError, SpectralAmbiguityError) as exc:
                failure = exc  # a numerical outcome: the manifest explains it too
        stats = [("blas_one_thread", capped)]
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
            [(key, text) for key, (text, _) in entries.items()],
            cfg["seed"],
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

"""Deterministic plain-text serialization of every artifact the package emits.

All floats are written with 17 significant digits (lossless round trip for
doubles), all files end with a newline and use LF line endings, and nothing
here depends on locale, time or iteration-order accidents, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InvalidParameterError
from .mesh import Mesh, mesh_to_text
from .ntd import SymOp


def fmt(x) -> str:
    """17-significant-digit decimal rendering of a float."""
    return f"{float(x):.17g}"


def _write(path, text: str) -> None:
    with Path(path).open("w", newline="\n") as handle:
        handle.write(text)


def write_mesh_text(path, mesh: Mesh) -> None:
    _write(path, mesh_to_text(mesh))


def write_eigs_csv(path, values: Sequence[float]) -> None:
    write_table_csv(path, ["index", "value"], enumerate(values))


def write_vector_csv(path, vec: Sequence[float]) -> None:
    write_table_csv(path, ["index", "value"], enumerate(vec))


def write_sparse_csv(path, matrix) -> None:
    """Triplet dump (row, col, value) of a sparse matrix, row-major order."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = ["row,col,value"]
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        lines.append(f"{r},{c},{fmt(v)}")
    _write(path, "\n".join(lines) + "\n")


def write_table_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Generic CSV writer; floats get the 17-digit treatment, the rest str()."""
    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return fmt(v)
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def write_symop_csv(path, op: SymOp) -> None:
    """Dense operator dump: one header line (label, k, dim), then the rows."""
    lines = [f"{op.label},{fmt(op.k)},{op.dim}"]
    for row in op.matrix:
        lines.append(",".join(fmt(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def write_pgm(path, values: np.ndarray) -> None:
    """ASCII PGM (P2) image of per-pixel values in [0, 255].

    ``values[iy, ix]`` uses mathematical orientation (iy = 0 at the bottom);
    rows are emitted top-first as the format requires.
    """
    vals = np.asarray(values, dtype=int)
    if vals.ndim != 2:
        raise InvalidParameterError("image values must be 2-D")
    if vals.min() < 0 or vals.max() > 255:
        raise InvalidParameterError("image values must lie in [0, 255]")
    ny, nx = vals.shape
    lines = ["P2", f"{nx} {ny}", "255"]
    for iy in range(ny - 1, -1, -1):
        lines.append(" ".join(str(v) for v in vals[iy]))
    _write(path, "\n".join(lines) + "\n")


def write_manifest(path, command: str, config_pairs: Sequence[tuple],
                   seed: int, timings: Sequence[tuple],
                   stats: Sequence[tuple] = ()) -> None:
    """Run manifest: config echo, library versions, seed, stats and wall times.

    Deterministic counters and flags go on ``stat.`` lines.  Timing lines
    carry the ``time.`` prefix so reproducibility checks can strip them;
    everything else is deterministic.
    """
    import scipy

    from . import __version__

    lines = [
        "# helmono run manifest",
        f"command = {command}",
        f"helmono = {__version__}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
        f"seed = {seed}",
    ]
    for key, value in config_pairs:
        lines.append(f"config.{key} = {value}")
    for name, value in stats:
        lines.append(f"stat.{name} = {value}")
    for name, seconds in timings:
        lines.append(f"time.{name} = {seconds:.3f}")
    _write(path, "\n".join(lines) + "\n")


def parse_config_text(text: str):
    """Parse the flat key-value run configuration format.

    One ``key = value`` assignment per line; blank lines and ``#`` comments
    are skipped.  Keys are dotted lowercase words; duplicate keys are an
    error.  Returns an ordered mapping key -> (value, line number).
    """
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {entries[key][1]})"
            )
        entries[key] = (value, lineno)
    return entries

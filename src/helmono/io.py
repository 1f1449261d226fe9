"""Deterministic plain-text serialization of every artifact the package emits,
and the reader of its configuration file.

Floats get 17 significant digits (a lossless round trip for doubles), files
are UTF-8, end with a newline and use LF line endings, and nothing depends on
locale, time or iteration order, so identical inputs give identical bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InvalidParameterError
from .mesh import Mesh
from .ntd import SymOp


def fmt(x) -> str:
    """17-significant-digit decimal rendering of a float."""
    return f"{float(x):.17g}"


def _cell(v) -> str:
    """One value of a table or of a ``key = value`` line: ``true``/``false``,
    17 digits for floats, ``none`` for None, ``str`` otherwise."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return fmt(v)
    return "none" if v is None else str(v)


def _write(path, text: str) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_key_values(path, pairs: Iterable[tuple], comment: str = "") -> str:
    """``key = value`` lines, after a ``# comment`` line if one is given;
    returns the text written."""
    lines = [f"# {comment}"] if comment else []
    lines += [f"{key} = {_cell(value)}" for key, value in pairs]
    text = "\n".join(lines) + "\n"
    _write(path, text)
    return text


def mesh_to_text(mesh: Mesh) -> str:
    """Serialize the mesh as plain text, one record per line.

    Record kinds: ``vertex x y``, ``triangle i j k`` and ``edge a b s`` where
    ``s`` is 1 on instrumented boundary edges and 0 elsewhere.  Coordinates
    use 17 significant digits so the round trip is exact.
    """
    lines = [f"# helmono mesh: {mesh.n_vertices} vertices, "
             f"{mesh.n_triangles} triangles, {mesh.boundary_edges.shape[0]} boundary edges"]
    lines += [f"vertex {fmt(x)} {fmt(y)}" for x, y in mesh.vertices]
    lines += [f"triangle {a} {b} {c}" for a, b, c in mesh.triangles]
    lines += [f"edge {a} {b} {1 if s else 0}"
              for (a, b), s in zip(mesh.boundary_edges, mesh.sigma_flags)]
    return "\n".join(lines) + "\n"


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
    write_table_csv(path, ["row", "col", "value"],
                    zip(coo.row[order], coo.col[order], coo.data[order]))


def write_table_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Generic CSV writer; cells as in :func:`write_key_values`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def write_symop_csv(path, op: SymOp) -> None:
    """Dense operator dump: one header line (label, k, dim), then the rows."""
    write_table_csv(path, [op.label, fmt(op.k), str(op.dim)], op.matrix)


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

    write_key_values(path, [
        ("command", command), ("helmono", __version__), ("numpy", np.__version__),
        ("scipy", scipy.__version__), ("seed", seed),
        *((f"config.{key}", value) for key, value in config_pairs),
        *((f"stat.{name}", value) for name, value in stats),
        *((f"time.{name}", f"{seconds:.3f}") for name, seconds in timings),
    ], "helmono run manifest")


def read_config(path) -> dict:
    """The parsed configuration file at ``path`` (see :func:`parse_config_text`),
    read as UTF-8; an unreadable file is a configuration error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


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

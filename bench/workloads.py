"""Seeded workloads of the helmono benchmark and the checks on their outputs.

A workload turns a seeded ``random.Random`` into a stream of operations.  An
operation is one ``helmono`` subcommand with the text of its configuration
file; the command receives nothing but that file and its output directory.
Every workload runs at ``k = 1`` with a single client in a closed loop, and
an op may use ``threads`` cores: the CLI's pixel pool and the BLAS pool.

Why each workload exists (also recorded in ``BENCHMARK.json``):

* ``recon-sweep`` -- negative contrast with the default alpha sweep at basis
  256, so the dense ``count_negative`` calls do real work (the sweep re-counts
  the same 64 ``T_B`` over three to four alphas); the only workload where the
  pixel thread pool runs.
* ``recon-fine`` -- positive contrast on the 16641-vertex mesh on one core, the
  single-threaded baseline: the probe build over the whole mesh dominates and
  the dense counts are about 1%, so a count optimisation should not move it
  while a probe restriction should move it most.
* ``compare`` -- two ordered coefficients and no ``T_B``: factorizations,
  block solves and the ARPACK ``d(q)`` sweep make up nearly the whole op.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

#: Pixels per side of the reconstruction grid.
GRID = 8


@dataclass(frozen=True)
class Op:
    """One operation: a subcommand, its configuration text and what it must output."""

    command: str
    config: str
    #: Pixels ``reconstruct`` must accept, or None for ``monotonicity-check``.
    expected_pixels: Optional[frozenset]


@dataclass(frozen=True)
class Workload:
    name: str
    mesh_n: int
    segments: int
    #: Cores an op may use: the ``--threads`` pixel pool cap and the BLAS pool.
    threads: int
    make_op: Callable[["Workload", random.Random], Op]

    def next_op(self, rng: random.Random) -> Op:
        return self.make_op(self, rng)

    def small(self) -> "Workload":
        """The same workload on the smallest inputs, for warm-up and self-check."""
        return replace(self, mesh_n=16, segments=32)


def _config(w: Workload, **keys) -> str:
    lines = [f"mesh.n = {w.mesh_n}", "k = 1", f"basis.segments = {w.segments}"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def _box(x0: float, y0: float, x1: float, y1: float, value: float) -> str:
    return f"{x0!r} {y0!r} {x1!r} {y1!r} {value!r}"


def _scatterer_op(w: Workload, rng: random.Random, contrast: str,
                  lo: float, hi: float) -> Op:
    # A pixel-aligned 2x2 block clear of the outer pixel ring.
    ix = rng.randint(1, GRID - 3)
    iy = rng.randint(1, GRID - 3)
    value = rng.uniform(lo, hi)
    box = _box(ix / GRID, iy / GRID, (ix + 2) / GRID, (iy + 2) / GRID, value)
    text = _config(w, **{"grid.nx": GRID, "grid.ny": GRID, "contrast": contrast,
                         "coefficient.background": 1.0, "coefficient.inclusion": box})
    pixels = frozenset((iy + dy) * GRID + ix + dx for dy in (0, 1) for dx in (0, 1))
    return Op("reconstruct", text, pixels)


def _sweep_op(w: Workload, rng: random.Random) -> Op:
    return _scatterer_op(w, rng, "negative", 0.3, 0.7)


def _fine_op(w: Workload, rng: random.Random) -> Op:
    return _scatterer_op(w, rng, "positive", 1.5, 3.0)


def _compare_op(w: Workload, rng: random.Random) -> Op:
    # coefficient2 repeats coefficient's boxes in the same order with every
    # value raised, so q1 <= q2 holds on every triangle, overlaps included.
    raise_bg = rng.uniform(0.0, 1.0)
    keys = {"coefficient.background": 1.0, "coefficient2.background": 1.0 + raise_bg}
    for i in range(rng.randint(3, 6)):
        width, height = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)
        x0, y0 = rng.uniform(0.0, 1.0 - width), rng.uniform(0.0, 1.0 - height)
        value = rng.uniform(0.5, 2.0)
        raised = value + rng.uniform(0.0, 1.0)
        keys[f"coefficient.inclusion.{i}"] = _box(x0, y0, x0 + width, y0 + height, value)
        keys[f"coefficient2.inclusion.{i}"] = _box(x0, y0, x0 + width, y0 + height, raised)
    return Op("monotonicity-check", _config(w, **keys), None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recon-sweep", mesh_n=64, segments=256, threads=2, make_op=_sweep_op),
        Workload("recon-fine", mesh_n=128, segments=128, threads=1, make_op=_fine_op),
        Workload("compare", mesh_n=128, segments=256, threads=1, make_op=_compare_op),
    )
}


def check_outputs(op: Op, outdir: Path) -> Optional[str]:
    """Why the artifacts in ``outdir`` are wrong for ``op``, or None if they are right."""
    try:
        if op.expected_pixels is None:
            lines = (outdir / "comparison.txt").read_text().splitlines()
            return None if "verdict = true" in lines else "comparison verdict is not true"
        with (outdir / "reconstruct.csv").open(newline="") as handle:
            accepted = frozenset(int(row["pixel"]) for row in csv.DictReader(handle)
                                 if row["accepted"] == "true")
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable artifact: {type(exc).__name__}: {exc}"
    if accepted != op.expected_pixels:
        return f"accepted pixels {sorted(accepted)}, expected {sorted(op.expected_pixels)}"
    return None

"""Span recorder for traced benchmark runs, kept outside the helmono package.

While installed, the tracer wraps helmono's public functions at their call
sites: every module of the package whose namespace holds a wrapped function
gets the wrapper in its place, and methods are wrapped on their class.  Each
call then records a span (name, start, end, parent span, op id) in memory.
Uninstalling puts every original back, so untraced runs call the package
exactly as a user does.

A function that no longer exists is recorded as absent instead of wrapped,
so the benchmark keeps running across refactors of the package.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

_WRITERS = ["write_mesh_text", "write_eigs_csv", "write_vector_csv", "write_sparse_csv",
            "write_table_csv", "write_symop_csv", "write_pgm", "write_manifest"]

#: Layer -> (helmono module, functions or ``Class.method`` names whose calls it
#: spans).  The comments say which workload's ``op_s.p50`` a saving in the
#: layer should move most.
LAYERS = {
    # Config parsing and coefficient and basis building: a few percent anywhere.
    "cli.main": ("cli", ["main"]),
    "mesh.build": ("mesh", ["build_unit_square_mesh", "mark_sigma", "pixel_grid",
                            "rect_region"]),
    # recon-fine (one full-mesh weighted mass per probe), then compare.
    "fem.assemble": ("fem", ["assemble_stiffness", "assemble_weighted_mass",
                             "assemble_mass", "assemble_boundary_load"]),
    # compare, then recon-fine.
    "fem.factor": ("fem", ["HelmholtzSystem.__init__"]),
    "fem.solve": ("fem", ["HelmholtzSystem.solve", "HelmholtzSystem.solve_many"]),
    # recon-fine, then recon-sweep; never compare.
    "ntd.probe": ("ntd", ["tb_from_solutions", "gram_from_solutions"]),
    # compare.
    "ntd.operator": ("ntd", ["ntd_matrix", "make_symop", "basis_load_matrix"]),
    # recon-sweep only.
    "spectral.count": ("spectral", ["count_negative"]),
    # compare, then recon-fine.
    "spectral.defect": ("spectral", ["d_of_q", "count_K_eigs_above_one",
                                     "neumann_eigenvalues"]),
    "monotone.reconstruct": ("monotone", ["reconstruct"]),
    "monotone.compare": ("monotone", ["monotonicity_check", "leq_d"]),
    # Negligible everywhere; kept as a guard on the plain-text artifacts.
    "io.write": ("io", _WRITERS),
}


def _solve_rhs(args, kwargs, result) -> dict:
    loads = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return {"rhs": loads.shape[1] if loads.ndim == 2 else 1}


def _sweep_steps(args, kwargs, result) -> dict:
    return {"sweep_steps": len(result.sweep or ()), "pixels": result.mask.size}


#: Span name -> extractor of counts from a call's arguments and result.
NOTES: dict = {
    "fem.HelmholtzSystem.solve": _solve_rhs,
    "fem.HelmholtzSystem.solve_many": _solve_rhs,
    "spectral.count_negative": lambda a, k, r: {"indeterminate": r.indeterminate},
    "monotone.reconstruct": _sweep_steps,
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: Optional[int]
    op: int
    start: float
    end: float = 0.0
    data: dict = field(default_factory=dict)


class Tracer:
    """Records spans of the calls into helmono's layers while installed."""

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self.op = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks: dict = {}
        self._owner: Optional[int] = None

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1].id
            else:
                # A worker thread (the pixel pool) works for whatever the
                # installing thread is blocked in.
                owner = self._stacks.get(self._owner) or [None]
                parent = owner[-1].id if owner[-1] is not None else None
            with self._lock:
                span = Span(next(self._ids), name, layer, parent, self.op, 0.0)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if note is not None:
                span.data = note(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "helmono" or n.startswith("helmono."))]
        undo = []
        self.absent = []
        self._owner = threading.get_ident()
        try:
            for layer, (modname, names) in LAYERS.items():
                module = sys.modules.get(f"helmono.{modname}")
                for qualname in names:
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    original = getattr(owner, attr, None) if owner is not None else None
                    if original is None:
                        self.absent.append(f"{modname}.{qualname}")
                        continue
                    wrapper = self._wrap(layer, f"{modname}.{qualname}", original)
                    if owner is module:
                        sites = [(m, a) for m in modules
                                 for a, v in list(vars(m).items()) if v is original]
                    else:
                        sites = [(owner, attr)]
                    for site, a in sites:
                        setattr(site, a, wrapper)
                        undo.append((site, a, original))
            yield self
        finally:
            for site, a, original in reversed(undo):
                setattr(site, a, original)
            self._stacks.clear()


def _union(intervals) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def _covered(span: Span, children: list) -> float:
    """Length of the part of ``span`` that the union of its children covers."""
    return _union((max(c.start, span.start), min(c.end, span.end)) for c in children)


def layer_totals(spans: list):
    """Per-layer calls, self seconds and summed span counts.

    A layer's seconds are the time inside its spans minus what their child
    spans cover, so the layers partition each op's time (worker-thread spans
    add their own time, so parallel work can exceed wall time).  Calls count
    the outermost span of a layer: a layer function calling another function
    of the same layer is one call.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    calls = defaultdict(int)
    seconds = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        seconds[s.layer] += (s.end - s.start) - _covered(s, children[s.id])
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            calls[s.layer] += 1
        for key, value in s.data.items():
            counts[key] += value
    pixel_counts = sum(1 for s in spans if s.layer == "spectral.count"
                       and by_id.get(s.parent) is not None
                       and by_id[s.parent].layer == "monotone.reconstruct")
    counts["pixel_counts"] = pixel_counts
    return calls, seconds, counts


def wall_seconds(spans: list, layer: str) -> float:
    """Wall time during which at least one span of ``layer`` ran, on any thread."""
    return _union((s.start, s.end) for s in spans if s.layer == layer)

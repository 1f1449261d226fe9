"""helmono benchmark: closed-loop runs of the real CLI entry point.

Run from the root of a checkout:

    python3 bench/run.py --workload recon-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-check

One client calls ``helmono.cli.main([...])`` in process and sends each
operation only after the previous one completed, each with a fresh output
directory under ``.bench_out/``; an op may use the workload's thread count of
cores, in the CLI's pixel pool and in BLAS.  Operations come from the workload's
generator seeded with ``--seed`` (see ``workloads.py``); every op must exit 0
and pass its output check, and a failed op is counted, never retried.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and with the layer spans of ``tracing.py`` (order alternating),
requires byte-identical artifacts apart from manifest ``time.`` lines, and
reports per-layer values as means per op, where a layer's seconds leave out
the time its nested spans of other layers cover; the spans go to
``.bench_out/spans-*.jsonl``.
The last line of standard output is the JSON result; the lines before it name
every metric with its unit, the op sample count and the machine's facts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer, layer_totals, wall_seconds
from workloads import WORKLOADS, Op, Workload, check_outputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import helmono.cli; "
                 "print(time.perf_counter() - t)")

#: Layers reported as their self time alone, without a call count.
_SELF_ONLY = {"cli.main", "monotone.reconstruct", "monotone.compare"}


def machine_facts() -> dict:
    """Facts without which numbers from different machines must not be compared."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas_name = "unknown"
    llc = None
    if shutil.which("getconf"):
        for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
            text = subprocess.run(["getconf", level], capture_output=True,
                                  text=True).stdout.strip()
            if text.isdigit() and int(text) > 0:
                llc = int(text)
                break
    return {"nproc": os.cpu_count(), "blas": blas_name, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "llc_bytes": llc,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0]}


def import_seconds() -> float:
    """Time to import ``helmono.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def call_cli(cli, op: Op, threads: int, config: Path, out: Path):
    """Time one ``cli.main`` call; returns (seconds, failure or None)."""
    argv = [op.command, str(config), "--out", str(out), "--threads", str(threads)]
    # The CLI narrates every artifact it writes; keep that off our stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            return perf_counter() - start, "raised"
        seconds = perf_counter() - start
    if code != 0:
        return seconds, f"exit code {code}"
    return seconds, check_outputs(op, out)


def artifacts(out: Path) -> dict:
    """Every artifact's bytes, manifest ``time.`` lines removed."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"time."))
        files[path.name] = data
    return files


class Run:
    """One closed-loop run of a workload; collects per-op results."""

    def __init__(self, cli, workload: Workload, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.plain: list = []   # seconds of every untraced call
        self.traced: list = []  # seconds of every traced call
        self.setup: list = []   # seconds of every fresh-interpreter import
        self.failures: list = []
        self.attempted = 0
        self.written_bytes = 0
        self.tracer = Tracer()

    def op(self, trace: bool) -> None:
        """Generate, run and check one op."""
        op = self.workload.next_op(self.rng)
        opdir = self.workdir / f"op{self.attempted}"
        opdir.mkdir(parents=True)
        config = opdir / "op.cfg"
        config.write_text(op.config)
        self.tracer.op = self.attempted
        self.attempted += 1
        plain_out, traced_out = opdir / "plain", opdir / "traced"

        def call(out: Path):
            return call_cli(self.cli, op, self.workload.threads, config, out)

        failure = None
        if trace:
            traced_first = self.attempted % 2 == 0
            if traced_first:
                with self.tracer.installed():
                    t_traced, failure = call(traced_out)
            seconds, plain_failure = call(plain_out)
            if not traced_first:
                with self.tracer.installed():
                    t_traced, failure = call(traced_out)
            failure = plain_failure or failure
            if failure is None and artifacts(plain_out) != artifacts(traced_out):
                failure = "traced artifacts differ from untraced ones"
            self.traced.append(t_traced)
            if failure is None:
                self.written_bytes += sum(p.stat().st_size for p in traced_out.iterdir())
        else:
            seconds, failure = call(plain_out)
        self.plain.append(seconds)
        if failure is not None:
            self.failures.append(f"op {self.attempted - 1}: {failure}")
        shutil.rmtree(opdir)

    def loop(self, seconds: float, trace: bool) -> float:
        """Run ops until the next one would end past ``seconds``; returns the
        seconds spent in ops.

        An untraced run times one fresh-interpreter import after each op, so
        the set-up samples span the same stretch of time as the ops.
        """
        start = perf_counter()
        busy = 0.0
        while True:
            began = perf_counter()
            self.op(trace)
            busy += perf_counter() - began
            if not trace:
                self.setup.append(import_seconds())
            step = statistics.median(self.plain) * (2 if trace else 1)
            if self.setup:
                step += statistics.median(self.setup)
            if perf_counter() - start + step > seconds:
                return busy


def end_to_end(run: Run, busy: float) -> dict:
    """``ops_per_s`` is completed ops per second spent in ops, so the set-up
    probes between ops do not lower it."""
    done = run.attempted - len(run.failures)
    return {
        "op_s.p50": (statistics.median(run.plain), "s"),
        "ops_per_s": (done / busy, "1/s"),
        "setup_s": (statistics.median(run.setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB"),
    }


def per_layer(run: Run) -> dict:
    calls, seconds, counts = layer_totals(run.tracer.spans)
    ops = run.attempted
    metrics = {}
    for layer in LAYERS:
        if layer in _SELF_ONLY:
            metrics[f"{layer}.self_s"] = (seconds[layer] / ops, "s/op")
        else:
            metrics[f"{layer}.calls"] = (calls[layer] / ops, "count/op")
            metrics[f"{layer}.s"] = (seconds[layer] / ops, "s/op")
    metrics["fem.solve.rhs"] = (counts["rhs"] / ops, "count/op")
    # spectral.count.s adds up the pixel pool's threads; this is its wall time.
    metrics["spectral.count.wall_s"] = (
        wall_seconds(run.tracer.spans, "spectral.count") / ops, "s/op")
    metrics["spectral.count.indeterminate"] = (counts["indeterminate"] / ops, "count/op")
    metrics["io.write.bytes"] = (run.written_bytes / ops, "B/op")
    # Useful pixel counts are those at the chosen alpha, one per pixel; a run
    # that made no pixel counts wasted none.
    useful, made = counts["pixels"], counts["pixel_counts"]
    metrics["monotone.sweep.steps"] = (counts["sweep_steps"] / ops, "count/op")
    metrics["monotone.sweep.useful"] = (useful / ops, "count/op")
    metrics["monotone.sweep.made"] = (made / ops, "count/op")
    metrics["monotone.sweep.useful_ratio"] = (useful / made if made else 1.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(run.traced) / statistics.median(run.plain), "ratio")
    metrics["fail_ratio"] = (len(run.failures) / ops, "ratio")
    return metrics


def measure(cli, workload: Workload, seed: int, seconds: float, trace: bool):
    """Warm up on the smallest inputs, then run the closed loop; returns (run, metrics)."""
    workdir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    Run(cli, workload.small(), seed, workdir / "warmup").op(trace=False)
    run = Run(cli, workload, seed, workdir)
    busy = run.loop(seconds, trace)
    metrics = per_layer(run) if trace else end_to_end(run, busy)
    shutil.rmtree(workdir, ignore_errors=True)
    return run, metrics


def write_spans(run: Run, path: Path, facts: dict) -> None:
    with path.open("w") as handle:
        handle.write(json.dumps({"machine": facts, "absent": run.tracer.absent}) + "\n")
        for span in run.tracer.spans:
            handle.write(json.dumps(asdict(span)) + "\n")


def report(run: Run, metrics: dict, facts: dict) -> None:
    print("# machine " + json.dumps(facts, sort_keys=True))
    if run.tracer.absent:
        print("# absent spans: " + ", ".join(run.tracer.absent))
    for failure in run.failures:
        print(f"# failed {failure}")
    print(f"# ops {run.attempted}, failed {len(run.failures)}, "
          f"fail_ratio {len(run.failures) / run.attempted:.6g}")
    print("# op seconds " + " ".join(f"{s:.3f}" for s in run.plain))
    for name, (value, unit) in metrics.items():
        extra = f" (n={len(run.plain)})" if name == "op_s.p50" else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def self_check(cli) -> int:
    """One op per workload on the smallest inputs, untraced and traced; checks
    outputs and that the metric names match ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"] for m in spec["end_to_end"]},
            True: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS.values():
        for trace in (False, True):
            run, metrics = measure(cli, workload.small(), 0, 0.0, trace)
            problems += [f"{workload.name}: {f}" for f in run.failures]
            if set(metrics) != want[trace]:
                problems.append(f"{workload.name} trace={int(trace)}: metrics "
                                f"{sorted(set(metrics) ^ want[trace])} do not match "
                                "BENCHMARK.json")
            if trace and run.tracer.absent:
                print(f"self-check: {workload.name}: absent spans {run.tracer.absent}")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="one op per workload at mesh.n = 16, then exit")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "helmono" / "cli.py").is_file():
        print(f"error: no helmono sources under {SRC}", file=sys.stderr)
        return 2
    if not args.self_check:
        # An op may use the workload's thread count in every pool it touches,
        # BLAS included; the variables are read when numpy loads BLAS.
        threads = str(WORKLOADS[args.workload].threads)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import helmono.cli as cli

    if args.self_check:
        return self_check(cli)
    facts = machine_facts()
    run, metrics = measure(cli, WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    if args.trace:
        write_spans(run, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", facts)
    report(run, metrics, facts)
    return 0


if __name__ == "__main__":
    sys.exit(main())

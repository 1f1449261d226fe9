"""The benchmark's self-check runs against this checkout.

``bench/run.py --self-check`` runs one op per workload at mesh.n = 16,
untraced and traced, checks the outputs and the metric names, and reports
every traced function that no longer exists.  Renaming a function the
benchmark traces therefore fails here, not only in a later benchmark run.
"""

import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes_with_every_span_present():
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-check passed" in run.stdout
    assert "absent spans" not in run.stdout + run.stderr, run.stdout


def test_traced_compare_op_records_the_defect_span(tmp_path, monkeypatch):
    # d(q) is one span of the spectral.defect layer whichever route computes
    # it, so the per-layer numbers keep attributing it.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import Tracer
    from workloads import WORKLOADS

    from helmono.cli import main

    op = WORKLOADS["compare"].small().next_op(random.Random(1))
    config = tmp_path / "op.cfg"
    config.write_text(op.config)
    tracer = Tracer()
    with tracer.installed():
        code = main([op.command, str(config), "--out", str(tmp_path / "out"),
                     "--threads", "1"])
    assert code == 0
    assert not tracer.absent
    defect = [s for s in tracer.spans if s.layer == "spectral.defect"]
    assert [s.name for s in defect] == ["spectral.d_of_q"]


def test_traced_sweep_op_records_one_count_span_per_dense_pixel_count(tmp_path, monkeypatch):
    # Every dense pixel count of reconstruct is one count_negative call, so
    # the spectral.count layer sees as many as the manifest tallies.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import Tracer
    from workloads import WORKLOADS

    from helmono.cli import main

    op = WORKLOADS["recon-sweep"].small().next_op(random.Random(1))
    config = tmp_path / "op.cfg"
    config.write_text(op.config)
    out = tmp_path / "out"
    tracer = Tracer()
    with tracer.installed():
        code = main([op.command, str(config), "--out", str(out), "--threads", "2"])
    assert code == 0
    assert not tracer.absent
    by_id = {s.id: s for s in tracer.spans}
    counts = [s for s in tracer.spans if s.name == "spectral.count_negative"
              and by_id[s.parent].name == "monotone.reconstruct"]
    manifest = dict(line.split(" = ", 1)
                    for line in (out / "manifest.txt").read_text().splitlines()
                    if " = " in line)
    dense = int(manifest["stat.counts.dense"])
    assert dense > 0 and len(counts) == dense


def test_first_sweep_ops_pass_and_build_a_probe_only_for_a_dense_count(tmp_path, monkeypatch):
    # The sweep builds a pixel's T_B only for a dense count, so the manifest
    # never reports more probes built than dense counts.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import WORKLOADS, check_outputs

    from helmono.cli import main

    rng = random.Random(0)
    workload = WORKLOADS["recon-sweep"].small()
    for i in range(3):
        op = workload.next_op(rng)
        config = tmp_path / f"op{i}.cfg"
        config.write_text(op.config)
        out = tmp_path / f"out{i}"
        assert main([op.command, str(config), "--out", str(out)]) == 0
        assert check_outputs(op, out) is None
        manifest = dict(line.split(" = ", 1)
                        for line in (out / "manifest.txt").read_text().splitlines()
                        if " = " in line)
        assert int(manifest["stat.probes.built"]) <= int(manifest["stat.counts.dense"])

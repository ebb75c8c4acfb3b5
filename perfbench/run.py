#!/usr/bin/env python3
"""covec benchmark: one workload per process, timed end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload scene64_full --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Set-up runs three times in child processes (import plus input generation)
and reports the median.  The process then repeats the workload's
operation until ``--seconds`` have passed, checks every result outside
the timed region, and prints the named end-to-end figures followed, as the
last line, by one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` operations alternate untraced and
traced, and the metrics are the per-layer ones.  Spans, per-op records
and the run environment go to ``.perfbench_work/`` under the root.
``--workload all`` runs every workload, each in its own process, and
prefixes each output line with the workload's name.

covec is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Listed here rather than imported from workloads.py, which loads numpy;
# numpy must load only after the thread variables are pinned.
WORKLOAD_NAMES = ("scene64_full", "icon128_albedo", "edit_render64")
SETUP_REPEATS = 3
THREAD_VARS = ("COVEC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "psnr_db": "dB", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported with exit status 2."""


def _pin_threads() -> None:
    # BLAS reads these once, when numpy loads; covec maps COVEC_THREADS
    # onto the others only if it is imported before numpy.
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _require_sources() -> None:
    if not (SRC / "covec" / "__init__.py").is_file():
        raise BenchError(f"covec sources not found under {SRC}")


def _import_covec():
    _require_sources()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import covec
    if Path(covec.__file__).resolve().parent != SRC / "covec":
        raise BenchError(f"imported covec from {covec.__file__}, not {SRC}")
    import workloads
    return workloads


def _setup_child(workload: str, seed: int, tiny: bool, inputs: Path) -> None:
    """Import covec and generate the inputs; prints the elapsed time."""
    t0 = time.perf_counter()
    workloads = _import_covec()
    inputs.mkdir(parents=True)
    workloads.WORKLOADS[workload].generate(seed, inputs, tiny)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _set_up(args, workdir: Path) -> tuple[float, Path]:
    """Run set-up SETUP_REPEATS times in fresh processes.

    Returns the median set-up time and the directory of the first
    repeat's inputs; every repeat must write the same bytes.
    """
    times = []
    dirs = [workdir / f"inputs{r}" for r in range(SETUP_REPEATS)]
    for d in dirs:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               str(d), "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    first = {p.name: p.read_bytes() for p in dirs[0].iterdir()}
    for d in dirs[1:]:
        if {p.name: p.read_bytes() for p in d.iterdir()} != first:
            raise BenchError("set-up is not deterministic: inputs differ "
                             "between repeats of the same seed")
    return statistics.median(times), dirs[0]


def _git_sha() -> str:
    """HEAD commit read from .git inside the root, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Runner:
    """Repeats one workload's operation and checks every result."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.records: list[dict] = []
        self.failed = 0

    def run_op(self, i: int, traced: bool) -> None:
        record = {"op": i, "traced": traced, "errors": []}
        t0 = time.perf_counter()
        try:
            if traced:
                self.tracer.run_id = i
                self.tracer.install()
                try:
                    with self.tracer.span("bench.op"):
                        times, payload = self.workload.op(i)
                finally:
                    self.tracer.uninstall()
            else:
                times, payload = self.workload.op(i)
        except Exception:  # an op that raises counts as failed; keep going
            record["errors"].append(traceback.format_exc())
            times, payload = {}, None
        record["wall_s"] = time.perf_counter() - t0
        record["sections"] = times
        if payload is not None:
            try:
                record["errors"] += self.workload.check(i, payload)
            except Exception:
                record["errors"].append(traceback.format_exc())
        if record["errors"]:
            self.failed += 1
            for err in record["errors"]:
                print(f"op {i} failed: {err}", file=sys.stderr)
        self.records.append(record)

    def loop(self, seconds: float, min_ops: int, alternate: bool = False) -> None:
        """Run at least ``min_ops`` ops, then more while time remains.

        A further op starts only if it is expected to end less than half
        an op past ``seconds``, so a run lasts about ``seconds``.  With
        ``alternate``, every second op is traced and repeats the input of
        the untraced op before it.
        """
        start = time.perf_counter()
        laps: list[float] = []
        i = 0
        while i < min_ops or (time.perf_counter() - start
                              + 0.5 * statistics.median(laps) < seconds):
            lap = time.perf_counter()
            if alternate:
                self.run_op(i // 2, traced=i % 2 == 1)
            else:
                self.run_op(i, traced=False)
            laps.append(time.perf_counter() - lap)
            i += 1


def _mean_sections(records) -> dict[str, float]:
    """Each timed section's mean time over the given ops.

    A run cycles through its scenes, so the mean is the workload's cost
    per op.  On the shared two-core host this was built on, the same op
    on the same input took 2.1 s in one part of a run and 3.0 s in
    another, for tens of seconds at a time; over ten seeds the mean
    varied less between runs than the median or the minimum did.
    """
    times: dict[str, list[float]] = {}
    for r in records:
        for name, t in r["sections"].items():
            times.setdefault(name, []).append(t)
    return {name: statistics.fmean(ts) for name, ts in times.items()}


def _mean_wall(records) -> float | None:
    return statistics.fmean(r["wall_s"] for r in records) if records else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one scene and a minimal schedule (self-test only)")
    ap.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    _pin_threads()
    try:
        if args.setup_child:
            _setup_child(args.workload, args.seed, args.tiny, Path(args.setup_child))
            return 0
        if args.workload == "all":
            return _run_all(args)
        return _bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    _require_sources()
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600)
        for line in proc.stdout.splitlines():
            print(f"{name}: {line}")
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            status = proc.returncode
    return status


def _bench(args) -> int:
    _require_sources()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_s, inputs = _set_up(args, workdir)

    workloads = _import_covec()
    import tracer as tracing
    workload = workloads.WORKLOADS[args.workload]
    outputs = workdir / "out"
    outputs.mkdir()
    workload.start(inputs, outputs, args.tiny)

    env = _environment()
    if args.trace:
        tr = tracing.Tracer()
        runner = Runner(workload, tr)
        runner.loop(args.seconds, min_ops=2, alternate=True)
    else:
        runner = Runner(workload)
        runner.loop(args.seconds, min_ops=workload.scene_count(args.tiny))
    records = runner.records
    attempted = len(records)
    quality = workload.report()

    timed = [r for r in records if not r["traced"]]
    sections = _mean_sections(timed)
    figures: dict[str, tuple[float | None, str]] = {}
    if "vectorize" in sections:
        figures["vectorize_s"] = (sections["vectorize"], "s")
    if "render" in sections:
        figures["edit_s"] = (sum(t for k, t in sections.items()
                                       if k.startswith("edit.")), "s")
        figures["render_s"] = (sections["render"], "s")
    for key, value in quality.items():
        if key != "psnr_db":
            figures[key] = (value, "mse")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures["peak_rss_mb"] = (peak_rss_mb, "MB")
    figures["setup_s"] = (setup_s, "s")
    figures["fail_rate"] = (runner.failed / attempted, "ratio")

    if args.trace:
        traced = [r for r in records if r["traced"]]
        metrics = tr.per_layer(max(1, len(traced)))
        metrics["trace.untraced_s"] = _mean_wall(timed)
        metrics["trace.traced_s"] = _mean_wall(traced)
        metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
        units = tracing.PER_LAYER_UNITS
        tr.write_spans(workdir / "spans.jsonl")
    else:
        metrics = {"wall_s": sum(sections.values()) if sections else None,
                   "psnr_db": quality["psnr_db"],
                   "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        units = END_TO_END_UNITS

    correct = runner.failed == 0 and all(
        v is not None and math.isfinite(v) for v in metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": runner.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    (workdir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "result": result,
         "figures": {k: {"value": v, "unit": u}
                           for k, (v, u) in figures.items()},
         "ops": records}, indent=1) + "\n")

    walls = [r["wall_s"] for r in timed]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {runner.failed} failed; untraced op wall "
          f"median {statistics.median(walls) if walls else None} s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in figures.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

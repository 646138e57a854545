"""fdtsim benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload pd-10k --seed 1 --seconds 20 --trace 0

Imports fdtsim from ``src/`` of the checkout that holds this file. With
``--trace 0`` it measures in ``WORKERS`` fresh processes, one after
another: each sets the workload up ``SETUP_REPS`` times, then runs
operations one after another (a closed loop with one client) for its share
of ``--seconds`` and checks each output. The end-to-end metrics pool the
workers. With ``--trace 1`` it works in this process alone: it runs
operations untraced for half the time, runs the same operations again
under span tracing, and reports per-layer metrics; the spans are written to
``perfbench/out/trace-<workload>.npz``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds context that no bound applies to.

End-to-end times are on-CPU times scaled to a reference speed: see
``Calibration``.
"""
from __future__ import annotations

import os

# One thread per process, whatever numpy was linked against.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up is repeated and its median reported, so one slow import does not
# decide the set-up figure.
SETUP_REPS = 3

# Untraced runs measure in this many fresh processes, one after another and
# each for an equal share of --seconds. How fast a process runs depends on
# where its memory lands and on its string hash seed; pooling several
# processes keeps one unlucky process from deciding a run's figures. Worker
# k always gets hash seed k, so that every run sees the same set of seeds.
WORKERS = 5

# A run must end within 180 s.
RUN_LIMIT_S = 170.0

EXIT_NO_PROGRAM = 2


def import_fdtsim() -> SimpleNamespace:
    """Import every fdtsim layer afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "fdtsim" or m.startswith("fdtsim.")]:
        del sys.modules[name]
    layers = {name: importlib.import_module(f"fdtsim.{name}") for name in tracing.LAYERS}
    found = Path(layers["graphs"].__file__).resolve().parent
    if found != SRC / "fdtsim":
        raise ImportError(f"fdtsim was imported from {found}, not from {SRC / 'fdtsim'}")
    return SimpleNamespace(**layers)


class Calibration:
    """Fixed reference kernels, timed between operations.

    The benchmark runs on shared virtual machines. There the host takes the
    CPU away in bursts (wall time then exceeds on-CPU time), and a busy
    sibling hyperthread or a neighbour's memory traffic slows every
    instruction (on-CPU time rises too); on one machine the same operation
    took from 40 to 108 ms of on-CPU time within an hour. A kernel that does
    the same kind of work as an operation slows with it, so an operation's
    time divided by the kernel's stays within a few percent. End-to-end
    times are reported at the reference speed, the speed at which each
    kernel takes ``REFERENCE_S`` of on-CPU time.

    Each workload names the kernels that resemble its work
    (``calibration`` on the workload class). None of them calls fdtsim.
    """

    REFERENCE_S = 0.02
    EVERY_S = 0.5
    WINDOW = 5

    @staticmethod
    def memory() -> None:
        """Random permutation, gather and bincount over 5·10^5 elements, like PD matching."""
        base = np.arange(500_000)
        perm = np.random.default_rng(0).permutation(base)
        np.bincount(perm[0::2] % 1024, weights=base[perm[1::2]], minlength=1024)

    @staticmethod
    def small_arrays() -> None:
        """Many numpy calls on cache-resident arrays, like the beauty-contest rounds."""
        rng = np.random.default_rng(0)
        x = rng.random(10_000)
        for _ in range(300):
            y = np.abs(x - 0.5 * x.mean())
            np.minimum(10.0, 1.0 / np.maximum(y, 0.1))
            rng.uniform(0.0, 1.0, 3_000)

    @staticmethod
    def python() -> None:
        """Dict and tuple work in the interpreter, like model enumeration."""
        table: dict[tuple[int, int], float] = {}
        for i in range(70_000):
            key = (i % 7, i % 13)
            table[key] = table.get(key, 0.0) + 0.5 * i

    @staticmethod
    def sample(kernels: tuple[str, ...]) -> float:
        """On-CPU time of the named kernels, as a multiple of their reference time."""
        t0 = time.thread_time()
        for name in kernels:
            getattr(Calibration, name)()
        return (time.thread_time() - t0) / (Calibration.REFERENCE_S * len(kernels))


@dataclass
class Pass:
    """Outcome of running a sequence of operations.

    ``op_cpu_s`` is each operation's on-CPU time (``time.thread_time``),
    ``op_wall_s`` its wall time, ``slowdown`` the calibration kernels'
    on-CPU time relative to the reference, sampled every
    ``Calibration.EVERY_S`` between operations, and ``calibrated_at`` the
    number of operations run before each sample.
    """

    attempted: int = 0
    failed: int = 0
    work: int = 0
    op_cpu_s: array = field(default_factory=lambda: array("d"))
    op_wall_s: array = field(default_factory=lambda: array("d"))
    slowdown: array = field(default_factory=lambda: array("d"))
    calibrated_at: array = field(default_factory=lambda: array("q"))
    digest: object = field(default_factory=hashlib.sha256)

    @property
    def speed(self) -> float:
        """How much faster than the reference speed the host ran this pass."""
        return 1.0 / float(np.median(self.slowdown))

    def op_ref_s(self) -> np.ndarray:
        """Each operation's on-CPU time at the reference speed.

        An operation is scaled by the median of the ``Calibration.WINDOW``
        kernel samples around it, so that a slow spell of a few seconds is
        scaled by the host speed during that spell.
        """
        half = Calibration.WINDOW // 2
        padded = np.pad(np.asarray(self.slowdown), half, mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1), axis=1)
        latest = np.searchsorted(self.calibrated_at, np.arange(self.attempted), side="right") - 1
        return np.asarray(self.op_cpu_s) / local[latest]


def run_op(workload, op, result: Pass, tracer=None) -> None:
    """Time one operation, then check its output; failures are counted."""
    result.attempted += 1
    if tracer is not None:
        tracer.recording = True
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    try:
        output = workload.run(op)
    except Exception:
        output = None
        error = traceback.format_exc()
    else:
        error = None
    cpu, wall = time.thread_time() - cpu0, time.perf_counter() - wall0
    if tracer is not None:
        tracer.recording = False
    result.op_cpu_s.append(cpu)
    result.op_wall_s.append(wall)
    result.work += workload.agent_rounds(op)
    if error is None:
        try:
            result.digest.update(workload.check(op, output))
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        if not result.failed:
            print(f"operation {result.attempted} failed:\n{error}", file=sys.stderr)
        result.failed += 1
        result.digest.update(b"failed")


def run_pass(workload, seconds: float | None = None, ops: int | None = None,
             tracer=None) -> Pass:
    """Run operations for ``seconds``, or exactly ``ops`` of them, from the first input."""
    result = Pass()
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)
    next_sample = start
    for op in workload.inputs():
        now = time.perf_counter()
        if now >= next_sample:
            result.slowdown.append(Calibration.sample(workload.calibration))
            result.calibrated_at.append(result.attempted)
            next_sample = now + Calibration.EVERY_S
        if ops is not None:
            done = result.attempted >= ops
        else:
            done = now >= deadline and result.attempted > 0
        if done:
            break
        run_op(workload, op, result, tracer)
    return result


def set_up(name: str, seed: int, out_dir: Path):
    """Import, build the workload and make one warm-up call, ``SETUP_REPS`` times.

    Returns the median on-CPU time of one repetition.
    """
    times = []
    warm = Pass()
    for _ in range(SETUP_REPS):
        t0 = time.thread_time()
        fdt = import_fdtsim()
        workload = workloads.make(name, fdt, seed, out_dir)
        run_op(workload, next(workload.inputs()), warm)
        times.append(time.thread_time() - t0)
    return fdt, workload, statistics.median(times), warm


def context(name: str, seed: int) -> dict:
    """Facts about the program and machine that no bound applies to."""
    src_lines = sum(p.read_bytes().count(b"\n") for p in sorted(SRC.rglob("*.py")))
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return {
        "workload": name,
        "seed": seed,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
    }


def measure(name: str, seed: int, seconds: float) -> dict:
    """One worker: set up, then run operations for ``seconds``; returns its figures."""
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        _, workload, setup_cpu_s, warm = set_up(name, seed, Path(out_dir))
        # Peak memory of import, construction and the warm-up operations,
        # taken before any calibration kernel allocates its arrays.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed = run_pass(workload, seconds=seconds)
    cpu_ms = np.asarray(timed.op_cpu_s) * 1e3
    wall_ms = np.asarray(timed.op_wall_s) * 1e3
    return {
        "attempted": warm.attempted + timed.attempted,
        "failed": warm.failed + timed.failed,
        "work": timed.work,
        "op_ref_ms": (timed.op_ref_s() * 1e3).tolist(),
        "setup_s": setup_cpu_s * timed.speed,
        "peak_rss_mb": peak_rss_mb,
        # The same figures before scaling, in on-CPU and wall time.
        "raw": {
            "calibration_slowdown_p50": float(np.median(timed.slowdown)),
            "setup_cpu_s": setup_cpu_s,
            "op_cpu_ms_p50": float(np.percentile(cpu_ms, 50)),
            "op_cpu_ms_p99": float(np.percentile(cpu_ms, 99)),
            "op_wall_ms_p50": float(np.percentile(wall_ms, 50)),
            "op_wall_ms_p99": float(np.percentile(wall_ms, 99)),
            "agent_rounds_per_cpu_s": timed.work / cpu_ms.sum() * 1e3,
            "agent_rounds_per_wall_s": timed.work / wall_ms.sum() * 1e3,
        },
    }


def run_workers(name: str, seed: int, seconds: float) -> list[dict]:
    """Measure in ``WORKERS`` fresh processes, one after another."""
    results = []
    deadline = time.monotonic() + RUN_LIMIT_S
    for k in range(WORKERS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed * WORKERS + k),
             "--seconds", str(seconds / WORKERS), "--worker"],
            capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
            env=dict(os.environ, PYTHONHASHSEED=str(k)),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {k} exited with code {proc.returncode}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def end_to_end(results: list[dict]) -> dict[str, dict]:
    op_ref_ms = np.concatenate([r["op_ref_ms"] for r in results])
    median = lambda key: statistics.median(r[key] for r in results)
    values = {
        "agent_rounds_per_ref_s": (sum(r["work"] for r in results) / op_ref_ms.sum() * 1e3, "1/s"),
        "op_ref_ms_p50": (float(np.percentile(op_ref_ms, 50)), "ms"),
        "op_ref_ms_p90": (float(np.percentile(op_ref_ms, 90)), "ms"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "setup_s": (median("setup_s"), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, dict, list[Pass]]:
    """Untraced pass, then the same operations traced; returns per-layer metrics."""
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        fdt, workload, _, warm = set_up(name, seed, Path(out_dir))
        plain = run_pass(workload, seconds=seconds / 2)
        tracer = tracing.Tracer(fdt)
        try:
            traced = run_pass(workload, ops=plain.attempted, tracer=tracer)
        finally:
            restored = tracer.uninstall()
    tracer.write(OUT / f"trace-{name}.npz")
    same_output = plain.digest.digest() == traced.digest.digest()
    layer = tracer.layer_metrics(sum(traced.op_wall_s), traced.attempted)
    layer["trace.overhead_frac"] = (
        traced.op_ref_s().sum() / plain.op_ref_s().sum() - 1.0
    )
    metrics = {n: {"value": value, "unit": tracing.unit(n)} for n, value in layer.items()}
    info = {"ops": traced.attempted, "spans": len(tracer.start), "originals_restored": restored,
            "traced_output_identical": same_output}
    return metrics, info, [warm, plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help="measure in this process and print its raw figures as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    try:
        import_fdtsim()
    except ImportError as exc:
        print(f"error: cannot import fdtsim: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    OUT.mkdir(exist_ok=True)

    if args.worker:
        print(json.dumps(measure(args.workload, args.seed, args.seconds)))
        return 0
    info = context(args.workload, args.seed)
    if args.trace:
        metrics, traced_info, passes = traced_run(args.workload, args.seed, args.seconds)
        info.update(traced_info)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        correct = traced_info["originals_restored"] and traced_info["traced_output_identical"]
    else:
        results = run_workers(args.workload, args.seed, args.seconds)
        metrics = end_to_end(results)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = True
        info["workers"] = len(results)
        info["ops"] = sum(len(r["op_ref_ms"]) for r in results)
        for key in results[0]["raw"]:
            info[key] = statistics.median(r["raw"][key] for r in results)
    info["failed_frac"] = failed / attempted
    print("context: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

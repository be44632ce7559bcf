"""Benchmark of whtfire: training, 1080p detection and long transforms.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload detect-wht-b32 --seed 1 --seconds 15 --trace 0

One process, closed loop: the next operation starts when the previous one
ends.  Set-up (input generation, checkpoint writing, one warm-up call) is
repeated ``SETUP_REPEATS`` times and timed on its own.  The loop then runs
operations until ``--seconds`` of operation time has passed, checks every
output against its oracle outside the timed region, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics from a traced
run (``--trace 1``).  End-to-end times and rates are stated at reference
host speed (see ``HostReference``).  The last line of standard output is
one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Details, provenance
and (when tracing) the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_OPS = 3
EXIT_NO_RESULT = 2
# Host-speed reference: kernel calls after each set-up and after the
# operations of every REFERENCE_EVERY_S of operation time, the untimed
# pause before them (longer than the time OpenBLAS worker threads spin
# after a call), and the kernel's median time on the 2-vCPU Xeon host
# (numpy 2.4) where the benchmark was defined.
REFERENCE_CALLS = 3
REFERENCE_EVERY_S = 1.0
REFERENCE_PAUSE_S = 0.2
REFERENCE_S = 0.006

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_s", "s"),
    ("main_per_s", "items/s"),
    ("side_per_s", "items/s"),
)
WORKLOAD_NAMES = ("train-wht32", "detect-wht-b32", "detect-conv-b224", "transform-long")


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    phases: dict | None   # None when the operation raised
    failures: list[str]
    scale: float = 1.0    # REFERENCE_S over the host reference around this operation

    def scaled(self) -> OpRecord:
        """This operation's times stated at reference host speed."""
        phases = None if self.phases is None else {
            k: v * self.scale for k, v in self.phases.items()}
        return OpRecord(self.seconds * self.scale, self.traced, phases, self.failures)


def import_library() -> None:
    """Import whtfire from this checkout's ``src``, and from nowhere else."""
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import whtfire

    origin = Path(whtfire.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise ImportError(f"whtfire imported from {origin}, not from {SOURCE}")


# -- provenance ----------------------------------------------------------------

def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ,
                                             "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    fwht = importlib.import_module("whtfire.fwht")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "whtfire").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "transform_kernel": "numba" if fwht._HAVE_NUMBA else "numpy",
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# -- the run -------------------------------------------------------------------

class HostReference:
    """A fixed kernel that calls no whtfire code, timed between operations.

    The host these runs share drifts by 10-40% over minutes, for every kind
    of work.  Scaling each operation's time by REFERENCE_S over this
    kernel's median time just before and just after it (or the group of
    operations it belongs to) removes most of that drift.  The kernel mixes
    what the workloads do: interpreter-bound Python, many small array ops,
    and streaming over 4 MiB, more than the L2 cache holds.  It runs on one
    core, and only after an untimed pause, so that BLAS worker threads an
    operation left spinning have gone idle.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.maps = rng.standard_normal((32, 32, 8))
        self.weight = rng.standard_normal((8, 8))
        self.vector = rng.standard_normal(1 << 19)
        self.buffer = np.zeros_like(self.vector)
        self.seconds: list[float] = []

    def _kernel(self) -> float:
        acc = float(sum(i * i % 7 for i in range(30000)))
        for _ in range(100):
            acc += float(np.maximum(self.maps @ self.weight, 0.0).mean())
        for _ in range(4):
            np.add(self.buffer, self.vector, out=self.buffer)
        return acc + float(self.buffer[0])

    def sample(self) -> list[float]:
        """Pause, then time the kernel REFERENCE_CALLS times; returns those times."""
        time.sleep(REFERENCE_PAUSE_S)
        times = []
        for _ in range(REFERENCE_CALLS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.seconds += times
        return times


def _scale(*samples: list[float]) -> float:
    """Multiply a time by this (divide a rate) to state it at reference speed."""
    return REFERENCE_S / statistics.median([t for group in samples for t in group])


def _end_to_end(workload, state, setup_s: list[float], ops: list[OpRecord]):
    """(setup_s, op_p50_s and the workload's two rates, its named metrics)."""
    completed = [o for o in ops if o.phases is not None]
    generic, named = workload.summary(state, completed) if completed else (
        {"main_per_s": 0.0, "side_per_s": 0.0}, {})
    values = {"setup_s": statistics.median(setup_s),
              "op_p50_s": statistics.median(o.seconds for o in ops), **generic}
    return values, named


def _run_op(workload, state, index: int, tracer) -> OpRecord:
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        outcome = workload.op(state, index)
    except Exception as exc:  # a raising operation is a failed operation
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = None
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if outcome is None:
        return OpRecord(seconds, tracer is not None, None, [error])
    failures = workload.check(state, index, outcome.result)
    return OpRecord(seconds, tracer is not None, outcome.phases, failures)


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None,
        out_dir: Path = OUT) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    import workloads
    from spans import PER_LAYER, Tracer, layer_metrics

    workload = workloads.make(name, sizes or workloads.FULL)
    seed = seed % (1 << 63)
    workdir = out_dir / f"work-{os.getpid()}"
    setup_s, setup_scaled, digests = [], [], []
    reference = HostReference()
    try:
        for k in range(SETUP_REPEATS):
            if k:
                shutil.rmtree(workdir / f"setup{k - 1}")
            t0 = time.perf_counter()
            (workdir / f"setup{k}").mkdir(parents=True)
            state = workload.setup(seed, workdir / f"setup{k}")
            workload.warm_up(state)
            setup_s.append(time.perf_counter() - t0)
            digests.append(state["inputs_sha256"])
            before = reference.sample()
            setup_scaled.append(setup_s[-1] * _scale(before))
        global_failures = []
        if len(set(digests)) != 1:
            global_failures.append("the same seed generated different inputs")

        tracer = Tracer() if trace else None
        ops: list[OpRecord] = []
        pending: list[OpRecord] = []  # operations not yet bracketed by a reference sample
        measured = 0.0
        more = True
        while more:
            # a traced run alternates untraced and traced operations, so the
            # two medians give the tracing overhead under the same conditions
            index = len(ops)
            record = _run_op(workload, state, index, tracer if trace and index % 2 else None)
            ops.append(record)
            pending.append(record)
            measured += record.seconds
            more = measured < seconds or len(ops) < MIN_OPS or (
                trace and len(ops) < 2 * MIN_OPS)
            if not more or sum(o.seconds for o in pending) >= REFERENCE_EVERY_S:
                after = reference.sample()
                for o in pending:
                    o.scale = _scale(before, after)
                before, pending = after, []
        failed = sum(1 for o in ops if o.failures)
        report = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "correct": failed == 0 and not global_failures,
            "attempted": len(ops),
            "failed": failed,
            "failures": global_failures + [f for o in ops for f in o.failures][:20],
            "op_seconds": [o.seconds for o in ops],
            "setup_seconds": setup_s,
            "reference": {"nominal_s": REFERENCE_S, "pause_s": REFERENCE_PAUSE_S,
                          "blas_threads": _blas_threads(), "seconds": reference.seconds,
                          "op_scales": [o.scale for o in ops]},
            "provenance": {**provenance(), "inputs_sha256": digests[0],
                           **workload.provenance(state)},
        }
        if trace:
            report["trace_check"] = {
                "top_level_span_s": tracer.top_level_seconds(),
                "traced_op_s": sum(o.seconds for o in ops if o.traced),
            }
            scaled = [o.scaled() for o in ops]
            values = layer_metrics(tracer, sum(o.traced for o in ops),
                                   workload.trace_context(state),
                                   [o.seconds for o in scaled if o.traced],
                                   [o.seconds for o in scaled if not o.traced])
            report["metrics"] = {m: {"value": values[m], "unit": u} for m, u, _ in PER_LAYER}
            report["all_layer_values"] = values
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / f"spans-{name}-seed{seed}.json.gz")
        else:
            peak = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            raw, raw_named = _end_to_end(workload, state, setup_s, ops)
            values, named = _end_to_end(workload, state, setup_scaled, [o.scaled() for o in ops])
            values.update(peak)
            report["raw_metrics"] = {**raw, **peak, **{k: v for k, (v, _) in raw_named.items()}}
            report["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
            report["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {SOURCE}: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    detail = OUT / f"{args.workload}-seed{report['seed']}-trace{args.trace}.json"
    detail.write_text(json.dumps(report, indent=1) + "\n")
    raw = report.get("raw_metrics", {})
    for key, entry in {**report.get("named_metrics", {}), **report["metrics"]}.items():
        unscaled = f"  (raw {raw[key]:.6g})" if key in raw else ""
        print(f"{args.workload}  {key:<40} {entry['value']:.6g} {entry['unit']}{unscaled}")
    print("provenance " + json.dumps({k: v for k, v in report["provenance"].items()
                                      if k != "blas"}))
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

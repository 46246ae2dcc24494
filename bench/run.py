"""hamlab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hamlab is imported from ``src/``
there, never from an installed copy.  The run repeats the workload's
iteration (see ``workloads.py``) for about ``--seconds`` seconds and checks
every iteration's outputs.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` operations, and ``metrics``
(name -> value and unit).

``--trace 0`` reports the end-to-end metrics, untraced: iteration wall and
CPU time in units of a fixed reference kernel timed next to each iteration
(``wall_ref``, ``cpu_ref``; see ``reference_kernel``), median set-up time
over fresh processes, and peak RSS.  ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics of the traced ones
(medians over iterations; counts are identical in every iteration), the
untraced iterations' wall and CPU seconds, and the tracing overhead.  Every
sample, the spans and the run's provenance go to ``.bench_out/``.

Without a ``src/hamlab`` in the checkout the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from importlib import metadata
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

# BLAS/OpenMP pools are pinned to one thread, at most nproc: the workloads
# call LAPACK on matrices of size <= 4, where threads only add noise
THREAD_PIN = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def prepare():
    """Pin thread pools and make ``src/`` of this checkout importable."""
    for var in _THREAD_VARS:
        os.environ[var] = str(THREAD_PIN)
    src = ROOT / "src"
    if not (src / "hamlab" / "__init__.py").is_file():
        raise SetupError(f"no hamlab package under {src}")
    sys.path.insert(0, str(src))
    import hamlab

    if Path(hamlab.__file__).resolve().parent != (src / "hamlab").resolve():
        raise SetupError(f"imported hamlab from {hamlab.__file__}, not from {src}")


def provenance(args) -> dict:
    import numpy

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pin": THREAD_PIN,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit():
    """HEAD of the checkout, read from ``.git`` (None outside a git tree or
    when the branch ref is packed)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def setup_seconds(workload: str, seed: int) -> float:
    """Median time for ``import hamlab`` plus building the inputs, each probe
    in a fresh interpreter so the import is never cached in-process."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Iteration:
    """Runs one iteration of a workload and checks its outputs."""

    def __init__(self, name, inputs, seed, reference):
        import workloads

        self.workloads = workloads
        self.name = name
        self.inputs = inputs
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self):
        """One timed iteration: (wall seconds, cpu seconds, outcome).

        Pass the outcome to ``account`` once tracing is off, so that the
        checks are neither timed nor traced."""
        ops = self.workloads.WORKLOADS[self.name].ops(self.inputs)
        out, broken = {}, None
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        for op, fn in ops:
            try:
                out[op] = fn(out)
            except Exception:
                broken = op
                traceback.print_exc(file=sys.stderr)
                break
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        return wall, cpu, ([op for op, _ in ops], out, broken)

    def account(self, outcome):
        """Count attempted and failed operations, checking the outputs."""
        names, out, broken = outcome
        self.attempted += len(names)
        if broken is not None:
            # the failing operation and every one after it count as failed
            self.failed += len(names) - names.index(broken)
            return
        try:
            problems = self.workloads.check(
                self.name, self.inputs, out, self.seed, self.reference
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += len(names)
            return
        for op, msg in problems:
            print(f"check failed: {self.name} {op}: {msg}", file=sys.stderr)
        self.failed += len({op for op, _ in problems})


def traced_run(it: Iteration, tracer, run_id: str):
    """One traced iteration: (wall seconds, outcome, per-layer metrics)."""
    import spans

    tracer.install()
    root = tracer.begin_run(run_id)
    try:
        wall, _, outcome = it.run()
    finally:
        tracer.close(root)
        tracer.uninstall()
    return wall, outcome, spans.layer_metrics(tracer.run_spans(run_id))


def _square(poly: dict) -> dict:
    out = {}
    for ka, ca in poly.items():
        for kb, cb in poly.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return out


def reference_kernel():
    """Fixed work that does not use hamlab, timed before and after every
    iteration.

    The 2-core VM this benchmark was built on shares its host: the same
    iteration runs up to ~50% slower for stretches of tens of seconds to
    minutes, so run medians of raw seconds spread by 17-30% across ten runs.
    Dividing each iteration's time by the mean time of the kernels run just
    before and after it cancels that slowdown (3-7% spread in the same
    conditions).  The kernel mixes what the workloads do: products of
    tuple-keyed dict polynomials with float and Fraction coefficients, and
    small numpy and eigvalsh calls.
    """
    import numpy as np

    pf = {(i % 3, i % 4, i % 5, i % 2): 0.1 * i for i in range(60)}
    px = {k: Fraction(int(10 * c) % 17 + 1, 7) for k, c in list(pf.items())[:25]}
    for _ in range(4):
        _square(pf)
        _square(px)
    a = np.linspace(0.0, 1.0, 64).reshape(32, 2)
    for _ in range(4000):
        a = np.sqrt(a * a + 0.5) - 0.5
        np.linalg.eigvalsh(np.eye(2) + a[:2] @ a[:2].T)


def _timed_kernel():
    w0, c0 = time.perf_counter(), time.process_time()
    reference_kernel()
    return time.perf_counter() - w0, time.process_time() - c0


def measure(it: Iteration, seconds: float, trace: bool):
    """Repeat iterations for about ``seconds``, each followed by the
    reference kernel; in trace mode alternate untraced and traced ones.

    Returns (untraced samples, per-layer samples, kernel samples, tracer);
    a sample is (wall s, cpu s, wall in kernel units, cpu in kernel units)."""
    import spans

    tracer = spans.Tracer() if trace else None
    plain, layered = [], []
    t0 = time.perf_counter()
    reference_kernel()  # warm-up: numpy's first linalg call is slower
    kernels = [_timed_kernel()]
    k = 0
    while True:
        if trace and k % 2 == 1:
            wall, outcome, m = traced_run(it, tracer, f"{it.name}-{it.seed}-{k}")
            kernels.append(_timed_kernel())
            m["wall_ref"] = 2.0 * wall / (kernels[-2][0] + kernels[-1][0])
            layered.append(m)
        else:
            wall, cpu, outcome = it.run()
            kernels.append(_timed_kernel())
            (kw0, kc0), (kw1, kc1) = kernels[-2:]
            plain.append((wall, cpu, 2.0 * wall / (kw0 + kw1), 2.0 * cpu / (kc0 + kc1)))
        it.account(outcome)
        k += 1
        elapsed = time.perf_counter() - t0
        enough = len(plain) >= 1 and (not trace or len(layered) >= 1)
        if enough and elapsed * (k + 1) / k > seconds:
            break
    return plain, layered, kernels, tracer


def _median(samples, i):
    return statistics.median(s[i] for s in samples)


def end_to_end_metrics(plain, setup_s) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_ref": _median(plain, 2),
        "cpu_ref": _median(plain, 3),
        "setup_s": setup_s,
        "peak_rss_mib": peak_kib / 1024.0,
    }


def per_layer_metrics(plain, layered) -> dict:
    m = {name: statistics.median(s[name] for s in layered) for name in layered[0]}
    m["trace.overhead_frac"] = m.pop("wall_ref") / _median(plain, 2) - 1.0
    m["run.wall_s"] = _median(plain, 0)
    m["run.cpu_s"] = _median(plain, 1)
    return m


def with_units(values: dict, section: str) -> dict:
    """Every metric BENCHMARK.json lists in ``section``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in spec}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workloads.WORKLOADS[args.workload].build(args.seed, str(OUT_DIR))
    if args.setup_probe:
        print(repr(time.perf_counter() - T_START))
        return 0

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    it = Iteration(args.workload, inputs, args.seed, reference)
    plain, layered, kernels, tracer = measure(it, args.seconds, bool(args.trace))

    if args.trace:
        metrics = with_units(per_layer_metrics(plain, layered), "per_layer")
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        metrics = with_units(end_to_end_metrics(plain, setup_s), "end_to_end")
    prov = provenance(args)
    prov["iterations"] = {"untraced": len(plain), "traced": len(layered)}
    prov["untraced_samples"] = plain
    prov["kernel_wall_cpu_s"] = kernels
    result = {
        "correct": it.failed == 0,
        "attempted": it.attempted,
        "failed": it.failed,
        "metrics": metrics,
    }
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (stem.with_suffix(".json")).write_text(
        json.dumps({"provenance": prov, "result": result}, indent=1) + "\n"
    )
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.json"), {"provenance": prov})
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        prepare()
    except (SetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())

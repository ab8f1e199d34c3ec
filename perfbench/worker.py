"""Child process of the benchmark: set up one workload and run its closed loop.

Started by run.py with one JSON argument.  It reports through an events file
of JSON lines, flushed one line at a time, so that run.py can account for
every operation even when it has to kill this process:

    ready   set-up finished (perf_counter clock), import time, machine record,
            digest of the inputs generated in set-up
    start   operation i began
    done    operation i ended: seconds, error or null, and the host-speed
            kernel's time right after it
    cal     time of the host-speed kernel, run once before the first operation
    ref     the fixed reference operation: error or null
    layers  traced runs only: per-layer metrics
    end     peak resident memory, digest of every input generated

`import hyperpol` comes first, so that its time includes numpy and scipy.
"""

import json
import sys
from time import perf_counter

_T0 = perf_counter()
import hyperpol  # noqa: E402

IMPORT_MS = (perf_counter() - _T0) * 1e3

import gc  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

import workloads  # noqa: E402

_KA = np.random.default_rng(0).standard_normal((16, 16)) * 0.3 + 2j * np.eye(16)
_KY0 = np.ones(16, dtype=complex)
_KRECORDS = [{"i": i, "x": [float(j) for j in range(8)], "name": {"s": str(i)}}
             for i in range(1500)]


def host_kernel() -> float:
    """Seconds taken by a fixed job that uses no hyperpol code.

    The shared host's speed drifts by up to 2x within a minute, and this job
    slows with it.  Of the jobs tried, scipy's RK45 on a 16-dimensional
    complex linear system plus a JSON round trip of 1500 small records tracked
    the operations best.  About 15 ms.  The garbage collector is off while it
    runs, so that its time does not depend on the workload's heap.
    """
    gc.disable()
    try:
        t = perf_counter()
        solve_ivp(lambda _, y: _KA @ y, (0.0, 3.0), _KY0, rtol=1e-8, atol=1e-10)
        json.loads(json.dumps(_KRECORDS))
        return perf_counter() - t
    finally:
        gc.enable()


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hyperpol": getattr(hyperpol, "__version__", "unknown"),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def main() -> int:
    args = json.loads(sys.argv[1])
    events = open(args["events"], "a", encoding="utf-8")

    def emit(**ev):
        events.write(json.dumps(ev) + "\n")
        events.flush()

    wl = workloads.WORKLOADS[args["workload"]](args["seed"], Path(args["workdir"]))
    first = wl.setup()
    tracer = None
    if args["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    emit(ev="ready", t=perf_counter(), import_ms=IMPORT_MS, inputs=wl.digest,
         machine=machine_record())
    if args["mode"] == "setup":
        return 0

    for _ in range(3):
        host_kernel()
    emit(ev="cal", s=host_kernel())
    ran = []
    timed = 0.0
    k = b = 0
    while timed < args["seconds"]:
        for case in first if b == 0 else wl.block(b):
            emit(ev="start", i=k)
            if tracer:
                tracer.begin_op(k)
            err = None
            t = perf_counter()
            try:
                out = wl.run(case)
            except Exception as exc:  # a raising operation is a failed operation
                err = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t
            if tracer:
                tracer.end_op()
            if err is None:
                try:
                    err = wl.check(case, out)
                except Exception as exc:  # the check could not judge the output
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is None and dt > args["op_budget_s"]:
                err = f"over the {args['op_budget_s']} s budget"
            emit(ev="done", i=k, s=dt, err=err, cal=host_kernel())
            ran.append(case)
            timed += dt
            k += 1
        b += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()
        untraced = 0.0
        for case in ran:
            t = perf_counter()
            try:
                wl.run(case)
            except Exception:  # already counted as failed in the traced pass
                pass
            untraced += perf_counter() - t
        tracer.write(args["spans"])
        emit(ev="layers", metrics=layer_metrics(tracer, timed / untraced),
             absent=tracer.absent, patched=tracer.patched)

    try:
        ref = workloads.reference_check(Path(args["reference"]), Path(args["workdir"]))
    except Exception as exc:  # the reference numbers could not be computed
        ref = f"{type(exc).__name__}: {exc}"
    emit(ev="ref", err=ref)
    emit(ev="end", rss_mb=rss_mb, inputs=wl.digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())

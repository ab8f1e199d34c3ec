#!/usr/bin/env python3
"""Seeded benchmark of hyperpol: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

A run builds its inputs from --seed, measures set-up in fresh interpreters,
runs the workload in a child process for --seconds of timed operations,
checks every output outside the timed region, and prints each metric with
its unit.  The last line of standard output is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  Each run also appends a full record (machine, inputs,
latencies, failures) to --results.  --compare reads two such files and
gives a verdict per workload and end-to-end metric against the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
PACKAGE = ROOT / "src" / "hyperpol" / "__init__.py"
REFERENCE = ROOT / "scripts" / "hbn_scenario.yaml"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 3        # fresh interpreters per run, the workload's own included
SETUP_TIMEOUT_S = 20.0
# The tail is the highest fixed percentile that leaves >= 10 samples beyond it
# in a 30-s run of the seed code: design_sweep completes 30 to 55 operations
# (0.6 to 1 s each), the other workloads 48 or more.
TAIL_PERCENTILE = {"design_sweep": 60}
DEFAULT_TAIL_PERCENTILE = 75
OP_BUDGET_S = 10.0       # an operation that takes longer counts as failed
# Timings are reported at a reference host speed: the speed at which the worker's
# host-speed kernel takes this long.  On a 2-vCPU shared host it took 11 to 25 ms.
REFERENCE_KERNEL_S = 0.015
DEADLINE_MARGIN_S = 30.0  # on top of the loop, the traced replay and the checks


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(WORK / "results.jsonl"),
                    help="JSON-lines file each run appends its full record to")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two results files instead of running")
    return ap.parse_args(argv)


# --- child processes ------------------------------------------------------------------

def _launch(params: dict, timeout: float):
    """Start worker.py; kill it at the timeout.  Returns (t_spawn, rc, killed, events)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    events = Path(params["events"])
    events.unlink(missing_ok=True)
    with open(Path(params["workdir"]) / "stderr.log", "ab") as err:
        t_spawn = perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(params)],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killed = False
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            killed = True
        finally:  # also on interruption: never leave the child running
            if proc.poll() is None:
                proc.kill()
            rc = proc.wait()
    evs = []
    if events.exists():
        for line in events.read_text(encoding="utf-8").splitlines():
            try:
                evs.append(json.loads(line))
            except json.JSONDecodeError:  # a line cut short by the kill
                pass
    return t_spawn, rc, killed, evs


def _first(evs, kind):
    return next((e for e in evs if e["ev"] == kind), None)


def _percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


# --- one run ----------------------------------------------------------------------------

def run(args, spec) -> int:
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: --workload must be one of {workloads}", file=sys.stderr)
        return 2
    for path in (PACKAGE, REFERENCE):
        if not path.is_file():
            print(f"error: {path.relative_to(ROOT)} not found; run from a hyperpol checkout",
                  file=sys.stderr)
            return 2
    seconds = float(args.seconds or spec["run_seconds"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "op_budget_s": OP_BUDGET_S, "workdir": str(workdir),
            "events": str(workdir / "events.jsonl"), "reference": str(REFERENCE),
            "spans": str(WORK / f"spans-{tag}.csv")}
    setups, imports, digests, failures = [], [], set(), []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            t_spawn, rc, _, evs = _launch(dict(base, mode="setup"), SETUP_TIMEOUT_S)
            ready = _first(evs, "ready")
            if rc != 0 or ready is None:
                failures.append(f"set-up child exited {rc} before it was ready")
                continue
            setups.append(ready["t"] - t_spawn)
            imports.append(ready["import_ms"])
            digests.add(ready["inputs"])
        # The loop child runs the timed loop, for a traced run an untraced replay
        # of the same operations, and the output checks.
        budget = (2 + args.trace) * seconds + DEADLINE_MARGIN_S
        t_spawn, rc, killed, evs = _launch(dict(base, mode="loop"), budget)
        stderr_tail = (workdir / "stderr.log").read_text(errors="replace")[-2000:]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ready = _first(evs, "ready")
    ref, end, layers = _first(evs, "ref"), _first(evs, "end"), _first(evs, "layers")
    done = [e for e in evs if e["ev"] == "done"]
    started = {e["i"] for e in evs if e["ev"] == "start"}
    unfinished = len(started - {e["i"] for e in done})
    op_errors = [f"op {e['i']}: {e['err']}" for e in done if e["err"]]
    failed = len(op_errors) + unfinished
    failures += op_errors
    if unfinished:
        failures.append(f"{unfinished} operation(s) unfinished when the child stopped")
    if ref is None or ref["err"]:
        failures.append(f"reference operation: {ref['err'] if ref else 'not reached'}")
        failed += 1
    attempted = len(started) + 1   # the reference operation counts as one
    if ready is None:
        failures.append("set-up did not finish")
    else:
        setups.append(ready["t"] - t_spawn)
        imports.append(ready["import_ms"])
        digests.add(ready["inputs"])
    if len(digests) > 1:
        failures.append("set-up children generated different inputs from one seed")
    if killed or rc != 0 or end is None:
        failures.append("workload child " + ("killed at its deadline" if killed else f"exited {rc}"))

    # Each operation's wall time is scaled to the reference host speed by the
    # median of the four kernel times nearest it: two before it and two after
    # it, fewer at the ends.  Only operations that completed and passed their
    # check give latencies; the time of failed ones still counts in the loop
    # time.
    cal = _first(evs, "cal")
    kernel = ([cal["s"]] if cal else []) + [e["cal"] for e in done]
    off = len(kernel) - len(done)   # op i lies between kernel[i - 1 + off] and kernel[i + off]
    scaled = [e["s"] * REFERENCE_KERNEL_S
              / statistics.median(kernel[max(0, i - 2 + off):i + 2 + off])
              for i, e in enumerate(done)]
    latencies = [x for x, e in zip(scaled, done) if e["err"] is None]
    loop_s = sum(scaled)
    wall = [e["s"] for e in done if e["err"] is None]
    tail_p = TAIL_PERCENTILE.get(args.workload, DEFAULT_TAIL_PERCENTILE)
    detail = {"operations": len(done), "completed": len(latencies), "loop_s": loop_s,
              "setup_samples_s": setups, "import_ms_samples": imports,
              "latencies_ms": [x * 1e3 for x in latencies],
              "wall_latencies_ms": [x * 1e3 for x in wall],
              "kernel_ms": [x * 1e3 for x in kernel]}
    if args.trace:
        values = dict(layers["metrics"]) if layers else {}
        values["import.hyperpol_ms"] = statistics.median(imports) if imports else 0.0
        if layers:
            detail.update(absent=layers["absent"], patched=layers["patched"],
                          spans_file=str(Path(base["spans"]).relative_to(ROOT)))
        listed = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups) if setups else 0.0}
        if latencies:
            tail = _percentile(latencies, tail_p)
            values.update(ops_per_s=len(latencies) / loop_s,
                          op_p50_ms=statistics.median(latencies) * 1e3,
                          op_tail_ms=tail * 1e3)
            detail.update(tail_percentile=tail_p,
                          tail_samples_beyond=sum(x > tail for x in latencies),
                          wall_ops_per_s=len(wall) / sum(e["s"] for e in done),
                          wall_op_p50_ms=statistics.median(wall) * 1e3,
                          wall_op_tail_ms=_percentile(wall, tail_p) * 1e3,
                          kernel_p50_ms=statistics.median(kernel) * 1e3)
        values["peak_rss_mb"] = end["rss_mb"] if end else 0.0
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        failures.append("metrics missing: " + ", ".join(missing))
    if failures:  # a run that went wrong outside any one operation still fails one
        failed = max(failed, 1)
    detail.update(failed_frac=failed / attempted, failures=failures)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, **result, "detail": detail,
              "machine": ready["machine"] if ready else None,
              "inputs": {"seed": args.seed, "setup_digest": sorted(digests),
                         "digest": end["inputs"] if end else None}}
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:44s} {m['value']:14.6g} {m['unit']}")
    if not args.trace and latencies:
        print(f"{args.workload:16s} operations {len(latencies)} completed, tail = p{tail_p} with "
              f"{detail['tail_samples_beyond']} samples beyond it")
        print(f"{args.workload:16s} wall clock: {detail['wall_ops_per_s']:.4g} 1/s, "
              f"p50 {detail['wall_op_p50_ms']:.4g} ms, tail {detail['wall_op_tail_ms']:.4g} ms; "
              f"host-speed kernel p50 {detail['kernel_p50_ms']:.4g} ms "
              f"(reference {REFERENCE_KERNEL_S * 1e3:g} ms)")
    print(f"{args.workload:16s} failed_frac {detail['failed_frac']:.4g} "
          f"({failed} of {attempted} attempted)")
    if detail.get("absent"):
        print(f"{args.workload:16s} absent (not traced): {', '.join(detail['absent'])}")
    for f in failures:
        print(f"{args.workload:16s} FAILED {f}")
    if failures and stderr_tail:
        print(stderr_tail, file=sys.stderr)
    print(json.dumps(result))
    return 0


# --- comparing two results files ----------------------------------------------------------

def _load(path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace") == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    """improved / unchanged / worse / unresolved, by the spread rule.

    Where the before-side spread (interquartile range over median) exceeds
    the bound, the answer is unresolved unless every after-run beats every
    before-run.  A gain needs the medians to differ by more than that spread
    and the after-side to win at least nine tenths of the runs paired in order.
    """
    if len(before) < 2 or len(after) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    med_b = statistics.median(before)
    q = _quartiles(before)
    spread = (q[2] - q[0]) / abs(med_b)
    worse_by = sign * (statistics.median(after) - med_b) / abs(med_b)
    if better == "lower":
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(before, after))
    wins = sum(sign * (a - b) < 0 for b, a in pairs)
    if -worse_by > spread and wins >= math.ceil(0.9 * len(pairs)):
        return "improved"
    return "unchanged"


def _failed(runs: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def compare(path_a, path_b, spec) -> int:
    """Per workload: the failed counts of both sides, then a verdict per metric.

    A side that fails a larger share of its operations is worse on every
    metric of that workload, whatever its timings show.
    """
    a, b = _load(path_a), _load(path_b)
    print(f"{'workload':16s} {'metric':12s} {'before: q1 / median / q3':>34s} "
          f"{'after: q1 / median / q3':>34s}  bound  verdict")
    for wl in sorted(set(a) | set(b)):
        (fa, na), (fb, nb) = _failed(a.get(wl, [])), _failed(b.get(wl, []))
        more_failed = na > 0 and nb > 0 and fb / nb > fa / na
        print(f"{wl:16s} {'failed':12s} {f'{fa} of {na} attempted':>34s} "
              f"{f'{fb} of {nb} attempted':>34s}        "
              + ("worse" if more_failed else "-"))
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a.get(wl, [])]
            vb = [r["metrics"][m["name"]]["value"] for r in b.get(wl, [])]
            cols = []
            for v in (va, vb):
                cols.append(" / ".join(f"{x:.4g}" for x in _quartiles(v)) + f" (n={len(v)})"
                            if v else "no runs")
            v = "worse" if more_failed else verdict(va, vb, m["bound"], m["better"])
            print(f"{wl:16s} {m['name']:12s} {cols[0]:>34s} {cols[1]:>34s}  "
                  f"{m['bound']:.2f}   {v}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not SPEC.is_file():
        print("error: BENCHMARK.json not found next to perfbench/", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.compare:
        return compare(*args.compare, spec)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())

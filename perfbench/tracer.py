"""Span tracer that wraps hyperpol's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, operation
id).  Spans stay in memory and are written out once, at the end of the run.
A span's self time is its duration minus the time covered by its direct
children.  A wrapped name is patched in every hyperpol module that bound the
same function object with ``from ... import``; a name that no longer exists
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped in traced runs, grouped by layer.
TRACED = [
    ("cli", "main"),
    ("cli", "write_csv"),
    ("scenario", "load_scenario"),
    ("scenario", "build_coupling_matrix"),
    ("scenario", "operating_frequency"),
    ("material", "default_hbn"),
    ("material", "permittivity_at"),
    ("material", "hyperbolic_bands"),
    ("material", "upper_band"),
    ("optics", "field_map"),
    ("optics", "dipole_field"),
    ("optics", "waveguide_foci"),
    ("resonator", "resonance_map"),
    ("resonator", "pair_response"),
    ("resonator", "hsr_frequency"),
    ("resonator", "hsr_aspect"),
    ("resonator", "hsr_locus_aspect"),
    ("resonator", "gamma_self"),
    ("resonator", "coupling_J12_hsr"),
    ("resonator", "design_window"),
    ("dynamics", "iswap_gate"),
    ("dynamics", "channel_superoperator"),
    ("dynamics", "evolve"),
    ("dynamics", "lindblad_rhs"),
    ("dynamics", "build_hamiltonian"),
    ("dynamics", "liouvillian_matrix"),
    ("dynamics", "average_gate_fidelity"),
    ("integrate", "integrate"),
]

MODULES = ("material", "optics", "resonator", "integrate", "dynamics", "scenario", "cli")
ROOT = "bench.op"  # the benchmark's own span around one operation


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        # span record: [op, name_id, parent_index, start, end, child_time]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.patched: dict[str, list[str]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules.get(f"hyperpol.{name}") for name in MODULES}
        for mod_name, fn_name in TRACED:
            qual = f"{mod_name}.{fn_name}"
            orig = getattr(mods[mod_name], fn_name, None) if mods[mod_name] else None
            if not callable(orig):
                self.absent.append(qual)
                continue
            wrapper = self._wrap(qual, orig)
            bound_in = []
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "hyperpol" or mname.startswith("hyperpol.")):
                    continue
                if vars(mod).get(fn_name) is orig:
                    self._restore.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)
                    bound_in.append(mname)
            self.patched[qual] = sorted(bound_in)

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self._restore):
            setattr(mod, fn_name, orig)
        self._restore.clear()

    # --- spans ------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack = [len(self.spans)]
        self.spans.append([op, 0, -1, perf_counter(), 0.0, 0.0])

    def end_op(self) -> None:
        rec = self.spans[self.stack[0]]
        rec[4] = perf_counter()
        self.stack = []

    def _wrap(self, qual: str, fn):
        tracer = self
        nid = len(self.names)
        self.names.append(qual)
        before, after = _HOOKS.get(qual, (None, None))
        pos = _positions(fn, qual)

        def wrapper(*args, **kwargs):
            if not tracer.stack:  # outside an operation, e.g. an output check
                return fn(*args, **kwargs)
            spans = tracer.spans
            parent = tracer.stack[-1]
            idx = len(spans)
            rec = [tracer.op, nid, parent, 0.0, 0.0, 0.0]
            spans.append(rec)
            tracer.stack.append(idx)
            if before is not None:
                args, kwargs = before(tracer, pos, args, kwargs)
            rec[3] = start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = end = perf_counter()
                tracer.stack.pop()
                spans[parent][5] += end - start
            if after is not None:
                after(tracer, pos, args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.op][key] += value

    # --- results ------------------------------------------------------------------

    def per_op(self) -> dict[int, dict]:
        """Per operation: wall time, calls and self time per span name, counters."""
        ops: dict[int, dict] = {}
        for op, nid, _parent, start, end, child in self.spans:
            entry = ops.setdefault(op, {"wall_s": 0.0, "calls": defaultdict(int),
                                        "self_s": defaultdict(float)})
            name = self.names[nid]
            if nid == 0:
                entry["wall_s"] = end - start
            entry["calls"][name] += 1
            entry["self_s"][name] += (end - start) - child
        for op, entry in ops.items():
            entry["counts"] = dict(self.counts.get(op, {}))
        return ops

    def write(self, path) -> None:
        """Write every span as CSV: op, name, parent index, start, end, self time."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,op,name,parent,start_s,end_s,self_s\n")
            for i, (op, nid, parent, start, end, child) in enumerate(self.spans):
                fh.write(f"{i},{op},{self.names[nid]},{parent},{start:.9f},{end:.9f},"
                         f"{end - start - child:.9f}\n")


# --- per-function hooks: counters measured where the work happens -----------------

def _positions(fn, qual: str) -> dict[str, int]:
    """Positional index of the parameters the hooks read, by name."""
    if qual not in _HOOKS:
        return {}
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return {}
    return {name: i for i, name in enumerate(params)}


def _arg(pos, args, kwargs, name):
    if name in kwargs:
        return kwargs[name], True
    i = pos.get(name)
    if i is not None and i < len(args):
        return args[i], True
    return None, False


def _set_arg(pos, args, kwargs, name, value):
    i = pos.get(name)
    if name in kwargs or i is None or i >= len(args):
        kwargs = dict(kwargs)
        kwargs[name] = value
        return args, kwargs
    args = list(args)
    args[i] = value
    return tuple(args), kwargs


def _integrate_before(tracer, pos, args, kwargs):
    """Count right-hand-side calls and accepted steps of one integration."""
    f, found = _arg(pos, args, kwargs, "f")
    if found and callable(f):
        def counted_f(t, y, _f=f):
            tracer.count("integrate.rhs_calls")
            return _f(t, y)
        args, kwargs = _set_arg(pos, args, kwargs, "f", counted_f)
    if "record" in pos:
        record, _ = _arg(pos, args, kwargs, "record")

        def counted_record(t, y, _r=record):
            tracer.count("integrate.accepted_steps")
            if _r is not None:
                _r(t, y)
        args, kwargs = _set_arg(pos, args, kwargs, "record", counted_record)
    return args, kwargs


def _pair_response_after(tracer, pos, args, kwargs, out):
    tracer.count("resonator.pair_response.terms", getattr(out, "n_terms", 0))


def _write_csv_after(tracer, pos, args, kwargs, out):
    path, found = _arg(pos, args, kwargs, "path")
    if found:
        try:
            tracer.count("cli.write_csv.bytes", os.path.getsize(path))
        except OSError:
            pass


def _build_hamiltonian_after(tracer, pos, args, kwargs, out):
    # t is nonzero only on the time-dependent path (a detuned drive)
    t, found = _arg(pos, args, kwargs, "t")
    if found and t != 0.0:
        tracer.count("dynamics.build_hamiltonian.td_calls")


_HOOKS = {
    "integrate.integrate": (_integrate_before, None),
    "resonator.pair_response": (None, _pair_response_after),
    "cli.write_csv": (None, _write_csv_after),
    "dynamics.build_hamiltonian": (None, _build_hamiltonian_after),
}


# --- per-layer metrics, as means per traced operation ---------------------------------

CALLS = ["scenario.load_scenario", "cli.write_csv", "material.permittivity_at",
         "optics.dipole_field", "resonator.pair_response", "dynamics.lindblad_rhs",
         "dynamics.build_hamiltonian", "dynamics.liouvillian_matrix", "integrate.integrate"]
SELF_MS = ["scenario.load_scenario", "scenario.build_coupling_matrix", "cli.write_csv",
           "material.permittivity_at", "material.hyperbolic_bands", "optics.field_map",
           "resonator.resonance_map", "resonator.pair_response", "resonator.hsr_frequency",
           "resonator.gamma_self", "dynamics.iswap_gate", "dynamics.channel_superoperator",
           "dynamics.evolve", "dynamics.lindblad_rhs", "dynamics.build_hamiltonian",
           "integrate.integrate"]
COUNTS = ["cli.write_csv.bytes", "resonator.pair_response.terms",
          "dynamics.build_hamiltonian.td_calls", "integrate.accepted_steps"]


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; `overhead` is traced over untraced wall time."""
    ops = list(tracer.per_op().values())
    n = len(ops)

    def mean(values) -> float:
        return sum(values) / n

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = mean(e["calls"].get(name, 0) for e in ops)
    for name in SELF_MS:
        out[f"{name}.self_ms"] = mean(e["self_s"].get(name, 0.0) for e in ops) * 1e3
    for key in COUNTS:
        out[key] = mean(e["counts"].get(key, 0.0) for e in ops)
    rhs = sum(e["counts"].get("integrate.rhs_calls", 0.0) for e in ops)
    accepted = sum(e["counts"].get("integrate.accepted_steps", 0.0) for e in ops)
    out["integrate.rhs_per_accepted_step"] = rhs / accepted if accepted else 0.0
    wall = sum(e["wall_s"] for e in ops)
    for mod in MODULES:
        out[f"{mod}.self_share"] = sum(
            s for e in ops for name, s in e["self_s"].items()
            if name.startswith(mod + ".")) / wall
    # time inside an operation that no wrapped function covers
    out["trace.unattributed_frac"] = max(e["self_s"][ROOT] / e["wall_s"] for e in ops)
    out["trace.overhead_frac"] = overhead
    out["trace.ops"] = float(n)
    return out

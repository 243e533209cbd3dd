"""In-memory span tracing around the public functions of each layer.

The tracer wraps functions from the outside: for every target it replaces
each binding of the original function object in the loaded hybridservo
modules (for example both velocity_solver.solve_velocity and the copy cli
imported), so callers are traced whichever name they use.  A target that no
longer exists is reported as absent and its metrics read zero.

A span is (name, start, end, parent, op, attrs).  Spans stay in memory and
are written out as JSON lines by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "hybridservo"

# (module, function).  The span is named "<module>.<function>" and its
# layer is the module.
TARGETS = [
    ("block_tilting", "build_instance"),
    ("block_tilting", "rollout_states"),
    ("velocity_solver", "solve_velocity"),
    ("velocity_solver", "compute_dimensions"),
    ("velocity_solver", "candidate_basis"),
    ("velocity_solver", "projected_gradient_descent"),
    ("subspace_linalg", "numerical_rank"),
    ("subspace_linalg", "null_space_basis"),
    ("subspace_linalg", "min_norm_solution"),
    ("subspace_linalg", "solve_square"),
    ("force_solver", "solve_force"),
    ("force_solver", "assemble_newton"),
    ("force_solver", "build_kkt"),
    ("force_solver", "solve_kkt"),
    ("force_solver", "linprog"),
    ("verifier", "check_velocity_solution"),
    ("verifier", "check_force_solution"),
    ("cli", "main"),
]

SVD_CALLS = {"subspace_linalg.numerical_rank", "subspace_linalg.null_space_basis"}
LINALG_CALLERS = ("velocity_solver", "force_solver", "verifier")
KKT = {"force_solver.build_kkt", "force_solver.solve_kkt"}
PGD = "velocity_solver.projected_gradient_descent"
LINPROG = "force_solver.linprog"

# Per-layer metrics: name -> (unit, better).  Every one is emitted on every
# workload; a layer the workload never calls reads zero.
PER_LAYER = {
    "velocity_solver.solve_velocity.ms": ("ms", "lower"),
    "velocity_solver.projected_gradient_descent.ms": ("ms", "lower"),
    "velocity_solver.projected_gradient_descent.calls": ("count", "lower"),
    "velocity_solver.projected_gradient_descent.iters": ("count", "lower"),
    "velocity_solver.projected_gradient_descent.converged_ratio": ("ratio", "higher"),
    "velocity_solver.compute_dimensions.ms": ("ms", "lower"),
    "velocity_solver.candidate_basis.ms": ("ms", "lower"),
    "velocity_solver.self_ms": ("ms", "lower"),
    "subspace_linalg.svd_calls": ("count", "lower"),
    "subspace_linalg.solve_calls": ("count", "lower"),
    "subspace_linalg.ms": ("ms", "lower"),
    **{
        f"subspace_linalg.{kind}.{caller}": (unit, "lower")
        for caller in LINALG_CALLERS
        for kind, unit in (("svd_calls", "count"), ("solve_calls", "count"), ("ms", "ms"))
    },
    "force_solver.solve_force.ms": ("ms", "lower"),
    "force_solver.assemble_newton.ms": ("ms", "lower"),
    "force_solver.kkt.ms": ("ms", "lower"),
    "force_solver.lp_margin.ms": ("ms", "lower"),
    "force_solver.lp_effort.ms": ("ms", "lower"),
    "force_solver.lp.calls": ("count", "lower"),
    "force_solver.lp.iters": ("count", "lower"),
    "force_solver.lp.vars": ("count", "lower"),
    "force_solver.lp.rows": ("count", "lower"),
    "force_solver.lp_effort.fallbacks": ("ratio", "lower"),
    "force_solver.self_ms": ("ms", "lower"),
    "block_tilting.build_instance.ms": ("ms", "lower"),
    "block_tilting.rollout_states.ms": ("ms", "lower"),
    "verifier.check_velocity_solution.ms": ("ms", "lower"),
    "verifier.check_force_solution.ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _attrs(name, args, kwargs, result):
    """Counts recorded at the boundary of a call."""
    if name == PGD:
        return {
            "iters": int(getattr(result, "iterations", 0)),
            "converged": bool(getattr(result, "converged", False)),
        }
    if name == LINPROG:
        c = args[0] if args else kwargs["c"]
        rows = sum(
            len(kwargs[key]) for key in ("A_ub", "A_eq") if kwargs.get(key) is not None
        )
        return {
            "nit": int(getattr(result, "nit", 0)),
            "vars": len(c),
            "rows": rows,
            "success": bool(getattr(result, "success", False)),
        }
    return None


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(record)
            stack.append(index)
            result = None
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                record[5] = _attrs(name, args, kwargs, result)

        return traced

    def install(self):
        modules = [
            module
            for key, module in sys.modules.items()
            if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches = []

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return spans


def write_spans(path, passes):
    """Write the spans of each traced pass as JSON lines.

    Times are seconds from the pass's first span; parent is the id of the
    enclosing span within the same pass.
    """
    with open(path, "w") as fh:
        for number, spans in enumerate(passes):
            origin = spans[0][1] if spans else 0.0
            for index, (name, t0, t1, parent, op, attrs) in enumerate(spans):
                record = {
                    "pass": number,
                    "id": index,
                    "name": name,
                    "start": t0 - origin,
                    "end": t1 - origin,
                    "parent": parent,
                    "op": op,
                    "attrs": attrs,
                }
                fh.write(json.dumps(record) + "\n")


def _layer(name):
    return name.split(".", 1)[0]


COUNTS = [
    f"{PGD}.calls",
    f"{PGD}.iters",
    "force_solver.lp.calls",
    "force_solver.lp.iters",
    "force_solver.lp.vars",
    "force_solver.lp.rows",
    "subspace_linalg.svd_calls",
    "subspace_linalg.solve_calls",
]


def op_profiles(spans) -> dict:
    """Per-op counts and times (ms) keyed by op id, from one traced pass.

    Each profile maps a metric name to its value for that op (0 if absent).
    A function's `.ms` is its inclusive span duration; a kkt span inside
    another kkt span counts once.  `self_ms` and the subspace_linalg times
    are self times: the span minus the wrapped calls inside it.  LP calls
    inside one solve_force are the margin phase first, then the least-effort
    phase.  Keys starting with "_" are tallies for the ratio metrics.
    """
    own = [t1 - t0 for _, t0, t1, *_ in spans]
    for _, t0, t1, parent, *_ in spans:
        if parent is not None:
            own[parent] -= t1 - t0
    profiles: dict = {}
    lp_calls_in: dict = defaultdict(int)
    for index, (name, t0, t1, parent, op, attrs) in enumerate(spans):
        row = profiles.setdefault(op, defaultdict(float))
        ancestors = []
        while parent is not None:
            ancestors.append(parent)
            parent = spans[parent][3]
        outer = [spans[a][0] for a in ancestors]
        ms, self_ms = (t1 - t0) * 1e3, own[index] * 1e3
        layer = _layer(name)
        if layer == "subspace_linalg":
            caller = next((_layer(o) for o in outer if _layer(o) != layer), None)
            kind = "svd_calls" if name in SVD_CALLS else "solve_calls"
            row[f"{layer}.{kind}"] += 1
            row[f"{layer}.ms"] += self_ms
            row[f"{layer}.{kind}.{caller}"] += 1
            row[f"{layer}.ms.{caller}"] += self_ms
        elif name in KKT:
            if not KKT.intersection(outer):
                row["force_solver.kkt.ms"] += ms
        elif name == LINPROG:
            owner = next((a for a in ancestors if spans[a][0] == "force_solver.solve_force"), None)
            effort = lp_calls_in[owner] > 0
            lp_calls_in[owner] += 1
            row["force_solver.lp_effort.ms" if effort else "force_solver.lp_margin.ms"] += ms
            row["force_solver.lp.calls"] += 1
            row["force_solver.lp.iters"] += attrs["nit"]
            row["force_solver.lp.vars"] += attrs["vars"]
            row["force_solver.lp.rows"] += attrs["rows"]
            if effort:
                row["_effort_attempts"] += 1
                row["_effort_fallbacks"] += not attrs["success"]
        elif name == "cli.main":
            row["cli.self_ms"] += self_ms
        elif name not in outer:
            row[f"{name}.ms"] += ms
        if name == PGD:
            row[f"{PGD}.calls"] += 1
            row[f"{PGD}.iters"] += attrs["iters"]
            row["_pgd_converged"] += attrs["converged"]
        elif name in ("velocity_solver.solve_velocity", "force_solver.solve_force"):
            row[f"{layer}.self_ms"] += self_ms
    return profiles


def count_signature(profiles) -> dict:
    """The exact counts of every op, for the repeat check."""
    return {str(op): [row[key] for key in COUNTS] for op, row in profiles.items()}


def summarize(rows, spans) -> dict:
    """Per-layer metrics from (op id, profile) pairs pooled over passes.

    Timings and counts are medians per workload op (integer ids); the two
    ratios are taken over all calls.  cli.self_ms is the median over CLI runs
    and rollout_states the median per call, since neither is a workload op.
    """
    ops = [row for op, row in rows if isinstance(op, int)]
    cli_runs = [row for op, row in rows if isinstance(op, str) and op.startswith("cli")]

    def median(rows, key):
        return float(statistics.median(row.get(key, 0) for row in rows)) if rows else 0.0

    def ratio(num, den):
        total = sum(row.get(den, 0) for row in ops)
        return sum(row.get(num, 0) for row in ops) / total if total else 0.0

    out = {key: median(ops, key) for key in PER_LAYER if not key.startswith("trace.")}
    out[f"{PGD}.converged_ratio"] = ratio("_pgd_converged", f"{PGD}.calls")
    out["force_solver.lp_effort.fallbacks"] = ratio("_effort_fallbacks", "_effort_attempts")
    out["cli.self_ms"] = median(cli_runs, "cli.self_ms")
    rollouts = [(t1 - t0) * 1e3 for name, t0, t1, *_ in spans if name == "block_tilting.rollout_states"]
    out["block_tilting.rollout_states.ms"] = float(statistics.median(rollouts)) if rollouts else 0.0
    return out

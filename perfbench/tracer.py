"""Span tracer for one overcong process, installed from outside the package.

`install` wraps the public functions of every overcong module and rebinds
each wrapper at every place the original is reachable: the defining module,
every module that imported it by name (``from .modseries import ring_mul``),
and the package namespace.  Functions imported at call time, such as
``load_series`` inside ``prover._pbar_mod``, are looked up on their module
then, so patching the module covers them.

Each wrapped call records one span: name, start, end, parent span, run id,
and whatever the describer reads from its arguments and result (modulus,
truncation, support size, ring_mul path, bytes, steps).  ``chars.kronecker``
runs per element in Python, so it gets aggregate counters instead of spans.
Spans stay in memory and are written as JSON lines by `Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, describe):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                tracer._record(span_id, name, start, end, parent,
                               {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer._record(span_id, name, start, end, parent,
                           describe(bound.arguments, result))
            return result

        return wrapper

    def _record(self, span_id, name, start, end, parent, info):
        record = {"id": span_id, "name": name, "start": start, "end": end,
                  "parent": parent, "run": self.run_id}
        record.update(info)
        with self._lock:
            self.spans.append(record)

    def counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0, 0.0])
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with lock:
                    cell[0] += 1
                    cell[1] += elapsed

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            for name, (calls, seconds) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "calls": calls, "s": seconds,
                                     "run": self.run_id}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# describers: argument dict (after defaults) and result -> span fields

def _series_info(f) -> dict:
    return {"modulus": f.ring.modulus, "trunc": f.trunc,
            "support": None if f.support is None else int(len(f.support))}


def _generic(args: dict, result) -> dict:
    from overcong.modseries import TruncSeries
    from overcong.qgen import QExpansion
    for value in args.values():
        if isinstance(value, TruncSeries):
            return _series_info(value)
    if isinstance(result, QExpansion):
        result = result.series
    if isinstance(result, TruncSeries):
        return _series_info(result)
    info = {}
    if "modulus" in args:
        info["modulus"] = int(args["modulus"])
    if "claim" in args:
        info["modulus"] = args["claim"].modulus
    return info


def _ring_mul(args: dict, result) -> dict:
    # The path ring_mul takes, inferred from the operands as it infers it:
    # a zero operand short-cuts, any support list selects the sparse side,
    # otherwise dense convolution (the object-dtype variant counts as dense).
    f, g = args["f"], args["g"]
    sizes = [len(s.support) for s in (f, g) if s.support is not None]
    if f.is_zero() or g.is_zero():
        path = "zero"
    else:
        path = "sparse" if sizes else "dense"
    return {"modulus": result.ring.modulus, "trunc": result.trunc,
            "support": min(sizes) if sizes else None, "path": path}


def _divisor(args: dict, result) -> dict:
    info = _series_info(args.get("g", args.get("f")))
    info["trunc"] = result.trunc
    return info


def _file_bytes(args: dict, result) -> dict:
    series = result if result is not None else args["f"]
    info = _series_info(series)
    info["bytes"] = os.path.getsize(args["path"])
    return info


def _scan(args: dict, result) -> dict:
    # Coefficients the scan indexes, counted by the rule scan applies.
    from overcong.prover import default_scan_index
    modulus = int(args["modulus"])
    max_index = args["max_index"]
    if max_index is None:
        max_index = default_scan_index(modulus)
    n_max, min_support = args["n_max"], args["min_support"]
    gathered = 0
    for d in args["d_list"]:
        limit = max_index // int(d)
        for a in args["a_list"]:
            a = int(a)
            for b in range(a):
                t_hi = min((limit - b) // a, n_max)
                if t_hi >= 0 and t_hi + 1 >= min_support:
                    gathered += t_hi + 1
    return {"modulus": modulus, "trunc": max_index, "gathered": gathered,
            "claims": len(result)}


def _report(args: dict, result) -> dict:
    info = _generic(args, result)
    info["steps"] = [[step.name, step.seconds] for step in result.steps]
    return info


def _cli_main(args: dict, result) -> dict:
    return {"argv": list(args["argv"] or sys.argv[1:])}


# (module, attribute, describer).  The span is named module.function, so
# Decomposition.recombine records as halfint.recombine; a describer of None
# means aggregate counters only.
TARGETS = (
    ("modseries", "ring_mul", _ring_mul),
    ("modseries", "ring_pow", _generic),
    ("modseries", "ring_invert", _divisor),
    ("modseries", "ring_div", _divisor),
    ("modseries", "transform", _generic),
    ("modseries", "extract_progression", _generic),
    ("modseries", "load_series", _file_bytes),
    ("modseries", "save_series", _file_bytes),
    ("qgen", "pochhammer", _generic),
    ("qgen", "eta_quotient", _generic),
    ("qgen", "theta_phi", _generic),
    ("qgen", "r_m_series", _generic),
    ("qgen", "overpartition_series", _generic),
    ("qgen", "weight2_form", _generic),
    ("chars", "kronecker", None),
    ("halfint", "expand_monomial", _generic),
    ("halfint", "Decomposition.recombine", _generic),
    ("halfint", "decompose", _generic),
    ("halfint", "hecke_T", _generic),
    ("halfint", "apply_U", _generic),
    ("halfint", "sieve_progression", _generic),
    ("sturm", "sturm_bound", _generic),
    ("sturm", "progression_limit", _generic),
    ("prover", "scan", _scan),
    ("prover", "check_claim_direct", _generic),
    ("prover", "prove_theorem_mod11", _report),
    ("prover", "prove_theorem_mod13", _report),
    ("prover", "verify_identity", _report),
    ("prover", "verify_lemma1", _generic),
    ("cli", "main", _cli_main),
)


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind the wrapper wherever the original is bound."""
    import overcong  # noqa: F401  (imports every submodule but cli)
    import overcong.cli  # noqa: F401
    modules = [m for name, m in sys.modules.items()
               if name == "overcong" or name.startswith("overcong.")]
    for module_name, attr, describe in TARGETS:
        owner = sys.modules[f"overcong.{module_name}"]
        *classes, leaf = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, leaf)
        span_name = f"{module_name}.{leaf}"
        if describe is None:
            wrapper = tracer.counter(span_name, original)
        else:
            wrapper = tracer.span(span_name, original, describe)
        setattr(owner, leaf, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

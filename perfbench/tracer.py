"""Spans around stabloci's public functions, installed from outside.

`Tracer.install()` rebinds each traced function in its defining module
and in every loaded `stabloci` module that imported it by name, and
patches `MultiPoly.mul` on its class.  Each call records one span:
name, start, end, parent span and job id, kept in flat arrays until the
run ends.  Self time is computed afterwards from the spans: a span's
duration minus the durations of its direct child spans (the program is
single-threaded, so child spans never overlap).

Work counters (matrix cells, enumerated subsets, kernel nullity) are
taken from each call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from math import comb
from pathlib import Path
from time import perf_counter_ns


def _distinct(points) -> int:
    return len(set(points))


def _subsets(m: int, lo: int, hi: int) -> int:
    return sum(comb(m, s) for s in range(lo, min(m, hi) + 1))


def _closest_subsets(args, kwargs, result) -> dict:
    """Subsets of 1..dim+1 distinct points that the enumeration can visit."""
    points = args[0]
    return {"subsets": _subsets(_distinct(points), 1, len(points[0]) + 1)}


def _hull_subsets(args, kwargs, result) -> dict:
    """Caratheodory subsets (2..dim+1 points) plus hyperplane subsets (dim-1 points)."""
    points = args[0]
    m, dim = _distinct(points), len(points[0])
    extra = comb(m, dim - 1) if dim > 1 else 0
    return {"subsets": _subsets(m, 2, dim + 1) + extra}


def _rref_cells(args, kwargs, result) -> dict:
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _kernel_cells(args, kwargs, result) -> dict:
    rows, ncols = args[0], args[1]
    return {"cells": len(rows) * ncols, "cols": ncols, "nullity": len(result)}


def _strata_supports(args, kwargs, result) -> dict:
    return {"supports": 2 ** len(args[0].weights) - 1}


# (module, qualified name, counter of the call's work or None)
TARGETS = (
    ("stabloci.cli", "run", None),
    ("stabloci.actions", "parse_document", None),
    ("stabloci.torus", "stratification_indices", _strata_supports),
    ("stabloci.torus", "stratum_quotient_data", None),
    ("stabloci.hull", "closest_point_to_origin", _closest_subsets),
    ("stabloci.hull", "hull_origin_position", _hull_subsets),
    ("stabloci.hull", "origin_in_hull", None),
    ("stabloci.linalg", "int_kernel", _kernel_cells),
    ("stabloci.linalg", "rref", _rref_cells),
    ("stabloci.poly", "MultiPoly.mul", None),
    ("stabloci.poly", "poly_gcd_univariate", None),
    ("stabloci.poly", "rational_roots", None),
    ("stabloci.graded", "translate_coordinate_polys", None),
    ("stabloci.graded", "check_condition_cstar", None),
    ("stabloci.graded", "check_condition_cstar_tilde", None),
    ("stabloci.graded", "generic_stab_dim", None),
    ("stabloci.invariants", "sl2_invariants_binary_form", None),
    ("stabloci.invariants", "unipotent_invariants", None),
    ("stabloci.invariants", "generator_degree_report", None),
)


def span_name(module: str, qualname: str) -> str:
    return module.removeprefix("stabloci.") + "." + qualname


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names = [span_name(m, q) for m, q, _ in TARGETS]
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("h")
        self.job = array("i")
        self.counters: dict[str, dict[str, int]] = {n: {} for n in self.names}
        self.job_id = -1
        self._stack = [-1]

    def _wrap(self, name_id: int, fn, counter):
        start, end, parent, name, job, stack = self.start, self.end, self.parent, self.name, self.job, self._stack
        totals = self.counters[self.names[name_id]]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(name_id)
            job.append(tracer.job_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target; call after `stabloci` is imported."""
        for name_id, (module_name, qualname, counter) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(name_id, getattr(cls, attr), counter))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name_id, original, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and (mod_name == "stabloci" or mod_name.startswith("stabloci.")):
                    if getattr(mod, qualname, None) is original:
                        setattr(mod, qualname, wrapper)

    def self_times_ns(self) -> tuple[list[int], list[int]]:
        """(calls, self time in ns) per target, from the recorded spans."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(len(start)):
            duration = end[i] - start[i]
            n = name[i]
            calls[n] += 1
            self_ns[n] += duration
            p = parent[i]
            if p >= 0:
                self_ns[name[p]] -= duration
        return calls, self_ns

    def write(self, directory: Path, stem: str) -> None:
        """Spans as raw column arrays plus a JSON header naming them."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = ("start", "end", "parent", "name", "job")
        with open(directory / f"{stem}.spans", "wb") as fh:
            for column in columns:
                getattr(self, column).tofile(fh)
        header = {
            "spans": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "names": self.names,
            "byteorder": sys.byteorder,
            "counters": self.counters,
        }
        (directory / f"{stem}.spans.json").write_text(json.dumps(header, indent=1) + "\n")

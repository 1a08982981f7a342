"""Span tracing of polyphi's layers from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
polyphi module namespace that binds it, so calls between modules (cli ->
cross_validate -> build_matrix, realize_gee -> genetic_code -> is_generic)
become nested spans.  `restore()` puts the original objects back.  Spans
are kept in flat arrays in memory and written out once, at the end of a
run.  Combinatorics primitives run millions of times per request, so they
are counted, not timed.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

TIMED = (
    "lengths.genetic_code",
    "lengths.is_generic",
    "lengths.realize_gee",
    "lengths.enumerate_subgees",
    "duality.pairing_by_profile",
    "duality.pairing_set",
    "duality.admissible_summands",
    "relations.build_matrix",
    "relations.nullspace_functional",
    "relations.annihilation_failures",
    "relations.cross_validate",
    "relations.subgee_count",
    "cli.main",
)
COUNTED = (
    "combinatorics.compositions",
    "combinatorics.is_subgee_profile",
    "combinatorics.binom_parity",
    "combinatorics.block_counts",
)
# Generator functions: the wrapper drains them inside the span, or the span
# would close before any work is done.
EAGER = {"lengths.enumerate_subgees"}


def _polyphi_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polyphi" or name.startswith("polyphi."))]


class Tracer:
    def __init__(self) -> None:
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.counts: Counter[str] = Counter()
        self.request = -1
        # Request id -> factor that rescales its spans to the reference speed.
        self.scale: dict[int, float] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # --- wrappers --------------------------------------------------------

    def _timed(self, name: str, fn, after):
        name_id = TIMED.index(name)
        eager = name in EAGER
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_request.append(self.request)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            except Exception as exc:
                self.span_end[idx] = perf_counter()
                stack.pop()
                if after:
                    after(args, None, exc)
                raise
            self.span_end[idx] = perf_counter()
            stack.pop()
            if after:
                after(args, result, None)
            return iter(result) if eager else result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_hooks(self) -> dict:
        from polyphi.errors import EmptySpaceError, NotGenericError

        c = self.counts
        realize_id = TIMED.index("lengths.realize_gee")

        def genetic_code(args, result, exc):
            stack = self._stack
            under_realize = bool(stack) and self.span_name[stack[-1]] == realize_id
            if exc is not None:
                c["lengths.genetic_code.raised"] += 1
                if under_realize and isinstance(exc, (NotGenericError, EmptySpaceError)):
                    c["lengths.realize_gee.rejected"] += 1
            else:
                c["lengths.genetic_code.genes"] += len(result.genes)
                c["lengths.genetic_code.gray_steps"] += 1 << (result.n - 1)
            if under_realize:
                c["lengths.realize_gee.candidates"] += 1

        def enumerate_subgees(args, result, exc):
            if result is not None:
                c["lengths.enumerate_subgees.sets"] += len(result)

        def admissible_summands(args, result, exc):
            if result is not None:
                c["duality.admissible_summands.summands"] += len(result)

        def build_matrix(args, result, exc):
            if result is not None:
                c["relations.build_matrix.basis"] += len(result.columns)
                c["relations.build_matrix.bytes"] += sum(sys.getsizeof(b) for b in result.bits)

        def nullspace_functional(args, result, exc):
            if result is not None:
                c["relations.nullspace_functional.rank"] += len(args[0].columns) - result[0]

        return {
            "lengths.genetic_code": genetic_code,
            "lengths.enumerate_subgees": enumerate_subgees,
            "duality.admissible_summands": admissible_summands,
            "relations.build_matrix": build_matrix,
            "relations.nullspace_functional": nullspace_functional,
        }

    # --- install / restore -------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        hooks = self._after_hooks()
        modules = _polyphi_modules()
        for qual in TIMED + COUNTED:
            orig = self._original(qual)
            if qual in TIMED:
                wrapper = self._timed(qual, orig, hooks.get(qual))
            else:
                wrapper = self._counted(qual, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, orig))

    @staticmethod
    def _original(qual: str):
        module, attr = qual.split(".")
        return getattr(sys.modules[f"polyphi.{module}"], attr)

    def restore(self) -> None:
        for module, attr, orig in reversed(self._installed):
            setattr(module, attr, orig)
        self._installed.clear()

    # --- results ----------------------------------------------------------

    def layer_totals(self) -> Counter[str]:
        """Per-name calls and self time (duration minus time covered by children).

        Self times are rescaled by their request's factor in `scale`.
        """
        totals: Counter[str] = Counter(self.counts)
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        for i in range(n):
            name = TIMED[self.span_name[i]]
            totals[name + ".calls"] += 1
            own = self.span_end[i] - self.span_start[i] - child[i]
            totals[name + ".self_s"] += own * self.scale.get(self.span_request[i], 1.0)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "names": TIMED,
                "name": self.span_name.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "request": self.span_request.tolist(),
            }, fh)

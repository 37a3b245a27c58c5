"""Spans around the package's public functions, installed from outside.

Each traced function is replaced by a wrapper at every name a module of the
package binds it under (``smith_normal_form`` is called through
``igraphjac.jacobian``, ``poly_roots`` through both ``igraphjac.treecount``
and ``igraphjac.asymptotics``), so calls are seen whichever module makes them.
The wrappers keep per-function aggregates: calls, inclusive time, self time
(inclusive time minus the time of child spans) and raised exceptions, plus a
few counters read from arguments and return values.
"""

from __future__ import annotations

import sys
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "igraph": ("normalize", "laplacian_matrix"),
    "jacobian": ("jacobian_via_laplacian", "jacobian_via_companion"),
    "bigmat": ("mat_pow", "smith_normal_form", "determinant"),
    "polyring": ("spectral_poly", "companion_matrix", "chebyshev_quotient", "resultant"),
    "treecount": (
        "tree_count_kirchhoff",
        "tree_count_resultant",
        "tree_count_chebyshev",
        "decompose",
    ),
    "asymptotics": ("poly_roots", "mahler_constant", "mahler_integral"),
}


def _max_bits(matrix) -> int:
    return max(abs(x).bit_length() for row in matrix.to_lists() for x in row)


# counter name -> (function, unit, reads the result (True) or first argument, value)
_COUNTERS = {
    "bigmat.mat_pow.out_bits_max": ("bigmat.mat_pow", "bits", True, _max_bits),
    "bigmat.smith_normal_form.in_bits_max": ("bigmat.smith_normal_form", "bits", False, _max_bits),
    "asymptotics.poly_roots.residual_max": (
        "asymptotics.poly_roots",
        "rel",
        True,
        lambda roots: float(roots.residual_bound),
    ),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.raised: dict[str, int] = {}
        self.maxima: dict[str, float] = {name: 0.0 for name in _COUNTERS}
        self.missing: set[str] = set()  # traced names the package no longer has
        # one entry per open span: time covered by its children so far
        self._stack: list[float] = []

    def install(self):
        """Wrap every function in TRACED at each of its bindings.

        A function the package no longer defines is reported with zero calls.
        """
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "igraphjac"]
        for mod_name, funcs in TRACED.items():
            module = sys.modules.get(f"igraphjac.{mod_name}")
            for func in funcs:
                name = f"{mod_name}.{func}"
                for table in (self.calls, self.total, self.self_time, self.raised):
                    table[name] = 0
                original = getattr(module, func, None)
                if original is None:
                    self.missing.add(name)
                    continue
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        counters = [(c, on_result, read) for c, (f, _, on_result, read) in _COUNTERS.items() if f == name]
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                duration = perf_counter() - t0
                children = stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - children
                if stack:
                    stack[-1] += duration
            if counters:
                # counter bookkeeping is charged to no span's self time
                t1 = perf_counter()
                for counter, on_result, read in counters:
                    value = read(result if on_result else args[0])
                    if value > self.maxima[counter]:
                        self.maxima[counter] = value
                if stack:
                    stack[-1] += perf_counter() - t1
            return result

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """name -> (value, unit): calls, ms and self_ms per function, counters."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.ms"] = (self.total[name] * 1000, "ms")
            out[f"{name}.self_ms"] = (self.self_time[name] * 1000, "ms")
        for counter, (_, unit, _, _) in _COUNTERS.items():
            out[counter] = (self.maxima[counter], unit)
        out["treecount.tree_count_chebyshev.failed"] = (
            self.raised["treecount.tree_count_chebyshev"],
            "count",
        )
        return out

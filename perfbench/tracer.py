"""Call tracer for the younglab layers, installed from outside the library.

``Tracer.install`` wraps the public functions of each younglab module and
rebinds every name under which a younglab module holds them, so a call
through an importing module's alias (``younglab.forms.restricted_trace``,
``younglab.linsys.kernel``) is caught like a call through the defining
module.  Each call becomes one span kept in memory (function, start, end,
parent).  A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over its spans.  Counts come
from the same wrappers and, at the end, from ``cache_info()`` of the
cached public functions.

A later change to the library may remove a function, its cache or the
matrix type it takes.  The tracer then reports 0 for the metrics that
depend on it instead of failing, since such a change cannot edit the
benchmark.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# Layer name -> the younglab modules it covers.  ``permutations`` is a
# helper used only by ``forms``, so it is counted as part of ``forms``.
LAYERS = {
    "partitions": ("partitions",),
    "tableaux": ("tableaux",),
    "characters": ("characters",),
    "exactla": ("exactla",),
    "linsys": ("linsys",),
    "forms": ("forms", "permutations"),
    "cli": ("cli",),
}

# Leaf calls that cost about as much as a wrapper; their time stays in
# the caller's span.
SKIP = frozenset({
    "partitions.max_n", "partitions.check_partition",
    "partitions.parse_partition", "partitions.format_partition",
    "partitions.conjugate", "partitions.dominates",
    "partitions.strictly_dominates", "partitions.removable_rows",
    "partitions.addable_rows", "partitions.remove_cell",
    "partitions.add_cell", "partitions.bar",
    "tableaux.tableau_shape", "tableaux.tableau_weight",
    "tableaux.strip_weight", "tableaux.is_semistandard",
    "tableaux.reading_word", "tableaux.parse_tableau",
    "tableaux.format_tableau",
    "characters.class_types", "characters.class_size",
    "characters.sign_value",
    "forms.monomial_sort_key", "forms.two_row_partition",
    "permutations.identity", "permutations.compose",
    "permutations.inverse", "permutations.cycles",
    "permutations.cycle_type", "permutations.sign",
    "cli.frac_str",
})

# Cached functions whose time on cache misses is reported on its own.
MISS_TIMED = frozenset({"characters.irreducible_characters"})

# Cached functions read for hit ratios at the end.
CACHED = {
    "perm_character": "characters.perm_character",
    "kostka": "tableaux.kostka",
    "enumerate_partitions": "partitions.enumerate_partitions",
}


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their summed durations are the time they cover.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def _matrix_cells(a) -> tuple[int, int] | None:
    """(cells, nonzero cells) of a matrix argument, or None if its shape
    is not recognised."""
    rows = getattr(a, "entries", a)
    try:
        cells = sum(len(row) for row in rows)
        nonzero = sum(1 for row in rows for x in row if x)
    except TypeError:
        return None
    return cells, nonzero


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(fn) -> float:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0.0
    i = info()
    return _ratio(i.hits, i.hits + i.misses)


class Tracer:
    """Spans and counters for one traced run of the younglab layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []     # function id -> "module.name"
        self.layer_of: list[str] = []  # function id -> layer
        self.calls: list[int] = []
        self.inclusive: list[float] = []  # outermost calls only
        self.miss_s: list[float] = []
        self.depth: list[int] = []
        self.fids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.originals: dict[str, object] = {}
        self.patched: list[tuple[object, str, object]] = []
        self.counters = {
            "ssyt_args": set(), "tableaux_enumerated": 0,
            "cert_pairs": 0, "cert_canonical": 0,
            "rref_cells": 0, "rref_nonzero": 0, "max_cells": 0,
            "generators": 0, "ambient_dim_max": 0,
        }
        self.hooks: dict[str, Callable] = {
            "tableaux.enumerate_ssyt": self._on_ssyt,
            "tableaux.theorem4_bijection": self._on_certificate,
            "exactla.rref": self._on_rref,
            "forms.difference_product_generators": self._on_generators,
            "forms.specht_poly": self._on_specht,
            "forms.span_of_forms": self._on_span,
        }

    # -- counters fed by the wrappers ------------------------------------

    def _on_ssyt(self, args, result):
        c = self.counters
        c["ssyt_args"].add((tuple(args[0]), tuple(args[1])))
        c["tableaux_enumerated"] += len(result)

    def _on_certificate(self, args, result):
        self.counters["cert_pairs"] += len(getattr(result, "pairs", ()))
        self.counters["cert_canonical"] += getattr(result, "canonical_count", 0)

    def _on_rref(self, args, result):
        cells = _matrix_cells(args[0])
        if cells is not None:
            c = self.counters
            c["rref_cells"] += cells[0]
            c["rref_nonzero"] += cells[1]
            c["max_cells"] = max(c["max_cells"], cells[0])

    def _on_generators(self, args, result):
        self.counters["generators"] += len(result)

    def _on_specht(self, args, result):
        self.counters["generators"] += 1

    def _on_span(self, args, result):
        c = self.counters
        c["ambient_dim_max"] = max(c["ambient_dim_max"], len(args[1]))

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.inclusive.append(0.0)
        self.miss_s.append(0.0)
        self.depth.append(0)
        hook = self.hooks.get(name)
        miss_info = getattr(fn, "cache_info", None) if name in MISS_TIMED else None
        clock, fids, starts, ends = self.clock, self.fids, self.starts, self.ends
        parents, stack, calls, depth = self.parents, self.stack, self.calls, self.depth

        def wrapper(*args, **kwargs):
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            calls[fid] += 1
            depth[fid] += 1
            misses = miss_info().misses if miss_info else 0
            start = starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ends[i] = clock()
                stack.pop()
                depth[fid] -= 1
                if not depth[fid]:
                    self.inclusive[fid] += end - start
                if miss_info and miss_info().misses != misses:
                    self.miss_s[fid] += end - start
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package: str = "younglab") -> None:
        """Wrap the public functions of every layer module and rebind them
        in every loaded ``package`` module that holds them."""
        wrappers: dict[int, object] = {}
        for layer, modules in LAYERS.items():
            for short in modules:
                module = sys.modules.get(f"{package}.{short}")
                if module is None:
                    continue
                for attr, fn in list(vars(module).items()):
                    name = f"{short}.{attr}"
                    if (attr.startswith("_") or name in SKIP or not callable(fn)
                            or isinstance(fn, type)
                            or getattr(fn, "__module__", None) != module.__name__):
                        continue
                    self.originals[name] = fn
                    wrappers[id(fn)] = self._wrap(fn, name, layer)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.patched):
            setattr(module, attr, value)
        self.patched.clear()

    # -- results ---------------------------------------------------------

    def _fn(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def _calls(self, *names: str) -> int:
        return sum(self.calls[f] for f in map(self._fn, names) if f is not None)

    def _inclusive(self, name: str) -> float:
        f = self._fn(name)
        return self.inclusive[f] if f is not None else 0.0

    def metrics(self, stdout_bytes: int = 0) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        selfs = self_times(self.starts, self.ends, self.parents)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        flow = self._fn("linsys.polymorphism_feasibility")
        in_flow = [False] * len(self.fids)
        flow_s = 0.0
        for i, fid in enumerate(self.fids):
            layer = self.layer_of[fid]
            layer_self[layer] += selfs[i]
            layer_calls[layer] += 1
            p = self.parents[i]
            in_flow[i] = fid == flow or (p >= 0 and in_flow[p])
            if in_flow[i] and layer == "linsys":
                flow_s += selfs[i]

        c = self.counters
        ssyt_calls = self._calls("tableaux.enumerate_ssyt")
        cached = {k: self.originals.get(v) for k, v in CACHED.items()}
        orth = self._fn("characters.irreducible_characters")
        out: dict[str, tuple[float, str]] = {
            f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS
        }
        out.update({
            "characters.inner_calls": (self._calls("characters.inner"), "count"),
            "characters.inner_s": (self._inclusive("characters.inner"), "s"),
            "characters.orthogonalize_s": (
                self.miss_s[orth] if orth is not None else 0.0, "s"),
            "characters.perm_character_hit_ratio": (
                _hit_ratio(cached["perm_character"]), "ratio"),
            "tableaux.ssyt_calls": (ssyt_calls, "count"),
            "tableaux.tableaux_enumerated": (c["tableaux_enumerated"], "count"),
            "tableaux.ssyt_unique_ratio": (
                _ratio(len(c["ssyt_args"]), ssyt_calls), "ratio"),
            "tableaux.kostka_hit_ratio": (_hit_ratio(cached["kostka"]), "ratio"),
            "tableaux.canonical_ratio": (
                _ratio(c["cert_canonical"], c["cert_pairs"]), "ratio"),
            "exactla.rref_calls": (self._calls("exactla.rref"), "count"),
            "exactla.rref_cells": (c["rref_cells"], "count"),
            "exactla.rref_density": (
                _ratio(c["rref_nonzero"], c["rref_cells"]), "ratio"),
            "exactla.max_cells": (c["max_cells"], "count"),
            "exactla.rank_calls": (
                self._calls("exactla.rank", "exactla.rank_bareiss"), "count"),
            "exactla.kernel_calls": (self._calls("exactla.kernel"), "count"),
            "exactla.intersect_s": (self._inclusive("exactla.intersect"), "s"),
            "exactla.restricted_trace_s": (
                self._inclusive("exactla.restricted_trace"), "s"),
            "partitions.calls": (layer_calls["partitions"], "count"),
            "partitions.enum_hit_ratio": (
                _hit_ratio(cached["enumerate_partitions"]), "ratio"),
            "linsys.systems_built": (self._calls("linsys.build_system3"), "count"),
            "linsys.flow_s": (flow_s, "s"),
            "forms.generators": (c["generators"], "count"),
            "forms.ambient_dim_max": (c["ambient_dim_max"], "count"),
            "forms.restricted_character_s": (
                self._inclusive("forms.restricted_character"), "s"),
            "cli.stdout_bytes": (stdout_bytes, "bytes"),
        })
        return out

"""Spans around calls into the sternbrocot modules, installed from outside.

A Tracer replaces each traced public function, in every sternbrocot
module that bound it at import (``cli`` and ``dist`` use
``from .x import f``), with a wrapper that records a span (name, start,
end, parent) and the work counts measured at that boundary. Spans stay
in memory until the traced process ends and writes them out.

Nothing under src/ changes; uninstall() puts the original functions back.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

#: Traced public functions, by module (= layer).
LAYERS = {
    "cli": ("run",),
    "dist": ("verify_theorem1", "empirical_cdf"),
    "xi": ("xi", "theta"),
    "stern": ("stern_level", "first_level", "next_level", "new_mediants"),
    "singular": ("g_series", "g_tau2", "question_mark", "g_inductive", "g_stream"),
    "cf": ("expand_rcf", "expand_rrcf"),
    "exact": ("to_decimal",),
}
#: Layers whose results are sequences: their sizes count as elements built.
SEQUENCE_LAYERS = ("xi", "stern")


def _size(result) -> int:
    elements = getattr(result, "elements", result)
    try:
        return len(elements)
    except TypeError:
        return 0


def _bits(value) -> int:
    """Largest numerator or denominator bit length inside a returned value."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, tuple):
        return max((_bits(v) for v in value), default=0)
    if hasattr(value, "numerator"):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return max((_bits(getattr(value, slot)) for slot in getattr(type(value), "__slots__", ())),
               default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = {"singular.failed": 0, "singular.result_bits_max": 0,
                                       "xi.elements_built": 0, "stern.elements_built": 0}
        self._stack: list[int] = []
        self._last: dict[str, object] = {}
        self._undo: list = []

    def install(self) -> None:
        importlib.import_module("sternbrocot.cli")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "sternbrocot" or name.startswith("sternbrocot.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"sternbrocot.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(layer, f"{layer}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, layer: str, label: str, fn):
        spans, stack, counts, last = self.spans, self._stack, self.counts, self._last
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            misses = cache_info().misses if cache_info else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if layer == "singular":
                    counts["singular.failed"] += 1
                raise
            finally:
                spans[index] = (label, start, perf_counter(), parent)
                stack.pop()
            if layer in SEQUENCE_LAYERS:
                # A cache hit, or the very object a nested call just built,
                # is not new work.
                fresh = cache_info is None or cache_info().misses != misses
                if fresh and result is not last.get(layer):
                    counts[f"{layer}.elements_built"] += _size(result)
                last[layer] = result
            elif layer == "singular":
                counts["singular.result_bits_max"] = max(counts["singular.result_bits_max"],
                                                         _bits(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def dump(record: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle)


def summarize(record: dict) -> dict[str, float]:
    """Per-function calls and self time, per-layer self time, and the counts.

    Self time is a span's duration minus the time its child spans cover;
    spans nest in one thread, so the children never overlap.
    """
    spans = record["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = dict(record["counts"])
    for (label, start, end, _), child in zip(spans, covered):
        own = end - start - child
        layer = label.split(".", 1)[0]
        out[f"{label}.calls"] = out.get(f"{label}.calls", 0) + 1
        out[f"{label}.self_s"] = out.get(f"{label}.self_s", 0.0) + own
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
    return out

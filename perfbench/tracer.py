"""Outside-in tracing: wrap the package's public functions from the benchmark.

Each wrapped call records a span (name, start, end, parent).  A function is
replaced in every ``superspecial`` module namespace that binds it, because
modules import names directly (``sslocus`` binds ``roots_in_fp2`` itself);
methods are replaced on their class.  Private kernels (``_mul``,
``_Modulus.reduce``, ``_gcd``) are not wrapped, so their time shows as self
time of the nearest wrapped caller.

Spans stay in memory; ``summary`` turns them into per-name
call counts, inclusive time (outermost call of a name only) and self time
(duration minus the time covered by child spans).
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import time
from collections import Counter

# (module, attribute) of every wrapped function, and (module, class, method)
# of every wrapped method.  Span names are "<module>.<name>".
FUNCTIONS = [
    ("fppoly", "hasse_poly"), ("fppoly", "roots_in_fp2"),
    ("ffield", "lambda_to_j"), ("ffield", "frobenius"),
    ("sslocus", "census"), ("sslocus", "decode_census"),
    ("massform", "principal_mass"), ("massform", "class_number_level"),
    ("exactnum", "zeta_negative"),
    ("finitegroup", "group_from_kind"),
    ("cosettrace", "random_model"), ("cosettrace", "double_cosets"),
    ("cosettrace", "kernel_trace"), ("cosettrace", "delta_sets"),
    ("cosettrace", "orbital_trace"), ("cosettrace", "factored_trace"),
    ("cosettrace", "volume_identity_check"),
    ("acceptance", "sweep_censuses"), ("acceptance", "seeded_models"),
    ("cli", "main"), ("cli", "cmd_sweep"),
]
METHODS = [
    ("ffield", "Fp2Field", "parse"),
    ("sslocus", "Census", "validate"),
    ("sslocus", "CensusCache", "__init__"), ("sslocus", "CensusCache", "get"),
    ("sslocus", "CensusCache", "put"),
    ("finitegroup", "Group", "normalizer_of"), ("finitegroup", "Group", "subgroup"),
    ("finitegroup", "Group", "conjugacy_partition"), ("finitegroup", "Group", "centralizer"),
    ("finitegroup", "Group", "conj_vector"),
]
_CRITERION = re.compile(r"criterion_(\d+)_")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            after = hook(args) if hook else None
            idx = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf()
            if after:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        counters = self.counters

        def roots_found(args):
            return lambda roots: counters.update({"fppoly.roots_found": len(roots)})

        def cache_lookup(args):
            cache, p = args[0], args[1]
            counters["sslocus.CensusCache.hits" if p in cache else "sslocus.CensusCache.misses"] += 1

        def cache_put(args):
            path = args[0].path
            before = path.stat().st_size if path.exists() else 0
            return lambda _: counters.update(
                {"sslocus.cache_bytes_written": path.stat().st_size - before})

        def factored(args):
            return lambda result: counters.update(
                {"cosettrace.factored_absent": int(result[0] is None)})

        return {
            "fppoly.roots_in_fp2": roots_found,
            "sslocus.CensusCache.get": cache_lookup,
            "sslocus.CensusCache.put": cache_put,
            "cosettrace.factored_trace": factored,
        }

    def install(self) -> None:
        """Wrap every target; safe to call once per ``restore``."""
        for mod in {mod for mod, *_ in FUNCTIONS + METHODS}:
            importlib.import_module(f"superspecial.{mod}")
        acceptance = sys.modules["superspecial.acceptance"]
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "superspecial" or name.startswith("superspecial.")}
        hooks = self._hooks()
        targets = [(mod, attr, f"{mod}.{attr}") for mod, attr in FUNCTIONS]
        targets += [("acceptance", attr, f"acceptance.criterion_{m.group(1)}")
                    for attr in vars(acceptance) if (m := _CRITERION.match(attr))]
        for mod, attr, name in targets:
            original = getattr(pkg[f"superspecial.{mod}"], attr)
            wrapped = self._wrap(name, original, hooks.get(name))
            for module in pkg.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapped)
        for mod, cls_name, attr in METHODS:
            cls = getattr(pkg[f"superspecial.{mod}"], cls_name)
            original = vars(cls)[attr]
            label = "load" if attr == "__init__" else attr
            name = f"{mod}.{cls_name}.{label}"
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hooks.get(name)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summarising ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds; plus the hook counters."""
        spans = self.spans
        out: dict[str, dict] = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # outermost call of this name
                rec["s"] += end - start
        return {"spans": out, "counters": dict(self.counters)}

    def dump(self, fh, phase: str, last: int | None = None) -> None:
        """Write spans [0, last) to ``fh`` as JSON lines: name, start, end, parent."""
        for i, (name, start, end, parent) in enumerate(self.spans[:last]):
            fh.write(json.dumps({"phase": phase, "id": i, "name": name, "start": start,
                                 "end": end, "parent": parent if parent >= 0 else None}) + "\n")

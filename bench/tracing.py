"""Span tracing around the package's public functions, from outside the package.

``Tracer.install`` wraps each public function of every ``towerbound``
module, and any module function a per-layer metric names, so that each call
records a span: name, start, end, parent span and op id.  The wrapper
replaces the function at the module attribute and at every ``from ...
import`` site that holds the same function object (for example
``cli.build_tower_plan``); a few public methods the per-layer metrics name
are wrapped on their class.  Spans stay in memory, one column array per
field, and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover;
calls run on one thread and nest, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("arith", "zpoly", "cyclotomic", "gf", "tower", "bounds", "fixtures",
           "reproduce", "report", "catalog", "cli")

#: (module, class, method) -> span name
METHODS = {
    ("cyclotomic", "CycloElement", "norm"): "cyclotomic.norm",
    ("tower", "CyclotomicBase", "prime_qualifies"): "tower.prime_qualifies",
    ("tower", "RelativeCubicBase", "prime_qualifies"): "tower.prime_qualifies",
    ("bounds", "BoundCertificate", "to_text_lines"): "bounds.render",
    ("bounds", "BoundCertificate", "to_json_doc"): "bounds.render",
}

#: the harness's own root span around each op; not a layer of the package
OP_SPAN = "bench.op"

#: per-layer metrics of a traced run: ``<span>.calls`` and ``<span>.self_s``
#: come from the spans, the rest from counters and from the untraced and
#: traced pass times
LAYER_METRICS = (
    ("arith.primes_ascending.self_s", "s"),
    ("arith.is_prime.calls", "count"),
    ("arith.is_prime.self_s", "s"),
    ("arith.mult_order.self_s", "s"),
    ("arith.mul_many.self_s", "s"),
    ("arith.candidates", "count"),
    ("arith.accept_ratio", "1"),
    ("cyclotomic.splitting_data.calls", "count"),
    ("cyclotomic.splitting_data.self_s", "s"),
    ("cyclotomic.primes_above.calls", "count"),
    ("cyclotomic.primes_above.self_s", "s"),
    ("cyclotomic.norm.calls", "count"),
    ("cyclotomic.norm.self_s", "s"),
    ("cyclotomic.match_up_to_unit.self_s", "s"),
    ("cyclotomic.cyclo_mul.self_s", "s"),
    ("cyclotomic.parse_cyclo_element.self_s", "s"),
    ("zpoly.mul.calls", "count"),
    ("zpoly.divmod_monicish.calls", "count"),
    ("zpoly.divmod_monicish.self_s", "s"),
    ("zpoly.discriminant.calls", "count"),
    ("zpoly.discriminant.self_s", "s"),
    ("gf.is_inert_in_relative_extension.calls", "count"),
    ("gf.is_inert_in_relative_extension.self_s", "s"),
    ("gf.is_irreducible.calls", "count"),
    ("gf.is_irreducible.self_s", "s"),
    ("gf.distinct_degree_profile.self_s", "s"),
    ("gf.build_extension_field.calls", "count"),
    ("gf.build_extension_field.self_s", "s"),
    ("tower.build_tower_plan.self_s", "s"),
    ("tower.prime_qualifies.calls", "count"),
    ("tower.prime_qualifies.self_s", "s"),
    ("bounds.build_certificate.self_s", "s"),
    ("bounds.render.self_s", "s"),
    ("reproduce.run_reproduction.self_s", "s"),
    ("report.stable_json.self_s", "s"),
    ("report.bytes_out", "bytes"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "1"),
)


def _is_public_function(obj) -> bool:
    if hasattr(obj, "cache_info"):  # functools.lru_cache wrapper
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.op = -1
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counters; wrappers stay installed."""
        self.sid, self.name = array("q"), array("l")
        self.start, self.end = array("d"), array("d")
        self.parent, self.opid = array("q"), array("q")
        self.stack = [-1]
        self._ids = itertools.count()
        self.counts.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result)`` may update counters."""
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer.stack
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.sid.append(sid)
                tracer.name.append(nid)
                tracer.start.append(t0)
                tracer.end.append(t1)
                tracer.parent.append(parent)
                tracer.opid.append(tracer.op)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"towerbound.{m}") for m in MODULES}
        # the public names, plus module functions a layer metric names
        # without the module exporting them (cyclotomic.match_up_to_unit)
        wanted = {(m, a) for m, mod in mods.items() for a in getattr(mod, "__all__", ())}
        wanted |= {tuple(n.split(".")[:2]) for n, _ in LAYER_METRICS if n.split(".")[0] in mods}
        replace: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for mname, attr in sorted(wanted):
            fn = getattr(mods[mname], attr, None)
            if _is_public_function(fn) and id(fn) not in replace:
                replace[id(fn)] = (fn, self._wrapper(f"{mname}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname == "towerbound" or modname.startswith("towerbound."):
                for attr, val in list(vars(mod).items()):
                    hit = replace.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(mod, attr, hit[1])
        for (mname, cls, meth), span in METHODS.items():
            owner = getattr(mods[mname], cls)
            setattr(owner, meth, self.wrap(span, getattr(owner, meth)))

    def _wrapper(self, name: str, fn):
        if name == "arith.primes_ascending":
            return self._wrap_prime_search(fn)
        if name == "report.stable_json":
            return self.wrap(name, fn, after=self._count_bytes)
        return self.wrap(name, fn)

    def _count_bytes(self, text: str) -> None:
        self.counts["report.bytes_out"] += len(text)  # ASCII-only JSON

    def _wrap_prime_search(self, fn):
        """Also count the predicate's calls (candidates) and its accepts."""
        counts = self.counts

        def counting(pred):
            def wrapped(q):
                counts["arith.candidates"] += 1
                ok = pred(q)
                if ok:
                    counts["arith.accepted"] += 1
                return ok
            return wrapped

        def search(count, predicate=None, *args, **kwargs):
            if predicate is not None:
                predicate = counting(predicate)
            return fn(count, predicate, *args, **kwargs)

        return self.wrap("arith.primes_ascending", search)

    # -- analysis -------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name over the recorded spans."""
        n = len(self.sid)
        child = array("d", bytes(8 * (max(self.sid) + 1 if n else 0)))
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        names = self.names
        for i in range(n):
            name = names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[self.sid[i]]
        return calls, self_s

    def write(self, path: Path) -> None:
        """Spans as gzip'd tab-separated lines: span, name, start, end, parent, op."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.sid)):
                fh.write(f"{self.sid[i]}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.opid[i]}\n")


def module_shares(self_s: Counter) -> dict[str, float]:
    """Share of the package's self time per module, the harness span excluded."""
    per: Counter = Counter()
    for name, s in self_s.items():
        if name != OP_SPAN:
            per[name.split(".", 1)[0]] += s
    total = sum(per.values()) or 1.0
    return {m: per[m] / total for m in sorted(per, key=per.get, reverse=True)}

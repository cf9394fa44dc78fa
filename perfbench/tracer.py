"""Span tracer that wraps schurmix's public functions from outside.

Each traced function is replaced by a wrapper in every schurmix module that
holds it, the defining module and the consuming ones alike (for example both
``schurmix.schur.schur_q`` and ``schurmix.mixed.schur_q``), because modules
call each other through their own globals.  A span records its name, start,
end and parent span; spans stay in compact arrays in memory and are written
out once, after the timed work.  ``Polynomial.__mul__`` and ``__add__`` are
wrapped too, but only calls made directly from ``mixed.lhs`` become spans:
those are the Q*S products and the summation, which run inline there.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

MODULES = (
    "schurmix",
    "schurmix.partitions",
    "schurmix.barquot",
    "schurmix.polyring",
    "schurmix.schur",
    "schurmix.mixed",
    "schurmix.fock",
    "schurmix.cli",
)

# span name -> (defining module, attribute)
TRACED = {
    "partitions.add_set": ("schurmix.partitions", "add_set"),
    "barquot.quotient": ("schurmix.barquot", "quotient"),
    "barquot.inverse_quotient": ("schurmix.barquot", "inverse_quotient"),
    "barquot.delta_sign": ("schurmix.barquot", "delta_sign"),
    "polyring.determinant": ("schurmix.polyring", "determinant"),
    "polyring.pfaffian": ("schurmix.polyring", "pfaffian"),
    "polyring.shift2": ("schurmix.polyring", "shift2"),
    "schur.complete_h": ("schurmix.schur", "complete_h"),
    "schur.q_pair": ("schurmix.schur", "q_pair"),
    "schur.schur_s": ("schurmix.schur", "schur_s"),
    "schur.schur_q": ("schurmix.schur", "schur_q"),
    "schur.rect_schur": ("schurmix.schur", "rect_schur"),
    "mixed.lhs": ("schurmix.mixed", "lhs"),
    "mixed.rhs": ("schurmix.mixed", "rhs"),
    "mixed.verify": ("schurmix.mixed", "verify"),
    "fock.f_inf": ("schurmix.fock", "f_inf"),
    "fock.f_chev": ("schurmix.fock", "f_chev"),
    "fock.lemma_co_sides": ("schurmix.fock", "lemma_co_sides"),
    "cli.main": ("schurmix.cli", "main"),
}
# Polynomial methods traced only when called directly from mixed.lhs.
LHS_INLINE = {"mixed.qs_product": "__mul__", "mixed.sum": "__add__"}

# extra counter -> unit, per span name
COUNTERS = {
    "polyring.determinant": {"max_size": "rows", "out_terms": "count"},
    "polyring.pfaffian": {"max_size": "rows", "out_terms": "count"},
    "schur.schur_s": {"distinct": "count"},
    "schur.schur_q": {"distinct": "count"},
    "fock.f_inf": {"useful_ratio": "ratio"},
    "partitions.add_set": {"results": "count"},
}
# spans whose arguments or result feed a counter
OBSERVED = {*COUNTERS, "mixed.lhs"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.incl_s"] = "s"
        units[f"{name}.self_s"] = "s"
        for counter, unit in COUNTERS.get(name, {}).items():
            units[f"{name}.{counter}"] = unit
    units["mixed.terms"] = "count"
    for name in LHS_INLINE:
        units[f"{name}_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names = list(TRACED) + list(LHS_INLINE)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {"mixed.terms": 0, "fock.f_inf.useful": 0, "partitions.add_set.results": 0}
        self.max_size = {"polyring.determinant": 0, "polyring.pfaffian": 0}
        self.out_terms = {"polyring.determinant": 0, "polyring.pfaffian": 0}
        self.distinct = {"schur.schur_s": set(), "schur.schur_q": set()}

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _observe(self, name, args, result):
        """Update the counters of one call; return its result, or a counting
        stand-in when the result is a generator."""
        if name in self.max_size:
            self.max_size[name] = max(self.max_size[name], len(args[0]))
            self.out_terms[name] += len(result.terms)
        elif name in self.distinct:
            self.distinct[name].add(args[0].parts)
        elif name == "mixed.lhs":
            self.counts["mixed.terms"] += len(result[1])
        elif name == "fock.f_inf":
            self.counts["fock.f_inf.useful"] += not result.is_zero
        elif name == "partitions.add_set":
            if hasattr(result, "__len__"):
                self.counts["partitions.add_set.results"] += len(result)
            else:
                return self._count_results(result)
        return result

    def _count_results(self, results):
        # A streaming add_set is counted as its results are consumed.
        for mu in results:
            self.counts["partitions.add_set.results"] += 1
            yield mu

    def _wrap(self, name, fn):
        nid = self.names.index(name)
        observed = name in OBSERVED

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observed:
                result = self._observe(name, args, result)
            return result

        return traced

    def _wrap_inline(self, name, fn, lhs_id):
        nid = self.names.index(name)
        span_name = self.span_name
        stack = self.stack

        def traced(*args):
            top = stack[-1]
            if top < 0 or span_name[top] != lhs_id:
                return fn(*args)
            idx = self._open(nid)
            try:
                return fn(*args)
            finally:
                self._close(idx)

        return traced

    def install(self):
        """Replace every traced function in every schurmix module that holds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (home, attr) in TRACED.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        poly = sys.modules["schurmix.polyring"].Polynomial
        lhs_id = self.names.index("mixed.lhs")
        for name, method in LHS_INLINE.items():
            setattr(poly, method, self._wrap_inline(name, getattr(poly, method), lhs_id))

    def summary(self):
        """Per-layer calls, inclusive and self seconds, and counters.

        Inclusive time counts only outermost spans of a name, so recursion is
        not counted twice; self time is a span's duration minus its direct
        children's.
        """
        n = len(self.span_name)
        names, parent = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        k = len(self.names)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            up = parent[i]
            while up >= 0 and names[up] != nid:
                up = parent[up]
            if up < 0:
                incl[nid] += dur[i]
        out = {}
        for nid, name in enumerate(self.names):
            if name in LHS_INLINE:
                out[f"{name}_s"] = incl[nid]
                continue
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.incl_s"] = incl[nid]
            out[f"{name}.self_s"] = self_s[nid]
        for name in self.max_size:
            out[f"{name}.max_size"] = self.max_size[name]
            out[f"{name}.out_terms"] = self.out_terms[name]
        for name, seen in self.distinct.items():
            out[f"{name}.distinct"] = len(seen)
        out.update(self.counts)
        return out

    def write_spans(self, path, header):
        """Write every span as one tab-separated line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\nid\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )

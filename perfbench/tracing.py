"""Layer spans recorded from outside the program.

`install` wraps public functions and methods of the wittenform modules and
rebinds every name that refers to them in any loaded wittenform module, so
`from .series import exp_linear` call sites are traced too. A span is
(name, start, end, parent index, job id), on a clock that stops while the
counting hooks run; spans stay in memory until `write`. A layer's self time
is its duration minus the time its direct child spans cover (children of
one span never overlap: one thread, nested calls).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent, job)
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.hook_seconds = 0.0  # spent in `after` hooks so far

    def clock(self):
        """perf_counter with the time spent in `after` hooks taken out, so
        the hooks' counting lands in no span."""
        return perf_counter() - self.hook_seconds

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                hook = perf_counter()
                after(self, result, args)
                self.hook_seconds += perf_counter() - hook
            return result
        return traced

    def summary(self, scales=None):
        """Per span name: calls, total (outermost spans of that name) and
        self time; `scales` maps a job id to the factor its times get."""
        scales = scales or {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            scale = scales.get(job, 1.0)
            row = out[name]
            row["calls"] += 1
            row["self"] += ((end - start) - child[idx]) * scale
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["total"] += (end - start) * scale
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def _rebind(original, replacement):
    """Point every wittenform module attribute bound to `original` at
    `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname == "wittenform" or modname.startswith("wittenform."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _degree_histogram(series):
    hist = defaultdict(int)
    for exps in series.terms:
        hist[sum(exps)] += 1
    return hist


def _after_mul(tracer, result, args):
    if result is NotImplemented:
        return
    a, b = args
    tracer.counts["series.mul.out_terms"] += len(result.terms)
    if not hasattr(b, "terms"):
        tracer.counts["series.mul.pairs"] += len(a.terms)
        return
    cap = result.degree_cap
    hb = _degree_histogram(b)
    tracer.counts["series.mul.pairs"] += sum(
        na * nb for da, na in _degree_histogram(a).items()
        for db, nb in hb.items() if da + db < cap)


def _after_add_equation(tracer, result, args):
    if result == "added":
        tracer.counts["linsolve.rows_added"] += 1


def _after_solve_coefficients(tracer, result, args):
    tracer.counts["universal_fit.unknowns"] += len(result.unknowns)


def _after_complement(tracer, result, args):
    top = max((abs(x) for b in result.basis for x in b), default=0)
    tracer.maxima["lattice.complement.max_entry"] = max(
        tracer.maxima["lattice.complement.max_entry"], top)


def _after_search(tracer, result, args):
    if result is not None:
        tracer.counts["lattice.search.hits"] += 1


def _after_enumerate(tracer, result, args):
    tracer.counts["monopole_levels.rows"] += len(result.rows)


def _after_parse(tracer, result, args):
    tracer.counts["manifold_io.parse.bytes"] += len(args[0].encode())


def install(tracer: Tracer):
    """Wrap the layer entry points; returns a function that undoes it."""
    from wittenform import (cli, invariants, lattice, linsolve,
                            manifold_io, monopole_levels, series,
                            universal_fit)
    undo = []

    def function(module, attr, name, after=None):
        original = getattr(module, attr)
        replacement = tracer.wrap(name, original, after)
        _rebind(original, replacement)
        undo.append(lambda: _rebind(replacement, original))

    def method(cls, attr, name, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, after))
        undo.append(lambda: setattr(cls, attr, original))

    function(cli, "main", "cli.main")
    fs = series.FormalSeries
    method(fs, "__mul__", "series.mul", _after_mul)
    method(fs, "__rmul__", "series.mul", _after_mul)
    method(fs, "to_text", "series.to_text")
    function(series, "exp_linear", "series.exp_linear")
    function(series, "exp_quadratic", "series.exp_quadratic")
    function(series, "first_difference", "series.first_difference")
    function(invariants, "witten_rhs", "invariants.witten_rhs")
    function(invariants, "km_series", "invariants.km_series")
    function(invariants, "fit_km_coefficients", "invariants.fit_km")
    function(invariants, "check_theorem_hypotheses", "invariants.hypotheses")
    ls = linsolve.LinearSystem
    method(ls, "add_equation", "linsolve.add_equation", _after_add_equation)
    method(ls, "solve", "linsolve.solve")
    function(universal_fit, "assemble_rough_rhs", "universal_fit.assemble")
    function(universal_fit, "solve_coefficients", "universal_fit.solve",
             _after_solve_coefficients)
    function(universal_fit, "validate_solution", "universal_fit.validate")
    function(lattice, "orthogonal_complement", "lattice.complement",
             _after_complement)
    function(lattice, "find_hyperbolic_pair", "lattice.search",
             _after_search)
    function(lattice, "find_vector_with_square", "lattice.search",
             _after_search)
    method(lattice.IntersectionForm, "signature_decomposition",
           "lattice.signature")
    function(monopole_levels, "enumerate_contributions",
             "monopole_levels.enumerate", _after_enumerate)
    for attr in ("parse_manifold", "parse_km", "parse_fit_problem"):
        function(manifold_io, attr, "manifold_io.parse", _after_parse)

    original_bv = lattice.bounded_vectors

    def counted_vectors(rank, bound):
        n = 0
        try:
            for v in original_bv(rank, bound):
                n += 1
                yield v
        finally:
            tracer.counts["lattice.search.candidates"] += n

    _rebind(original_bv, counted_vectors)
    undo.append(lambda: _rebind(counted_vectors, original_bv))

    def uninstall():
        for step in reversed(undo):
            step()
    return uninstall


def equations_by_caller(tracer: Tracer):
    """add_equation calls grouped by the enclosing fit entry point."""
    out = defaultdict(int)
    spans = tracer.spans
    for name, _, _, parent, _ in spans:
        if name != "linsolve.add_equation":
            continue
        p = parent
        while p >= 0 and spans[p][0] not in ("invariants.fit_km",
                                             "universal_fit.solve"):
            p = spans[p][3]
        out[spans[p][0] if p >= 0 else None] += 1
    return out

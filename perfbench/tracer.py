"""Per-layer tracing installed from outside the package.

``Tracer.install()`` replaces public functions of ``blowdyn`` modules with
timing wrappers at run time; nothing under ``src/`` is edited. The package
binds names with ``from .x import y``, so a wrapper replaces the original in
every ``blowdyn`` namespace that holds it (``dynamical_degrees`` lives in
spectral, gate, positivity and cli). Functions named below but missing from
the program are skipped and read as zero.

Span functions record (id, name, start, end, parent id, job id) in memory;
self time is a span's duration minus its direct children's. Hot functions
(``RingModel.mul``, ``poly_gcd``) only add to a call counter and a time sum.
Calls made while ``job`` is None (answer checks) are not recorded.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute, metric prefix)
SPANS = (
    ("blowdyn.spectral", "dynamical_degrees", "spectral.dynamical_degrees"),
    ("blowdyn.spectral", "degree_properties_report", "spectral.degree_properties_report"),
    ("blowdyn.spectral", "radius_enclosure", "spectral.radius_enclosure"),
    ("blowdyn.spectral", "char_poly", "spectral.char_poly"),
    ("mpmath", "polyroots", "spectral.polyroots"),
    ("blowdyn.polys", "strip_unit_circle_factors", "polys.strip_unit_circle_factors"),
    ("blowdyn.polys", "squarefree_part", "polys.squarefree_part"),
    ("blowdyn.ring", "build_ring", "ring.build_ring"),
    ("blowdyn.actions", "PullbackAction.validate", "actions.validate"),
    ("blowdyn.actions", "PullbackAction.induce", "actions.induce"),
    ("blowdyn.actions", "PullbackAction.inverse", "actions.inverse"),
    ("blowdyn.intmat", "det", "intmat.det"),
    ("blowdyn.intmat", "inverse_unimodular", "intmat.inverse_unimodular"),
    ("blowdyn.positivity", "verify_fixed_nef_class", "positivity.verify_fixed_nef_class"),
    ("blowdyn.positivity", "pf_eigenvector", "positivity.pf_eigenvector"),
    ("blowdyn.positivity", "kawamata_nu", "positivity.kawamata_nu"),
    ("blowdyn.positivity", "nef_necessary_check", "positivity.nef_necessary_check"),
    ("blowdyn.gate", "degree_chain_report", "gate.degree_chain_report"),
    ("blowdyn.gate", "decide", "gate.decide"),
    ("blowdyn.document", "load", "document.load"),
    ("blowdyn.cli", "main", "cli.main"),
)
COUNTERS = (
    ("blowdyn.ring", "RingModel.mul", "ring.mul"),
    ("blowdyn.polys", "poly_gcd", "polys.poly_gcd"),
)


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.job = None
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- installation ---------------------------------------------------

    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, name, self._span_wrapper)
        for module, attr, name in COUNTERS:
            self._patch(module, attr, name, self._counter_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module, attr, name, make):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        original = getattr(holder, leaf, None)
        if original is None:
            return
        wrapper = make(original, name)
        if owner:  # a method: one class attribute
            self._restore.append((holder, leaf, original))
            setattr(holder, leaf, wrapper)
            return
        holders = [mod] + [m for n, m in list(sys.modules.items())
                           if n == "blowdyn" or n.startswith("blowdyn.")]
        for ns in holders:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, key, original))
                    setattr(ns, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, original, name):
        note = getattr(self, "_note_" + name.rsplit(".", 1)[1], None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return original(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            before = note(args, None, True) if note else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.job))
            if note:
                note(args, result, before)
            return result

        return wrapper

    def _counter_wrapper(self, original, name):
        counts, times, clock = self.counts, self.times, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return original(*args, **kwargs)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                times[name] += clock() - start
                counts[name + ".calls"] += 1

        return wrapper

    # -- per-function counters, called before (result None) and after ----

    def _note_radius_enclosure(self, args, result, before):
        if result is None:
            return None
        if result.exact_one:
            self.counts["spectral.radius_enclosure.exact_one"] += 1
        else:
            self.counts["spectral.certified"] += 1
        bits = max(_bits(result.lo), _bits(result.hi))
        key = "spectral.endpoint_bits.max"
        self.counts[key] = max(self.counts[key], bits)

    def _note_polyroots(self, args, result, before):
        if result is None:
            import mpmath

            key = "spectral.polyroots.max_dps"
            self.counts[key] = max(self.counts[key], mpmath.mp.dps)

    def _note_char_poly(self, args, result, before):
        if result is None:
            key = "spectral.char_poly.max_n"
            self.counts[key] = max(self.counts[key], len(args[0]))

    def _note_strip_unit_circle_factors(self, args, result, before):
        if result is not None:
            self.counts["polys.cyclotomic_degree_stripped"] += result[2]

    def _note_validate(self, args, result, before):
        if result is not None and not result.ok:
            self.counts["actions.validate.rejected"] += 1

    def _note_induce(self, args, result, before):
        # entries of matrices actually built, not served from the cache
        if result is None:
            cache = getattr(args[0], "_induced", None)
            return cache is None or args[1] not in cache
        if before:
            self.counts["actions.induce.entries"] += len(result) * len(result[0]) if result else 0

    def _note_pf_eigenvector(self, args, result, before):
        if result is not None:
            self.counts["positivity.pf_eigenvector.iterations"] += result.iterations

    def _note_load(self, args, result, before):
        if result is None:
            try:
                self.counts["document.bytes_in"] += os.path.getsize(args[0])
            except OSError:
                pass

    # -- aggregation ------------------------------------------------------

    def layer_times(self):
        """name -> (calls, inclusive seconds, self seconds) over all spans."""
        child = defaultdict(float)
        for sid, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, name, start, end, _parent, _job in self.spans:
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start, own + end - start - child[sid])
        return out

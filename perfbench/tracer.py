"""In-memory span tracer that wraps lgmirror layer functions at run time.

A child process installs it after importing the package; no package source
changes.  Each traced function is replaced in every ``lgmirror`` module
namespace that binds it: ``from .milnor import milnor_ring`` leaves copies in
``statespace``, ``chenruan``, ``frobenius`` and ``catalog``, and wrapping only
the definition site would miss the calls made through them.  Methods are
wrapped on their class, so every instance and every caller sees the wrapper.

Spans are kept in memory as ``[name, start, end, parent, child_time]``; a
span's self time is its duration minus the durations of its children.
Counters are added after a call returns, from its arguments and result; the
time this takes is kept out of every span's self time and reported as
``hook_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

NAME, START, END, PARENT, CHILD = range(5)


def _transpose_group(counts, args, kwargs, group):
    _add(counts, "symmetry.dual_kept", group.order)


def _milnor_ring(counts, args, kwargs, ring):
    _add(counts, "milnor.rings", 1)
    _add(counts, "milnor.mu_total", ring.mu)


def _state_space(counts, args, kwargs, space):
    from lgmirror.symmetry import fixed_indices

    loci = [fixed_indices(g) for g in space.sector_dims]
    _add(counts, "statespace.sectors", len(loci))
    _add(counts, "statespace.fixed_loci", len(set(loci)))
    _add(counts, "statespace.basis_dim", space.dim)
    _add(counts, "statespace.sector_mu", sum(space.rings[f].mu for f in loci))


def _cr_table(counts, args, kwargs, table):
    _add(counts, "chenruan.cr_classes", table.total)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_calls(name):
    def make(fn, counts):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    return make


def _count_enumerated(fn, counts):
    """Add the elements ``_gmax_raw`` enumerates; a memoized call adds 0."""
    from lgmirror import symmetry

    @functools.wraps(fn)
    def counted(poly, *args, **kwargs):
        cached = poly in getattr(symmetry, "_GMAX_RAW_CACHE", ())
        result = fn(poly, *args, **kwargs)
        if not cached:
            _add(counts, "symmetry.gmax_enumerated", len(result[1]))
        return result

    return counted


# (span name, module, class or None, attribute, counter hook or None)
SPANS = [
    ("polyring.parse_polynomial", "polyring", None, "parse_polynomial", None),
    ("symmetry.span", "symmetry", None, "span", None),
    ("symmetry.group_from_elements", "symmetry", None, "group_from_elements", None),
    ("symmetry.transpose_group", "symmetry", None, "transpose_group", _transpose_group),
    ("milnor.groebner", "milnor", None, "groebner", None),
    ("milnor.milnor_ring", "milnor", None, "milnor_ring", _milnor_ring),
    ("statespace.build_state_space", "statespace", None, "build_state_space", _state_space),
    ("statespace.poincare_table", "statespace", None, "poincare_table", None),
    ("bvlg.build_bv", "bvlg", None, "build_bv", None),
    ("bvlg.mirror_pair", "bvlg", None, "mirror_pair", None),
    ("bvlg.twist_model", "bvlg", None, "twist_model", None),
    ("bvlg.verify", "bvlg", None, "verify_theorem1", None),
    ("bvlg.verify", "bvlg", None, "verify_twist_iso", None),
    ("bvlg.verify", "bvlg", None, "verify_group_lemma", None),
    ("chenruan.cr_table", "chenruan", None, "cr_table", _cr_table),
    ("chenruan.verify", "chenruan", None, "verify_lgcy", None),
    ("chenruan.verify", "chenruan", None, "verify_bv_mirror", None),
    ("chenruan.verify", "chenruan", None, "verify_twist_corollary", None),
    ("frobenius.verify_theorem2", "frobenius", None, "verify_theorem2", None),
    ("frobenius.product", "frobenius", "BAlgebra", "product", None),
    ("frobenius.pairing", "frobenius", "BAlgebra", "pairing", None),
    ("catalog.enumerate_k3_systems", "catalog", None, "enumerate_k3_systems", None),
    ("catalog.sample_polynomial", "catalog", None, "sample_polynomial", None),
]

# calls that are only counted: a span each would cost more than the call
# (module, class or None, attribute, make(original, counts) -> wrapper)
COUNTED = [
    ("milnor", "MilnorRing", "normal_form", _count_calls("milnor.normal_form.calls")),
    ("symmetry", None, "_gmax_raw", _count_enumerated),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.root_s = 0.0  # summed duration of spans without a parent, hooks included
        self.hook_s = 0.0  # time in counter hooks, charged to no span
        self.bindings: dict = {}  # "module.attr" -> namespaces rebound
        self._stack: list = []

    def span(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
                else:
                    tracer.root_s += end - rec[START]
            if hook is not None:
                start = clock()
                hook(counts, args, kwargs, result)
                spent = clock() - start
                tracer.hook_s += spent
                # keep the hook out of the open parent's self time
                if parent >= 0:
                    spans[parent][CHILD] += spent
                else:
                    tracer.root_s += spent
            return result

        return traced

    @property
    def covered_s(self) -> float:
        """Time under root spans, less the counter hooks."""
        return self.root_s - self.hook_s

    def install(self):
        """Wrap every target; call after ``lgmirror`` modules are imported."""
        for name, module, cls, attr, hook in SPANS:
            self._replace(module, cls, attr, lambda fn: self.span(name, fn, hook))
        for module, cls, attr, make in COUNTED:
            self._replace(module, cls, attr, lambda fn: make(fn, self.counts))

    def _replace(self, module, cls, attr, make):
        """Rebind module.[cls.]attr to make(original) wherever it is bound.
        A target the package no longer has is recorded with 0 bindings."""
        owner = importlib.import_module(f"lgmirror.{module}")
        key = f"{module}.{cls + '.' if cls else ''}{attr}"
        self.bindings[key] = 0
        if cls is not None:
            klass = getattr(owner, cls, None)
            if klass is not None and attr in vars(klass):
                setattr(klass, attr, make(vars(klass)[attr]))
                self.bindings[key] = 1
            return
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        rebound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "lgmirror" and not mod_name.startswith("lgmirror."):
                continue
            for var, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, var, wrapper)
                    rebound += 1
        self.bindings[key] = rebound

    def summary(self) -> dict:
        """Per span name: [calls, self seconds]."""
        by_name: dict = {}
        for name, start, end, _, child in self.spans:
            row = by_name.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += end - start - child
        return {
            "spans": by_name,
            "counts": self.counts,
            "covered_s": self.covered_s,
            "hook_s": self.hook_s,
            "bindings": self.bindings,
        }

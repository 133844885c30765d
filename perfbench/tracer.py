"""Trace cartier's layers from outside, by wrapping their public callables.

A wrapper either records a span (name, start, end, parent span, task id)
or, for the many small value-type operations (field arithmetic, subspace
reduction, polynomial arithmetic), only counts the call and adds its time
to the layer's aggregate.  Both kinds take part in self-time accounting:
a call's self time is its duration minus the time of the wrapped calls
made inside it, whatever their kind.

Nothing in cartier is modified on disk; wrappers are set on the classes and
on every cartier module global that names a wrapped function, and removed
again by `Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# Spans kept in memory; later ones are only counted in `Tracer.dropped`.
MAX_SPANS = 300_000

LAYERS = ("field", "linalg", "poly", "semilinear", "operators", "crystal", "cli")

# Calls made very often on small values: counted and timed, but no span.
OPS = {
    "field": {
        "FieldElement.__add__", "FieldElement.__sub__", "FieldElement.__neg__",
        "FieldElement.__mul__", "FieldElement.__truediv__", "FieldElement.__pow__",
        "FieldElement.__eq__", "FieldElement.__hash__", "FieldElement.__str__",
        "FieldElement.key", "FieldElement.inverse", "FieldElement.frobenius",
        "FieldElement.inv_frobenius", "FieldSpec.element", "FieldSpec.from_int",
        "FieldSpec.__eq__", "FieldSpec.__hash__", "frobenius", "inv_frobenius",
    },
    "linalg": {"mat_vec", "transpose", "identity", "zero_matrix", "is_zero_matrix"},
    "semilinear": {
        "Subspace.reduce", "Subspace.contains_vector", "Subspace.coords",
        "Subspace.contains", "Subspace.key", "Subspace.__eq__", "Subspace.__hash__",
        "SemilinearModule.apply", "SemilinearModule.is_stable",
        "sigma_vec", "sigma_inv_vec", "sigma_mat", "sigma_inv_mat",
        "QuotientMap.project", "QuotientMap.lift",
    },
    "poly": {
        "Polynomial.__add__", "Polynomial.__sub__", "Polynomial.__neg__",
        "Polynomial.__mul__", "Polynomial.__rmul__", "Polynomial.__pow__",
        "Polynomial.__eq__", "Polynomial.__hash__", "Polynomial.leading",
        "Polynomial.monic", "Polynomial.total_degree", "Polynomial.sorted_terms",
        "Polynomial.__str__", "PolyRing.monomial", "PolyRing.var", "PolyRing.constant",
        "PolyRing.__eq__", "PolyRing.__hash__",
    },
    "operators": {"cartier_std", "frobenius_descent", "CartierOperator.apply"},
}

# Helpers too small to wrap without distorting the trace; their time stays
# with the caller.
SKIP = {
    "mono_mul", "mono_divides", "mono_div", "mono_lcm", "mono_coprime", "is_prime",
    "MonomialOrder.key", "MonomialOrder.signature",
    # constructors of value types: their time belongs to whatever built them
    "FieldElement.__init__", "Polynomial.__init__", "Subspace.__init__",
    "SubmoduleInfo.__init__", "NilDecomposition.__init__", "HomSpace.__init__",
    "CrystalReport.__init__", "SupportReport.__init__",
}

# Wrapped names whose calls feed a named count.
COUNTS = {
    "FieldElement.__mul__": "field.mul_calls",
    "FieldElement.__add__": "field.add_calls",
    "FieldElement.__sub__": "field.add_calls",
    "FieldElement.__neg__": "field.add_calls",
    "FieldElement.inverse": "field.inverse_calls",
    "FieldElement.frobenius": "field.frobenius_calls",
    "FieldElement.inv_frobenius": "field.frobenius_calls",
    "FieldSpec.__init__": "field.spec_builds",
    "rref": "linalg.rref_calls",
    "mat_mul": "linalg.mat_mul_calls",
    "SemilinearModule.power_matrix": "semilinear.power_matrix_calls",
    "FrobeniusModule.power_matrix": "semilinear.power_matrix_calls",
    "groebner_basis": "poly.groebner_calls",
    "groebner_extended": "poly.groebner_calls",
    "s_polynomial": "poly.spolys",
    "divide": "poly.divide_calls",
    "Polynomial.__mul__": "poly.mul_calls",
    "Polynomial.__rmul__": "poly.mul_calls",
    "CartierOperator.image_ideal": "operators.image_ideal_calls",
    "cartier_std": "operators.cartier_std_calls",
}

# Wrapped names that open a scope while they run: calls made inside feed
# the scope-specific counts below.
SCOPES = {
    "SemilinearModule.enumerate_submodules": "enumeration",
    "SemilinearModule.is_simple": "enumeration",
    "groebner_basis": "buchberger",
    "groebner_extended": "buchberger",
    "CartierOperator.stable_image": "chain",
    "CartierOperator.smallest_stable_containing": "chain",
    "IdealModule.nilpotence": "chain",
    "IdealModule.supp_crys": "chain",
    "embed": "embed",
    "find_embedding_root": "embed",
}

# Inclusive time of the outermost call in a scope, or of every call.
INCLUSIVE = {
    "embed": "field.embed_s",
    "find_embedding_root": "field.embed_s",
    "FieldSpec.__init__": "field.spec_build_s",
    "divide": "poly.divide_s",
}


def _error_kind(exc: BaseException) -> str:
    return getattr(exc, "kind", None) or type(exc).__name__


class Tracer:
    """Spans, counts and self times for calls into cartier's layers.

    `clock` is injectable so the accounting can be tested with fake time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.task = -1
        self.spans = []  # (name, start, end, parent index or -1, task id)
        self.dropped = 0
        self.counts = Counter()
        self.times = Counter()
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.errors = {layer: Counter() for layer in LAYERS}
        self.scopes = Counter()
        self._child = []  # per open call: time spent in wrapped calls inside it
        self._span_stack = []
        self._last_error = {}
        self._installed = []

    # -- accounting ------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, span: bool = True):
        """A callable that runs `fn` and accounts for it under `layer`."""
        tracer = self
        clock = self.clock
        child = self._child
        span_stack = self._span_stack
        self_s = self.self_s
        counts = self.counts
        count_key = COUNTS.get(name)
        scope = SCOPES.get(name)
        inclusive = INCLUSIVE.get(name)
        hook = _HOOKS.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count_key:
                counts[count_key] += 1
            if hook is not None:
                hook(tracer, args)
            if scope:
                tracer.scopes[scope] += 1
            index = -1
            if span:
                if len(tracer.spans) < MAX_SPANS:
                    index = len(tracer.spans)
                    parent = span_stack[-1] if span_stack else -1
                    tracer.spans.append([name, 0.0, 0.0, parent, tracer.task])
                else:
                    tracer.dropped += 1
                span_stack.append(index)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_error(layer, exc)
                raise
            finally:
                end = clock()
                duration = end - start
                inner = child.pop()
                self_s[layer] += duration - inner
                if child:
                    child[-1] += duration
                if span:
                    span_stack.pop()
                    if index >= 0:
                        record = tracer.spans[index]
                        record[1] = start
                        record[2] = end
                if scope:
                    tracer.scopes[scope] -= 1
                if inclusive and not (scope and tracer.scopes[scope]):
                    tracer.times[inclusive] += duration
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _note_error(self, layer: str, exc: BaseException):
        # One exception unwinding through several wrapped calls of a layer
        # counts once for that layer.
        if self._last_error.get(layer) is exc:
            return
        self._last_error[layer] = exc
        self.errors[layer][_error_kind(exc)] += 1

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Wrap the public callables of every layer module of `package`."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or attr in SKIP:
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if inspect.isgeneratorfunction(value):
                        continue
                    wrapped = self.wrap(layer, attr, value, span=attr not in OPS.get(layer, ()))
                    replaced[id(value)] = (value, wrapped)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value)
            # lru_cache objects are not plain functions
            for attr, value in list(vars(module).items()):
                if not attr.startswith("_") and hasattr(value, "cache_info") and callable(value):
                    wrapped = self.wrap(layer, attr, value)
                    replaced[id(value)] = (value, wrapped)
        # Rebind every cartier module global that names a wrapped function,
        # so calls between layers go through the wrappers too.
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((namespace, attr, value, False))
                    namespace[attr] = hit[1]

    def _wrap_class(self, layer: str, cls):
        ops = OPS.get(layer, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            qual = f"{cls.__name__}.{attr}"
            if qual in SKIP:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                new = type(raw)(self.wrap(layer, qual, fn, span=qual not in ops))
            elif inspect.isfunction(raw):
                if inspect.isgeneratorfunction(raw):
                    continue
                new = self.wrap(layer, qual, raw, span=qual not in ops)
            else:
                continue  # properties, slots, constants
            self._installed.append((cls, attr, raw, True))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original, is_class in reversed(self._installed):
            if is_class:
                setattr(owner, attr, original)
            else:
                owner[attr] = original
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers, by the names used in BENCHMARK.json."""
        c, t = self.counts, self.times
        buch = c["poly.buchberger_divides"]
        out = {
            "field.mul_calls": c["field.mul_calls"],
            "field.add_calls": c["field.add_calls"],
            "field.inverse_calls": c["field.inverse_calls"],
            "field.frobenius_calls": c["field.frobenius_calls"],
            "field.spec_builds": c["field.spec_builds"],
            "field.spec_build_s": t["field.spec_build_s"],
            "field.embed_s": t["field.embed_s"],
            "linalg.rref_calls": c["linalg.rref_calls"],
            "linalg.rref_cells": c["linalg.rref_cells"],
            "linalg.mat_mul_calls": c["linalg.mat_mul_calls"],
            "semilinear.power_matrix_calls": c["semilinear.power_matrix_calls"],
            "semilinear.subspaces_scanned": c["semilinear.subspaces_scanned"],
            "crystal.lattice_elems": c["crystal.lattice_elems"],
            "poly.groebner_calls": c["poly.groebner_calls"],
            "poly.spolys": c["poly.spolys"],
            "poly.divide_calls": c["poly.divide_calls"],
            "poly.divide_s": t["poly.divide_s"],
            "poly.mul_calls": c["poly.mul_calls"],
            "poly.spair_zero_ratio": c["poly.buchberger_zero_divides"] / buch if buch else 0.0,
            "operators.image_ideal_calls": c["operators.image_ideal_calls"],
            "operators.cartier_std_calls": c["operators.cartier_std_calls"],
            "operators.chain_steps": c["operators.chain_steps"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = sum(self.errors[layer].values())
        return out

    def errors_by_kind(self) -> dict:
        return {layer: dict(kinds) for layer, kinds in self.errors.items() if kinds}


_DUNDERS = {
    "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__pow__", "__eq__", "__hash__", "__str__",
}


def _count_rref_cells(tracer, args):
    rows = args[0] if args else ()
    if hasattr(rows, "__len__") and len(rows):
        tracer.counts["linalg.rref_cells"] += len(rows) * len(rows[0])


def _count_scan(tracer, args):
    if tracer.scopes["enumeration"]:
        tracer.counts["semilinear.subspaces_scanned"] += 1


def _count_chain_step(tracer, args):
    if tracer.scopes["chain"]:
        tracer.counts["operators.chain_steps"] += 1


def _after_divide(tracer, result):
    if tracer.scopes["buchberger"]:
        tracer.counts["poly.buchberger_divides"] += 1
        remainder = result[0] if isinstance(result, tuple) else result
        if remainder.is_zero:
            tracer.counts["poly.buchberger_zero_divides"] += 1


def _after_lattice(tracer, result):
    tracer.counts["crystal.lattice_elems"] += len(result)


_HOOKS = {
    "rref": _count_rref_cells,
    "SemilinearModule.is_stable": _count_scan,
    "CartierOperator.image_ideal": _count_chain_step,
}

_AFTER = {
    "divide": _after_divide,
    "fixed_submodule_lattice": _after_lattice,
}

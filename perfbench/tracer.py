"""Per-layer tracing of qshuffle from outside the library.

``Tracer.install`` replaces the public functions and methods of each
library module by wrappers that count the call, time it and return the
original result unchanged; ``uninstall`` puts the originals back.  Names a
module imported from another (``from .formal import series_mul``) are
replaced too, so every call site sees the wrapper.

A call from one layer into another opens a span: layer, start, end, the
span that caused it and the operation it belongs to.  A call within the
layer of the open span is counted and folded into that span.  ``qring``
is the exception: there are far too many coefficient operations to give
each a span, so each outermost ``qring`` call adds its count and duration
to the enclosing span.  A layer's self time is the duration of its spans
less the time their child spans and folded ``qring`` calls cover.

Spans are kept in memory in flat arrays and written out by ``dump``.
"""

from __future__ import annotations

import json
from array import array
from math import comb, prod
from time import perf_counter

LAYERS = ("bench", "qring", "poly", "ratfun", "shuffle", "formal", "identities", "cli")
BENCH, QRING, POLY, RATFUN, SHUFFLE, FORMAL, IDENTITIES, CLI = range(len(LAYERS))

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")

# layer -> {class name or None for module functions: attribute names}
WRAPPED = {
    QRING: {
        "LaurentQ": _ARITH + ("exact_div", "gcd", "bar", "stretch", "eval_at"),
        "RatQ": _ARITH
        + ("__init__", "__truediv__", "__rtruediv__", "inverse", "bar", "stretch", "eval_at"),
        None: ("q_int", "q_factorial", "q_binomial"),
    },
    POLY: {
        "MultiLaurent": _ARITH
        + (
            "__eq__", "zero", "constant", "var_power", "monomial", "with_vars", "scale",
            "var_shift", "mul_binomial", "substitute", "relabel", "symmetrize",
            "is_symmetric", "exact_div_binomial", "eval_at", "term_lines",
        ),
    },
    RATFUN: {
        "RatFun": _ARITH[:-1]
        + (
            "__init__", "__eq__", "__truediv__", "from_scalar", "zero", "inverse_factor",
            "scale", "mul_factor", "div_factor", "relabel", "eval_at",
        ),
        None: ("rat_sum", "factor_product", "sym_group"),
    },
    SHUFFLE: {
        "ShuffleAlgebra": (
            "unit", "generator", "canonical_denominator", "vandermonde", "to_rational",
            "to_symmetric_rational", "mul", "mul_oracle_rational", "word_image",
            "word_degree", "twisted_symmetry_check", "wheel_applicable", "wheel_check",
            "serre_image",
        ),
    },
    FORMAL: {
        "TruncSeries": (
            "from_poly", "with_vars", "relabel", "coeff", "scale", "__add__", "__neg__",
            "__sub__", "__mul__",
        ),
        None: (
            "expand_inverse", "expand_binomial_inverse", "delta_series", "series_mul",
            "expand_ratfun", "compare_on_window",
        ),
    },
    IDENTITIES: {
        None: (
            "pole_sum_denominator", "term_value", "build_pole_sum", "verify_rational_vanishing",
            "partial_fraction_check", "window_identity_report",
        ),
    },
    CLI: {None: ("poly_json", "factor_json", "element_json", "ratfun_json")},
}

# span record columns: operation id, span id, parent span id, wrapped
# function, start, end, folded qring seconds, folded qring calls
_COLUMNS = (("op", "q"), ("span", "q"), ("parent", "q"), ("fn", "q"),
            ("start", "d"), ("end", "d"), ("qring_s", "d"), ("qring_calls", "q"))


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s = [0.0] * len(LAYERS)
        self.inclusive_s = [0.0] * len(LAYERS)
        self.qring_s = 0.0
        self.counts = {
            "ratq_norm": 0, "exact_div_ok": 0, "exact_div_failed": 0, "ratfun_reduce": 0,
            "interleavings": 0, "closure_violations": 0, "summands": 0, "oracle_s": 0.0,
            "poly_peak": 0, "formal_peak": 0,
        }
        self.records = {name: array(code) for name, code in _COLUMNS}
        self._columns = tuple(self.records.values())
        self._next_span = 1
        self._op = 0
        self._qdepth = [0]
        self._layer_depth = [0] * len(LAYERS)
        # open spans: [layer, span id, parent id, fn key, start, child s, qring s, qring n]
        self.stack = [[BENCH, 0, 0, -1, perf_counter(), 0.0, 0.0, 0]]
        self._patches: list[tuple[object, str, object]] = []

    # ---------- operations ----------

    def begin_op(self, op_id: int, kind: str):
        self._op = op_id
        self._open(BENCH, self._key("bench." + kind))

    def end_op(self):
        self._close(self.stack[-1])

    # ---------- spans ----------

    def _key(self, name: str) -> int:
        if name not in self._key_ids:
            self._key_ids[name] = len(self.keys)
            self.keys.append(name)
            self.calls.append(0)
        return self._key_ids[name]

    def _open(self, layer, key):
        sid = self._next_span
        self._next_span += 1
        entry = [layer, sid, self.stack[-1][1], key, perf_counter(), 0.0, 0.0, 0]
        self.stack.append(entry)
        self._layer_depth[layer] += 1
        return entry

    def _close(self, entry):
        end = perf_counter()
        self.stack.pop()
        layer, sid, parent, key, start, child_s, qring_s, qring_n = entry
        dur = end - start
        self.self_s[layer] += dur - child_s - qring_s
        self.qring_s += qring_s
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.inclusive_s[layer] += dur
        self.stack[-1][5] += dur
        for column, value in zip(
            self._columns, (self._op, sid, parent, key, start, end, qring_s, qring_n)
        ):
            column.append(value)

    # ---------- wrappers ----------

    def _wrap_qring(self, fn, key, before):
        calls, stack, qdepth = self.calls, self.stack, self._qdepth

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                before(args, kwargs)
            if qdepth[0]:
                return fn(*args, **kwargs)
            qdepth[0] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                top = stack[-1]
                top[6] += perf_counter() - t0
                top[7] += 1
                qdepth[0] = 0

        return wrapper

    def _wrap_span(self, fn, layer, key, before, after, on_error):
        calls, stack, open_, close = self.calls, self.stack, self._open, self._close

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                before(args, kwargs)
            span = None if stack[-1][0] == layer else open_(layer, key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                if span is not None:
                    close(span)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hooks(self, name: str):
        """(before, after, on_error) observers for the counted calls."""
        lib, counts = self.lib, self.counts
        if name == "qring.RatQ.__init__":
            as_laurent = lib.qring._as_laurent

            def before(args, kwargs):
                den = args[2] if len(args) > 2 else kwargs.get("den")
                if den is None:
                    return
                n, d = as_laurent(args[1]), as_laurent(den)
                if n is NotImplemented or d is NotImplemented:
                    return
                if n.terms and d.terms and not d.is_one():
                    counts["ratq_norm"] += 1

            return before, None, None
        if name.startswith("poly."):
            ml = lib.poly.MultiLaurent

            def after(result):
                if type(result) is ml and len(result.terms) > counts["poly_peak"]:
                    counts["poly_peak"] = len(result.terms)

            if name == "poly.MultiLaurent.exact_div_binomial":
                not_divisible = lib.poly.NotDivisible

                def after_div(result):
                    counts["exact_div_ok"] += 1
                    after(result)

                def on_error(exc):
                    if isinstance(exc, not_divisible):
                        counts["exact_div_failed"] += 1

                return None, after_div, on_error
            return None, after, None
        if name == "ratfun.RatFun.__init__":

            def before(args, kwargs):
                if not (args[3] if len(args) > 3 else kwargs.get("_reduced", False)):
                    counts["ratfun_reduce"] += 1

            return before, None, None
        if name == "shuffle.ShuffleAlgebra.mul":
            violation = lib.shuffle.ClosureViolation

            def before(args, kwargs):
                f, g = args[1], args[2]
                counts["interleavings"] += prod(
                    comb(n + m, n) for n, m in zip(f.degree, g.degree)
                )

            def on_error(exc):
                if isinstance(exc, violation):
                    counts["closure_violations"] += 1

            return before, None, on_error
        if name.startswith("formal."):
            ts = lib.formal.TruncSeries

            def after(result):
                if type(result) is ts and len(result.terms) > counts["formal_peak"]:
                    counts["formal_peak"] = len(result.terms)

            return None, after, None
        if name == "identities.build_pole_sum":

            def after(result):
                counts["summands"] += result.term_count

            return None, after, None
        return None, None, None

    def _timed(self, fn, name):
        """Inclusive seconds of a call, wherever it is called from."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name] += perf_counter() - t0

        return wrapper

    def install(self):
        originals = {}  # id(original function) -> wrapper, for imported copies
        for layer, owners in WRAPPED.items():
            module = getattr(self.lib, LAYERS[layer])
            for owner_name, attrs in owners.items():
                owner = module if owner_name is None else getattr(module, owner_name)
                prefix = LAYERS[layer] + "." + (owner_name + "." if owner_name else "")
                for attr in attrs:
                    raw = vars(owner)[attr]
                    binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                    fn = raw.__func__ if binder else raw
                    name = prefix + attr
                    key = self._key(name)
                    before, after, on_error = self._hooks(name)
                    if layer == QRING:
                        wrapper = self._wrap_qring(fn, key, before)
                    else:
                        wrapper = self._wrap_span(fn, layer, key, before, after, on_error)
                    if name == "shuffle.ShuffleAlgebra.mul_oracle_rational":
                        wrapper = self._timed(wrapper, "oracle_s")
                    self._patch(owner, attr, raw, binder(wrapper) if binder else wrapper)
                    if owner_name is None:
                        originals[id(fn)] = wrapper
        for name in LAYERS[1:]:
            module = getattr(self.lib, name)
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, attr, value, wrapper)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------- results ----------

    def call_count(self, *names: str) -> int:
        return sum(self.calls[self._key_ids[n]] for n in names)

    def metrics(self) -> dict:
        c, n = self.counts, self.call_count
        attempts = c["exact_div_ok"] + c["exact_div_failed"]
        return {
            "qring.self_s": (self.qring_s, "s"),
            "qring.ratq_mul.calls": (n("qring.RatQ.__mul__", "qring.RatQ.__rmul__"), "count"),
            "qring.ratq_add.calls": (n("qring.RatQ.__add__", "qring.RatQ.__radd__"), "count"),
            "qring.ratq_norm.calls": (c["ratq_norm"], "count"),
            "poly.self_s": (self.self_s[POLY], "s"),
            "poly.mul.calls": (n("poly.MultiLaurent.__mul__", "poly.MultiLaurent.__rmul__"), "count"),
            "poly.mul_binomial.calls": (n("poly.MultiLaurent.mul_binomial"), "count"),
            "poly.relabel.calls": (n("poly.MultiLaurent.relabel"), "count"),
            "poly.peak_terms": (c["poly_peak"], "count"),
            "poly.exact_div.calls": (attempts, "count"),
            "poly.exact_div.useful_ratio": (c["exact_div_ok"] / attempts if attempts else 0.0, "share"),
            "ratfun.self_s": (self.self_s[RATFUN], "s"),
            "ratfun.reduce.calls": (c["ratfun_reduce"], "count"),
            "ratfun.rat_sum.calls": (n("ratfun.rat_sum"), "count"),
            "shuffle.oracle_s": (c["oracle_s"], "s"),
            "shuffle.oracle.calls": (n("shuffle.ShuffleAlgebra.mul_oracle_rational"), "count"),
            "shuffle.self_s": (self.self_s[SHUFFLE], "s"),
            "shuffle.mul.calls": (n("shuffle.ShuffleAlgebra.mul"), "count"),
            "shuffle.interleavings": (c["interleavings"], "count"),
            "shuffle.closure_violations": (c["closure_violations"], "count"),
            "formal.self_s": (self.self_s[FORMAL], "s"),
            "formal.expand_ratfun.calls": (n("formal.expand_ratfun"), "count"),
            "formal.series_mul.calls": (n("formal.series_mul"), "count"),
            "formal.peak_terms": (c["formal_peak"], "count"),
            "identities.self_s": (self.self_s[IDENTITIES], "s"),
            "identities.summands": (c["summands"], "count"),
            "cli.render_s": (self.inclusive_s[CLI], "s"),
        }

    def dump(self, path):
        """Write the spans as columns, with the names they refer to."""
        doc = {
            "layers": list(LAYERS),
            "functions": self.keys,
            "calls": self.calls,
            "spans": {name: arr.tolist() for name, arr in self.records.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

"""Outside-in span tracing of the lescop package.

The tracer wraps every public function of each layer module and rebinds
every module attribute that refers to it, so calls between modules (for
example ``floer.blow_down`` or ``invariants.validate``) are traced too.
Nothing in the package itself changes. Each span is (id, parent, operation,
function, start, end); spans are kept in memory and written out at the
end. Self time (a span's duration minus its children's) and call counts are
accumulated as the spans close, so the per-layer figures cover every call
even when the span log is capped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("cli", "documents", "presentation", "ring", "invariants", "floer", "lens")
SPAN_CAP = 100_000  # spans kept for the log; counts and self times are never capped
_FIELDS = 6  # id, parent, op, function, start_ns, end_ns


def _matrix_key(m):
    """Hashable content of a ring matrix, or a fresh object if it has none."""
    try:
        return (m.rows, tuple(m.entry(i, j) for i in range(m.rows) for j in range(m.cols)))
    except (AttributeError, TypeError):
        return object()


def _coeff_bits(poly):
    """Bit length of the largest coefficient of a ring element (0 if it has none)."""
    try:
        return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    for c in map(Fraction, poly.terms.values())), default=0)
    except (AttributeError, TypeError):
        return 0


class Tracer:
    """Span recorder over the current ``lescop`` modules in ``sys.modules``."""

    def __init__(self):
        self.names = []  # function id -> "module.function"
        self.calls = []
        self.self_ns = []
        self.incl_ns = []  # outermost calls only, so recursion is not counted twice
        self.active = []  # function id -> open spans of that function
        self.spans = array("q")
        self.dropped = 0
        self._stack = []  # open spans: [id, child_ns]
        self._next_id = 0
        self.ops = 0  # operations traced so far; the current one's id while it runs
        self.total_ns = 0  # wall time of traced operations, as timed by the caller
        self.determinant_keys = set()
        self.closed_form_keys = set()
        self.distinct_matrices = 0
        self.distinct_presentations = 0
        self.validate_ops = 0
        self._validate_calls = 0  # validate calls before the current operation
        self.max_dim = 0
        self.coeff_max_bits = 0
        self.triangle_leaves = 0
        self._patches = []  # (module, attribute, original)
        self._wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lescop.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        self.fid = {name: i for i, name in enumerate(self.names)}

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.incl_ns.append(0)
        self.active.append(0)
        hook = {
            "ring.determinant": self._on_determinant,
            "floer.chi_closed_form": self._on_closed_form,
            "invariants.knot_alexander": self._on_knot_alexander,
        }.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        active, calls, self_ns, incl_ns = self.active, self.calls, self.self_ns, self.incl_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            active[fid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[fid] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[fid] += 1
                self_ns[fid] += duration - frame[1]
                if not active[fid]:
                    incl_ns[fid] += duration
                if len(spans) < SPAN_CAP * _FIELDS:
                    spans.extend((sid, parent, self.ops, fid, start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _on_determinant(self, args, result):
        m = args[0]
        self.determinant_keys.add(_matrix_key(m))
        self.max_dim = max(self.max_dim, getattr(m, "rows", 0))
        self.coeff_max_bits = max(self.coeff_max_bits, _coeff_bits(result))

    def _on_closed_form(self, args, result):
        self.closed_form_keys.add(repr(args[0]))

    def _on_knot_alexander(self, args, result):
        triangle = self.fid.get("floer.chi_via_triangle")
        if triangle is not None and self.active[triangle]:
            self.triangle_leaves += 1

    def install(self):
        """Rebind every reference to a wrapped function in the lescop modules."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lescop" and not mod_name.startswith("lescop."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin_op(self):
        self.determinant_keys.clear()
        self.closed_form_keys.clear()
        self._validate_calls = self._calls("presentation.validate")

    def end_op(self, wall_ns):
        self.ops += 1
        self.total_ns += wall_ns
        self.distinct_matrices += len(self.determinant_keys)
        self.distinct_presentations += len(self.closed_form_keys)
        if self._calls("presentation.validate") > self._validate_calls:
            self.validate_ops += 1

    # -- results -------------------------------------------------------------

    def _calls(self, name):
        return self.calls[self.fid[name]] if name in self.fid else 0

    def _ms(self, totals, name):
        return totals[self.fid[name]] / 1e6 / self.ops if name in self.fid else 0.0

    def metrics(self):
        """Per-operation figures for every layer; see README.md for the list."""
        ops = self.ops

        def per_op(x):
            return x / ops

        def ratio(useful, calls):
            return useful / calls if calls else 1.0

        out = {}
        for layer in LAYERS:
            ns = sum(t for name, t in zip(self.names, self.self_ns)
                     if name.startswith(layer + "."))
            out[f"{layer}.self_ms"] = (ns / 1e6 / ops, "ms/op")
        for name in ("cli.run", "documents.parse", "presentation.validate",
                     "presentation.blow_down", "presentation.drop_component",
                     "ring.determinant", "invariants.knot_alexander",
                     "floer.chi_closed_form", "floer.chi_via_triangle", "lens.rep_classes"):
            out[f"{name}.self_ms"] = (self._ms(self.self_ns, name), "ms/op")
        for name in ("presentation.validate", "floer.chi_closed_form", "floer.chi_via_triangle"):
            out[f"{name}.incl_ms"] = (self._ms(self.incl_ns, name), "ms/op")
        for name in ("documents.parse", "presentation.validate", "presentation.blow_down",
                     "presentation.drop_component", "ring.determinant",
                     "invariants.sato_levine", "invariants.milnor_mu_squared",
                     "floer.chi_closed_form", "lens.rep_classes"):
            out[f"{name}.calls"] = (per_op(self._calls(name)), "calls/op")
        out["presentation.validate.useful_ratio"] = (
            ratio(self.validate_ops, self._calls("presentation.validate")), "ratio")
        out["floer.chi_closed_form.useful_ratio"] = (
            ratio(self.distinct_presentations, self._calls("floer.chi_closed_form")), "ratio")
        out["ring.determinant.useful_ratio"] = (
            ratio(self.distinct_matrices, self._calls("ring.determinant")), "ratio")
        out["ring.determinant.max_dim"] = (self.max_dim, "rows")
        out["ring.coeff_max_bits"] = (self.coeff_max_bits, "bits")
        out["floer.triangle_leaves"] = (per_op(self.triangle_leaves), "leaves/op")
        total_self = sum(self.self_ns)
        out["trace.total_ms"] = (self.total_ns / 1e6 / ops, "ms/op")
        out["trace.unattributed_ms"] = ((self.total_ns - total_self) / 1e6 / ops, "ms/op")
        out["trace.spans"] = (per_op(sum(self.calls)), "spans/op")
        return out

    def top(self, count=8):
        """The functions with the most self time, as (name, share of total)."""
        order = sorted(range(len(self.names)), key=lambda i: -self.self_ns[i])
        return [(self.names[i], self.self_ns[i] / self.total_ns) for i in order[:count]]

    def write(self, path):
        """Write the span log as tab-separated values."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\top\tfunction\tstart_ns\tend_ns\n")
            s = self.spans
            for i in range(0, len(s), _FIELDS):
                sid, parent, op, fid, start, end = s[i:i + _FIELDS]
                f.write(f"{sid}\t{parent}\t{op}\t{self.names[fid]}\t{start}\t{end}\n")
            if self.dropped:
                f.write(f"# {self.dropped} further spans not logged (cap {SPAN_CAP})\n")

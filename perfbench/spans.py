"""Span tracer that wraps quadguess's layer boundaries from outside it.

quadguess code looks the wrapped names up at call time (module globals,
class attributes, `kernel.quad_conv`), so rebinding them routes every call
through a wrapper that records a span: name, start, end, parent span and
the operation it belongs to.  Counts are taken in the same wrappers.  The
program itself is not modified; `uninstall` restores every original.

A wrapper records nothing while the tracer is inactive, so untimed work
(set-up, verification) can run with the wrappers still installed.
"""

import csv
import functools
import importlib
from collections import Counter, defaultdict
from fractions import Fraction
from math import lcm
from time import perf_counter

# (module, attribute path, span name).  Two bindings of one function share
# a span name: the CLI imports `guess` into its own namespace.
TARGETS = (
    ("quadguess.guessing", "guess", "guessing.guess"),
    ("quadguess.cli", "guess", "guessing.guess"),
    ("quadguess.guessing", "assemble_system", "guessing.assemble_system"),
    ("quadguess.guessing", "normalize", "guessing.normalize"),
    ("quadguess.guessing", "nullspace", "exact.nullspace"),
    ("quadguess.equations", "RowGenerator.value", "equations.value"),
    ("quadguess.equations", "QuadEquation.row_value", "equations.row_value"),
    ("quadguess.kernel", "quad_conv", "kernel.quad_conv"),
    ("quadguess.prefix", "SequencePrefix.scaled", "prefix.scaled"),
    ("quadguess.cli", "load_prefix", "prefix.load_prefix"),
    ("quadguess.sequences", "extend", "sequences.extend"),
    ("quadguess.sequences", "check", "sequences.check"),
    ("quadguess.cli", "main", "cli.main"),
)

# Per-layer metrics: name -> (unit, better, span the metric is read from,
# end-to-end metric it should move, workload where it should move it).
# Times are seconds per pass over the workload; "_s" is self time (the
# span minus its traced children) unless the description says otherwise.
LAYER_METRICS = {
    "guessing.assemble_s": ("s", "lower", "guessing.assemble_system",
                            "wall_s, guess_s", "guess-oracle-long"),
    "guessing.assemble_calls": ("count", "lower", "guessing.assemble_system",
                                "wall_s, guess_s", "guess-oracle-long"),
    "guessing.assemble_share": ("ratio", "lower", "guessing.assemble_system",
                                "wall_s, guess_s", "guess-oracle-long"),
    "guessing.normalize_s": ("s", "lower", "guessing.normalize",
                             "wall_s, guess_s", "guess-cli-short"),
    "equations.value_s": ("s", "lower", "equations.value",
                          "wall_s, guess_s", "guess-oracle-long"),
    "equations.value_calls": ("count", "lower", "equations.value",
                              "wall_s, guess_s", "guess-oracle-long"),
    "equations.value_useful_ratio": ("ratio", "higher", "equations.value",
                                     "wall_s, guess_s", "guess-oracle-long"),
    "equations.row_value_s": ("s", "lower", "equations.row_value",
                              "wall_s, check_rows_per_s", "extend-check-long"),
    "kernel.quad_conv_s": ("s", "lower", "kernel.quad_conv",
                           "wall_s, guess_s, check_rows_per_s",
                           "guess-oracle-long, extend-check-long"),
    "kernel.quad_conv_calls": ("count", "lower", "kernel.quad_conv",
                               "wall_s, guess_s, check_rows_per_s",
                               "guess-oracle-long, extend-check-long"),
    "kernel.quad_conv_terms": ("count", "lower", "kernel.quad_conv",
                               "wall_s, guess_s, check_rows_per_s",
                               "guess-oracle-long, extend-check-long"),
    "exact.nullspace_s": ("s", "lower", "exact.nullspace",
                          "wall_s, guess_s", "guess-fail-random"),
    "exact.nullspace_calls": ("count", "lower", "exact.nullspace",
                              "wall_s, guess_s", "guess-fail-random"),
    "exact.nullspace_cells": ("count", "lower", "exact.nullspace",
                              "wall_s, guess_s", "guess-fail-random"),
    "exact.nullspace_max_bits": ("bits", "lower", "exact.nullspace",
                                 "wall_s, guess_s", "guess-fail-random"),
    "exact.nonempty_ratio": ("ratio", "higher", "exact.nullspace",
                             "wall_s, guess_s", "guess-fail-random"),
    "exact.nullspace_share": ("ratio", "lower", "exact.nullspace",
                              "wall_s, guess_s", "guess-fail-random"),
    "prefix.scaled_s": ("s", "lower", "prefix.scaled",
                        "setup_s, wall_s, guess_s", "guess-cli-short"),
    "prefix.entry_bits": ("bits", "lower", "prefix.scaled", "wall_s, guess_s",
                          "guess-oracle-long, guess-fail-random"),
    "prefix.parse_s": ("s", "lower", "prefix.load_prefix",
                       "setup_s, wall_s, guess_s", "guess-cli-short"),
    "sequences.extend_s": ("s", "lower", "sequences.extend",
                           "wall_s, extend_terms_per_s", "extend-check-long"),
    "sequences.check_s": ("s", "lower", "sequences.check",
                          "wall_s, check_rows_per_s", "extend-check-long"),
    "cli.main_self_s": ("s", "lower", "cli.main",
                        "wall_s, guess_s", "guess-cli-short"),
    "trace.overhead_ratio": ("ratio", "lower", None, "none (traced wall_s "
                             "over untraced wall_s)", "all"),
}

# Metrics that are counts of work; they must repeat exactly for one seed.
COUNT_METRICS = ("guessing.assemble_calls", "equations.value_calls",
                 "equations.value_useful_ratio", "kernel.quad_conv_calls",
                 "kernel.quad_conv_terms", "exact.nullspace_calls",
                 "exact.nullspace_cells", "exact.nullspace_max_bits",
                 "exact.nonempty_ratio", "prefix.entry_bits")


def _resolve(module_name, path):
    """(owner, attribute) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _cleared_bits(matrix):
    """Bit size of the largest entry once each row is integer-cleared."""
    best = 0
    for row in matrix:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row)) if row else 1
        for x in row:
            cleared = x.numerator * (den // x.denominator)
            best = max(best, cleared.bit_length())
    return best


class Tracer:
    """Records spans in memory; aggregates self time and counts per pass."""

    def __init__(self):
        self.active = False
        # (span_id, parent_id, op_id, name, start, end)
        self.spans = []
        self.absent = []         # span names whose target no longer exists
        self._installed = []     # (owner, attr, original)
        self._stack = []         # [span_id, child_seconds] per open span
        self._next_id = 1
        self.op_id = 0
        self._op_keys = set()
        self.begin_pass()

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = {"equations.value": self._on_value,
                 "kernel.quad_conv": self._on_quad_conv,
                 "exact.nullspace": self._on_nullspace,
                 "prefix.scaled": self._on_scaled}
        for module_name, path, name in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "prefix.scaled" and getattr(args[0], "_scaled",
                                                   None) is not None:
                # Cached view: users pay the scaling once per input, and a
                # span per cache hit would cost more than the lookup.
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((span_id, parent, tracer.op_id, name,
                                     start, end))
                tracer.calls[name] += 1
                tracer.inclusive[name] += duration
                tracer.self_time[name] += duration - frame[1]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counters taken at the span boundaries -------------------------------

    def _on_value(self, args, kwargs, result):
        generator, _prefix, n = args
        self._op_keys.add((generator.monomial.p, generator.monomial.q,
                           n - generator.s))

    def _on_quad_conv(self, args, kwargs, result):
        self.counts["quad_conv_terms"] += args[1] + 1

    def _on_nullspace(self, args, kwargs, result):
        matrix = args[0]
        width = kwargs.get("width", args[1] if len(args) > 1 else None)
        if width is None:
            width = len(matrix[0]) if matrix else 0
        self.counts["nullspace_cells"] += len(matrix) * width
        self.counts["nullspace_nonempty"] += bool(result)
        self.counts["nullspace_max_bits"] = max(
            self.counts["nullspace_max_bits"], _cleared_bits(matrix))

    def _on_scaled(self, args, kwargs, result):
        nums, den = result
        bits = max([abs(v).bit_length() for v in nums] + [den.bit_length()])
        self.counts["entry_bits"] = max(self.counts["entry_bits"], bits)

    # -- operations and passes ----------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_keys = set()

    def end_op(self):
        self.counts["value_distinct"] += len(self._op_keys)
        self._op_keys = set()

    def begin_pass(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def pass_metrics(self, pass_seconds):
        """Per-layer metrics of the pass just finished (no overhead ratio)."""
        calls, incl, own, counts = (self.calls, self.inclusive,
                                    self.self_time, self.counts)

        def ratio(num, den):
            return num / den if den else 0.0

        guess_s = incl["guessing.guess"]
        out = {
            "guessing.assemble_s": own["guessing.assemble_system"],
            "guessing.assemble_calls": calls["guessing.assemble_system"],
            "guessing.assemble_share": ratio(incl["guessing.assemble_system"],
                                             guess_s),
            "guessing.normalize_s": own["guessing.normalize"],
            "equations.value_s": own["equations.value"],
            "equations.value_calls": calls["equations.value"],
            "equations.value_useful_ratio": ratio(counts["value_distinct"],
                                                  calls["equations.value"]),
            "equations.row_value_s": own["equations.row_value"],
            "kernel.quad_conv_s": own["kernel.quad_conv"],
            "kernel.quad_conv_calls": calls["kernel.quad_conv"],
            "kernel.quad_conv_terms": counts["quad_conv_terms"],
            "exact.nullspace_s": own["exact.nullspace"],
            "exact.nullspace_calls": calls["exact.nullspace"],
            "exact.nullspace_cells": counts["nullspace_cells"],
            "exact.nullspace_max_bits": counts["nullspace_max_bits"],
            "exact.nonempty_ratio": ratio(counts["nullspace_nonempty"],
                                          calls["exact.nullspace"]),
            "exact.nullspace_share": ratio(incl["exact.nullspace"], guess_s),
            "prefix.scaled_s": own["prefix.scaled"],
            "prefix.entry_bits": counts["entry_bits"],
            "prefix.parse_s": incl["prefix.load_prefix"],
            "sequences.extend_s": incl["sequences.extend"],
            "sequences.check_s": incl["sequences.check"],
            "cli.main_self_s": own["cli.main"],
        }
        shares = {name: ratio(own[name], pass_seconds)
                  for name in sorted(calls)}
        return out, shares

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "op", "name", "start_s",
                             "end_s"])
            writer.writerows(self.spans)

"""Per-layer tracing of `cyclichodge`, installed from outside the package.

`Tracer.install` replaces public functions and methods of each module
with wrappers, at the names where the package looks them up (for
example `potentials.evaluate_graph`, not `contract.evaluate_graph`,
because `PotentialTable.piece` calls the name it imported).  Span
wrappers keep (name, start, end, parent) records in memory; counting
wrappers only bump a counter, for calls too frequent to span.
`summarize` turns the records into the per-layer metrics.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (span name, module attribute path, name looked up there)
SPANS = (
    ("algebra.load", "cli", "load_algebra"),
    ("algebra.load", "cli", "load_builtin"),
    ("algebra.check_axioms", "cli", "check_axioms"),
    ("algebra.check_axioms", "potentials", "check_axioms"),
    ("potentials.enumerate", "potentials", "enumerate_sm"),
    ("potentials.enumerate", "potentials", "enumerate_desc"),
    ("potentials.piece", "potentials.PotentialTable", "piece"),
    ("graphs.canonical_form", "graphs.MarkedGraph", "canonical_form"),
    ("graphs.automorphism_order", "graphs.MarkedGraph", "automorphism_order"),
    ("contract.evaluate", "potentials", "evaluate_graph"),
    ("contract.bivector", "contract", "bivector"),
    ("relations.wdvv", "relations", "check_wdvv"),
    ("relations.const", "relations", "check_const_relation"),
    ("relations.string", "relations", "check_string"),
    ("relations.dilaton", "relations", "check_dilaton"),
    ("relations.trr0", "relations", "check_trr0"),
    ("relations.trr1", "relations", "check_trr1"),
    ("relations.trr2", "relations", "check_trr2"),
)

# (counter name, module attribute path, name looked up there)
COUNTS = (
    ("contract.mark_matrix", "contract", "mark_matrix"),
    ("algebra.derive_ops", "algebra", "derive_ops"),
    ("algebra.derive_ops", "contract", "derive_ops"),
    ("algebra.derive_ops", "relations", "derive_ops"),
    ("graded.mat_mul", "graded", "mat_mul"),
    ("graded.mat_mul", "algebra", "mat_mul"),
    ("graded.mat_mul", "contract", "mat_mul"),
    ("poly.mul", "poly.Poly", "__mul__"),
    ("poly.mul", "poly.Poly", "__rmul__"),
    ("poly.add", "poly.Poly", "__add__"),
    ("poly.add", "poly.Poly", "__radd__"),
    ("poly.partial", "poly.Poly", "partial"),
    ("poly.truncate", "poly.Poly", "truncate"),
)

CHECKS = ("wdvv", "const", "string", "dilaton", "trr0", "trr1", "trr2")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._pieces_seen = set()

    def install(self, package):
        """Wrap the names in SPANS and COUNTS inside `package`."""
        for wrap, table in ((self._spanned, SPANS), (self._counted, COUNTS)):
            for name, where, attr in table:
                owner = package
                for part in where.split("."):
                    owner = getattr(owner, part)
                setattr(owner, attr, wrap(name, getattr(owner, attr)))

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span."""
        return self._spanned(name, fn)(*args)

    def _spanned(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self._observe

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            observe(name, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, result):
        """Counts that need the arguments or the result of a span."""
        if name == "contract.evaluate":
            self.counts["contract.evaluate_nonzero"] += not result.is_zero()
        elif name == "potentials.enumerate":
            self.counts["potentials.classes"] += len(result)
        elif name == "potentials.piece":
            # args is (table, g, n, L); holding the table keeps its
            # identity from being reused by a later table
            self.counts["potentials.piece_hits"] += args in self._pieces_seen
            self._pieces_seen.add(args)
        elif name.startswith("relations."):
            self.counts["relations.checks"] += 1
            self.counts["relations.failed"] += not result.ok


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans, counts):
    """Per-layer metrics from span records and counters.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    counts = Counter(counts)
    inner = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    calls = Counter()
    total = defaultdict(float)
    own = defaultdict(float)
    longest = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, inner):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered
        longest[name] = max(longest[name], end - start)

    m = {
        "contract.evaluate_calls": calls["contract.evaluate"],
        "contract.evaluate_s": total["contract.evaluate"],
        "contract.evaluate_s.max": longest["contract.evaluate"],
        "contract.evaluate_nonzero_ratio": _ratio(
            counts["contract.evaluate_nonzero"], calls["contract.evaluate"]),
        "contract.mark_matrix_calls": counts["contract.mark_matrix"],
        "contract.bivector_calls": calls["contract.bivector"],
        "contract.bivector_s": total["contract.bivector"],
        "graphs.canonical_form_calls": calls["graphs.canonical_form"],
        "graphs.canonical_form_s": total["graphs.canonical_form"],
        "graphs.automorphism_order_calls": calls["graphs.automorphism_order"],
        "graphs.automorphism_order_s": total["graphs.automorphism_order"],
        "potentials.enumerate_calls": calls["potentials.enumerate"],
        "potentials.enumerate_self_s": own["potentials.enumerate"],
        "potentials.classes": counts["potentials.classes"],
        "potentials.class_yield": _ratio(counts["potentials.classes"],
                                         calls["graphs.canonical_form"]),
        "potentials.piece_calls": calls["potentials.piece"],
        "potentials.piece_hit_ratio": _ratio(counts["potentials.piece_hits"],
                                             calls["potentials.piece"]),
        "potentials.piece_self_s": own["potentials.piece"],
        "poly.mul_calls": counts["poly.mul"],
        "poly.add_calls": counts["poly.add"],
        "poly.partial_calls": counts["poly.partial"],
        "poly.truncate_calls": counts["poly.truncate"],
        "relations.checks": counts["relations.checks"],
        "relations.failed": counts["relations.failed"],
        "relations.self_s": sum(own[f"relations.{c}"] for c in CHECKS),
    }
    for check in CHECKS:
        m[f"relations.{check}_s"] = total[f"relations.{check}"]
    m.update({
        "algebra.load_s": total["algebra.load"],
        "algebra.check_axioms_s": total["algebra.check_axioms"],
        "algebra.derive_ops_calls": counts["algebra.derive_ops"],
        "graded.mat_mul_calls": counts["graded.mat_mul"],
        "cli.self_s": own["cli.main"],
    })
    return m

"""Spans and counters at the public-function boundaries of the package.

The package is not edited.  ``Tracer.install`` wraps each traced function
and replaces it under every module of the package that holds it, because
modules bind names by from-import (``witness.build_adequate_set`` and
``payments.build_adequate_set`` are the same object under two names).
``PriceRule.__call__`` is wrapped on the class.  ``uninstall`` restores
the originals.

A span records its name, start, end and parent in flat arrays; a layer's
self time is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, function, span name, size counter fed from the result)
SPANS = [
    ("cli", "main", "cli.main", None),
    ("feasibility", "build_balance_system", "feasibility.build", "system"),
    ("feasibility", "solve_or_refute", "feasibility.solve", "solution"),
    ("feasibility", "verify_certificate", "feasibility.verify_certificate", None),
    ("rules", "check_flat_invariance", "rules.check_flat_invariance", None),
    ("bids", "bid_vector_from_json", "bids.vector_from_json", None),
    ("bids", "full_family", "bids.full_family", None),
    ("bids", "completion", "bids.completion", None),
    ("bids", "restrictions", "bids.restrictions", "items"),
    ("bids", "sub_multisets", "bids.sub_multisets", "items"),
    ("bids", "extend", "bids.extend", None),
    ("payments", "build_adequate_set", "payments.build_adequate_set", "distinct"),
    ("payments", "is_adequate", "payments.is_adequate", None),
    ("payments", "forced_payment_sum", "payments.forced_payment_sum", None),
    ("payments", "build_payment_table", "payments.build_payment_table", None),
    ("witness", "verify_imbalance", "witness.verify_imbalance", None),
    ("witness", "vickrey_witness_set", "witness.vickrey_witness_set", "vectors"),
]
RULE_SPAN = "rules.eval"
# Called too often for a span each; only counted.
COUNTED = [("rationals", "ensure_rational"), ("rationals", "format_rational")]


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.max_bits = 0
        self._adequate_keys: set = set()

    # --- installation -----------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        pkg = sys.modules[self.package]
        for module_name, attr, span, sizes in SPANS:
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            self._replace_everywhere(original, self._span_wrapper(original, span, sizes))
        for module_name, attr in COUNTED:
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            self._replace_everywhere(original, self._count_wrapper(original, f"{module_name}.{attr}.calls"))
        rule_cls = pkg.rules.PriceRule
        original_call = rule_cls.__call__
        self._restore.append((rule_cls, "__call__", original_call))
        rule_cls.__call__ = self._span_wrapper(original_call, RULE_SPAN, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- wrappers ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count_wrapper(self, fn, counter: str):
        def counted(*args, **kwargs):
            # reset() replaces the dict, so look it up on each call
            counts = self.counts
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, name: str, sizes: str | None):
        name_id = self._name_id(name)
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            stack = self._stack
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if sizes is not None:
                self._record_sizes(name, sizes, args, result)
            return result

        return traced

    def _add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _record_sizes(self, name, sizes, args, result) -> None:
        if sizes == "items":
            self._add(f"{name}.items", len(result))
        elif sizes == "vectors":
            self._add("witness.vectors", len(result))
        elif sizes == "distinct":
            base, fill, rule, i1, i2 = args
            self._adequate_keys.add((base, fill, rule.name, i1, i2))
        elif sizes == "system":
            self._add("feasibility.rows", len(result.rows))
            self._add("feasibility.unknowns", len(result.variables))
            self._add("feasibility.nnz", sum(len(row.coeffs) for row in result.rows))
        elif sizes == "solution" and hasattr(result, "certificate"):
            multipliers = result.certificate.multipliers
            self._add("feasibility.cert.support", sum(1 for m in multipliers if m))
            bits = max((max(abs(m.numerator).bit_length(), m.denominator.bit_length())
                        for m in multipliers), default=0)
            self.max_bits = max(self.max_bits, bits)

    # --- aggregation ------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Per span name: self seconds and call count, plus the counters."""
        n = len(self.span_start)
        covered = [0.0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                covered[parent] += self.span_end[idx] - self.span_start[idx]
        out: dict[str, float] = {}
        for idx in range(n):
            name = self.names[self.span_name[idx]]
            self_s = self.span_end[idx] - self.span_start[idx] - covered[idx]
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out.update(self.counts)
        out["feasibility.cert.max_bits"] = self.max_bits
        builds = out.get("payments.build_adequate_set.calls", 0)
        out["payments.build_adequate_set.distinct_ratio"] = (
            len(self._adequate_keys) / builds if builds else 0.0)
        return out

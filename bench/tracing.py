"""Span tracing of b2weyl's public functions, installed from outside the package.

Each listed function is wrapped once and the wrapper is bound in place of
the original under every name any ``b2weyl`` module holds it by, so calls
between modules (``orbit`` calling ``algebra.reflect``, ``cli`` calling
``orbit.descend_to_origin``) are traced too.  Spans stay in memory as
[name, start, end, parent span, request id] and are written out at the
end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

FUNCTIONS = {
    "algebra": ("reflect", "apply_word", "eval_at", "pohozaev_residual"),
    "orbit": ("enumerate_orbit", "is_member_gamma_N", "descend_to_origin",
              "check_relations"),
    "closedform": ("type_of", "closed_form_eval", "invert_to_closed_form"),
    "cascade": ("parse_scenario", "replay", "step"),
    "sinh": ("sinh_orbit", "sinh_invert"),
    "weyl2": ("finite_orbit", "appendix_table"),
    "cli": ("build_parser", "main"),
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]


def _elements(counts, result, raised):
    if not raised:
        counts["orbit.enumerate_orbit.elements"] += len(result)


def _negatives(counts, result, raised):
    if not raised and not result.member:
        counts["orbit.is_member_gamma_N.negatives"] += 1


def _steps(counts, result, raised):
    if not raised:
        counts["orbit.descend_to_origin.steps"] += len(result)


def _rejected(counts, result, raised):
    if raised:
        counts["cascade.step.rejected"] += 1


# Counters read off a traced call's result (or its exception).
OBSERVERS = {
    "orbit.enumerate_orbit": _elements,
    "orbit.is_member_gamma_N": _negatives,
    "orbit.descend_to_origin": _steps,
    "cascade.step": _rejected,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            raised, result = True, None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(counts, result, raised)
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "b2weyl" or n.startswith("b2weyl.")]
        for mod_name, names in FUNCTIONS.items():
            home = importlib.import_module(f"b2weyl.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time, result counters and the two useful ratios."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        reflects_under: Counter = Counter()
        for k, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[k]
            if name == "algebra.reflect" and parent >= 0:
                reflects_under[spans[parent][0]] += 1
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for key in ("orbit.enumerate_orbit.elements", "orbit.is_member_gamma_N.negatives",
                    "orbit.descend_to_origin.steps", "cascade.step.rejected"):
            out[key] = self.counts[key]
        # New BFS elements (all but each call's origin) per reflection tried.
        tried = reflects_under["orbit.enumerate_orbit"]
        new = self.counts["orbit.enumerate_orbit.elements"] - calls["orbit.enumerate_orbit"]
        out["orbit.enumerate_orbit.useful_ratio"] = new / tried if tried else 0.0
        # Descent steps taken per candidate reflection evaluated.
        tried = reflects_under["orbit.descend_to_origin"]
        out["orbit.descend_to_origin.useful_ratio"] = (
            self.counts["orbit.descend_to_origin.steps"] / tried if tried else 0.0)
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans: request, span, parent, name, start_us, end_us."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("request\tspan\tparent\tname\tstart_us\tend_us\n")
            for k, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{request}\t{k}\t{parent}\t{name}\t"
                         f"{(start - base) * 1e6:.1f}\t{(end - base) * 1e6:.1f}\n")

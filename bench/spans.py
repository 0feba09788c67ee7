"""Span recording for the traced run, from the benchmark's side of each call.

gradcast is not edited.  Spans are taken around the benchmark's own calls
into each module, around the ``decide``/``render`` of the predicates it hands
to ``cast``, and around module functions that gradcast looks up at call time
(``casts.cast``, ``casts.show_value``, ``compiler.run_prog``, ...), which the
traced run rebinds for its duration and restores afterwards.

A span is ``(name, start_ns, end_ns, parent, op, tag)``: ``parent`` is the
index of the enclosing span or -1, ``op`` the id of the op that made it, and
``tag`` an outcome label (for ``cast``: ok, fail_lazy or raised).
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

from workloads import gradcast_api


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, classify=None):
        """``fn`` with a span around every call.  ``classify(result)`` tags
        the span; a call that raises is tagged ``raised``."""
        spans, open_spans, clock, tracer = self.spans, self._open, time.perf_counter_ns, self

        def traced(*args):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            tag = "raised"
            start = clock()
            try:
                result = fn(*args)
                tag = classify(result) if classify is not None else None
                return result
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent, tracer.op, tag)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\ttag\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


def traced_api(tracer: Tracer):
    """The API of :func:`workloads.gradcast_api` with spans at every layer
    boundary, and the module rebindings that :func:`patched` applies."""
    api = gradcast_api()
    casts = api.gc.casts
    hocasts = api.gc.hocasts
    compiler, rationals = api.compiler, api.rationals
    wrap = tracer.wrap

    def cast_outcome(result):
        return "ok" if isinstance(result, casts.Attested) else "fail_lazy"

    def traced_pred(p):
        return api.gc.Pred(
            decide=wrap("predicates.decide", p.decide),
            render=wrap("predicates.render", p.render),
        )

    def traced_eq(eq):
        return api.gc.EqDec(
            eq_decide=wrap("instances.eq_list.decide", eq.eq_decide),
            render_value=eq.render_value,
        )

    cast = wrap("casts.cast", casts.cast, cast_outcome)
    traced_eval = wrap("compiler.eval_exp", compiler.eval_exp)
    original_eval = compiler.eval_exp

    def eval_top_level(e):
        # eval_exp recurses through its module global: only the outermost
        # call gets a span, the recursion runs the original untouched.
        compiler.eval_exp = original_eval
        try:
            return traced_eval(e)
        finally:
            compiler.eval_exp = eval_top_level

    irred = {
        "peano": wrap("rationals.irred.bounded", rationals.irreducible_bounded),
        "machine": wrap("rationals.irred.binary", rationals.irreducible_bounded),
    }

    def irreducible_bounded(top, bottom, arith):
        return irred[arith.name](top, bottom, arith)

    patches = [
        (casts, "cast", cast),
        (hocasts, "cast", cast),
        (casts, "show_value", wrap("render.show_value", casts.show_value)),
        (compiler, "eval_exp", eval_top_level),
        (compiler, "run_prog", wrap("compiler.run_prog", compiler.run_prog)),
        # The gcd decider sits in a private table; the public gcd it calls
        # is what gets timed.
        (rationals, "gcd", wrap("rationals.irred.gcd", rationals.gcd)),
        (rationals, "irreducible_bounded", irreducible_bounded),
    ]
    api.cast = cast
    api.proj1 = wrap("casts.proj1", api.proj1)
    api.map_cast = wrap("casts.map_cast", api.map_cast)
    api.cast_rat = wrap("rationals.cast_rat", api.cast_rat)
    api.pred = traced_pred
    api.eq = traced_eq
    api.span = wrap
    api.traced = True
    return api, patches


@contextlib.contextmanager
def patched(patches):
    """Rebind module attributes for the ``with`` block, then restore them."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _p50_us(samples_ns) -> tuple[float, int]:
    return (statistics.median(samples_ns) / 1000 if samples_ns else 0.0), len(samples_ns)


def _total_s(samples_ns) -> tuple[float, int]:
    return sum(samples_ns) / 1e9, len(samples_ns)


def layer_metrics(spans, op_weight, op_failed, op_scale) -> tuple[dict, dict]:
    """Per-layer metrics from spans, and the sample count behind each.

    ``op_weight[op]`` is the op's work size (tree nodes for the compiler),
    ``op_failed[op]`` whether its outcome shows a cast failure and
    ``op_scale[op]`` the calibration factor of its chunk, applied to every
    duration.  A layer that does no work in a workload reads 0 with 0 samples.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _op, _tag in spans:
        if parent >= 0:
            covered[parent] += end - start
    dur = defaultdict(list)
    self_ns = defaultdict(list)
    weight = defaultdict(int)
    cast_self = defaultdict(list)
    run_prog_calls = defaultdict(int)
    renders = unread = 0
    for i, (name, start, end, parent, op, tag) in enumerate(spans):
        scale = op_scale[op]
        dur[name].append((end - start) * scale)
        self_ns[name].append((end - start - covered[i]) * scale)
        weight[name] += op_weight[op]
        if name == "casts.cast":
            cast_self[tag].append(self_ns[name][-1])
        elif name == "predicates.render":
            renders += 1
            if parent >= 0 and spans[parent][0] == "casts.cast" and spans[parent][5] == "ok":
                unread += 1
        elif name == "compiler.run_prog":
            run_prog_calls[op] += 1

    def nodes_per_s(name):
        total = sum(dur[name])
        return (weight[name] / (total / 1e9) if total else 0.0), len(dur[name])

    def per_op(failed):
        ops = [op for op in run_prog_calls if op_failed[op] == failed]
        return (sum(run_prog_calls[op] for op in ops) / len(ops) if ops else 0.0), len(ops)

    values = {
        "casts.cast.ok_us": _p50_us(cast_self["ok"]),
        "casts.cast.fail_lazy_us": _p50_us(cast_self["fail_lazy"]),
        "casts.cast.fail_eager_us": _p50_us(cast_self["raised"]),
        "casts.proj1.us": _p50_us(dur["casts.proj1"]),
        "casts.map_cast.us": _p50_us(dur["casts.map_cast"]),
        "predicates.decide.self_s": _total_s(self_ns["predicates.decide"]),
        "predicates.render.self_s": _total_s(self_ns["predicates.render"]),
        "predicates.render.unread_share": (unread / renders if renders else 0.0, renders),
        "instances.eq_list.decide_us": _p50_us(dur["instances.eq_list.decide"]),
        "render.show_value.self_s": _total_s(self_ns["render.show_value"]),
        "compiler.parse_exp.nodes_per_s": nodes_per_s("compiler.parse_exp"),
        "compiler.compile_fixed.nodes_per_s": nodes_per_s("compiler.compile_fixed"),
        "compiler.compile_buggy.nodes_per_s": nodes_per_s("compiler.compile_buggy"),
        "compiler.eval_exp.nodes_per_s": nodes_per_s("compiler.eval_exp"),
        "compiler.run_prog.instrs_per_s": nodes_per_s("compiler.run_prog"),
        "compiler.run_prog.per_op_attested": per_op(False),
        "compiler.run_prog.per_op_failed": per_op(True),
        "rationals.cast_rat.self_us": _p50_us(self_ns["rationals.cast_rat"]),
    }
    for wrapper in ("fun_range", "fun_dom", "forall_range"):
        values[f"hocasts.{wrapper}.apply_us"] = _p50_us(dur[f"hocasts.{wrapper}.apply"])
    for decider in ("gcd", "binary", "bounded"):
        values[f"rationals.irred.{decider}_us"] = _p50_us(dur[f"rationals.irred.{decider}"])
    return {k: v for k, (v, _n) in values.items()}, {k: n for k, (_v, n) in values.items()}

"""Seeded workloads for the gradcast benchmark, each with an oracle of its own.

An op is generated as a descriptor ``(kind, key, value, eager, expected,
weight)``: its inputs, the outcome the benchmark's oracle predicts, and a
work size (tree nodes for the compiler, 1 elsewhere).  A fixture built from
gradcast's API turns a descriptor into a call.  The oracles never call
gradcast: they use plain comparisons, list ``==``, ``math.gcd`` and an
expression evaluator of their own.

Ops come in stratified blocks, so every block holds the same mix of kinds and
sizes and a run's throughput does not drift with the share of heavy ops a seed
happens to draw.  No input is filtered or redrawn because gradcast fails on
it; only duplicate compiler expressions are redrawn.
"""

from __future__ import annotations

import importlib
import math
import random
import zlib
from types import SimpleNamespace


class _Fault:
    """An outcome that is a forced cast failure."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


# A CastFault escaped the op: an eager cast failed, or the op does not
# separate where the fault came from.
FAULT = _Fault("FAULT")
# The op got a failed cast back as a value and projecting it faulted: the
# lazy regime.
POISONED = _Fault("POISONED")


def failure(eager: bool) -> _Fault:
    return FAULT if eager else POISONED


def has_cast_failure(outcome: object) -> bool:
    """Whether an op's outcome shows a cast failure (whole op or one element)."""
    return (
        outcome is FAULT
        or outcome is POISONED
        or (type(outcome) is tuple and POISONED in outcome)
    )


def gradcast_api() -> SimpleNamespace:
    """gradcast's public API as the workloads call it, untraced.

    ``pred``, ``eq`` and ``span`` are the hooks the traced run replaces: they
    hand back their argument unchanged here.
    """
    gc = importlib.import_module("gradcast")
    compiler = importlib.import_module("gradcast.compiler")
    rationals = importlib.import_module("gradcast.rationals")
    return SimpleNamespace(
        gc=gc,
        compiler=compiler,
        rationals=rationals,
        CastFault=gc.CastFault,
        LAZY=gc.FailureMode.LAZY,
        EAGER=gc.FailureMode.EAGER,
        cast=gc.cast,
        proj1=gc.proj1,
        map_cast=gc.map_cast,
        cast_rat=rationals.cast_rat,
        pred=lambda p: p,
        eq=lambda e: e,
        span=lambda _name, f: f,
        traced=False,
    )


# ---------------------------------------------------------------- casts

N_MAX = 30
# (a, b) parameters of the combinator predicates; each leaves both outcomes
# reachable on 0..N_MAX.
GRID = ((2, 9), (5, 14), (8, 20), (11, 27), (4, 25), (10, 16), (15, 29), (1, 6))
SINGLE = {
    "lt": lambda n, k: n < k,
    "gt": lambda n, k: n > k,
    "ge": lambda n, k: n >= k,
    "eq": lambda n, k: n == k,
}
COMBINATOR = {
    "and": lambda n, a, b: a < n < b,
    "or": lambda n, a, b: n < a or n > b,
    "not": lambda n, a, _b: n != a,
    "implies": lambda n, a, b: n < a or n < b,
}
HIGHER_ORDER = {
    "fun_range": (lambda n: n + 3, lambda n, y: y < 20),
    "fun_dom": (lambda n: 2 * n, lambda n, _y: n >= 10),
    "forall_range": (lambda n: 7 * n % 31, lambda n, y: y > n),
}
EQ_POOL = 16
CASTS_BLOCK = (
    ["single"] * 7
    + ["comb"] * 5
    + ["fun_range", "fun_dom", "forall_range"]
    + ["map"] * 2
    + ["eq_list"] * 3
)
CASTS_EAGER_PER_BLOCK = 6  # of 20: about 30% eager
FAIL_SHARE = 1 / 3


def _draw_n(rng: random.Random, holds, want_fail: bool) -> int:
    side = [n for n in range(N_MAX + 1) if holds(n) != want_fail]
    return rng.choice(side) if side else rng.randrange(N_MAX + 1)


class Casts:
    name = "casts"
    chunk_blocks = 10  # 200 ops
    trace_ops = 20000

    def setup_inputs(self, seed: int) -> list[tuple[int, ...]]:
        # Lengths are spread evenly over 1-64 and only the elements are
        # drawn, so the cost of the longest lists does not vary by seed.
        rng = random.Random(f"casts-pool-{seed}")
        return [
            tuple(rng.randrange(N_MAX + 1) for _ in range(1 + 63 * i // (EQ_POOL - 1)))
            for i in range(EQ_POOL)
        ]

    def build(self, api: SimpleNamespace, pool: list[tuple[int, ...]]) -> SimpleNamespace:
        gc = api.gc
        lt = [gc.pred_lt_const(k) for k in range(N_MAX + 1)]
        gt = [gc.pred_gt_const(k) for k in range(N_MAX + 1)]
        ge = [gc.pred_ge_const(k) for k in range(N_MAX + 1)]
        eq = [gc.pred_equals(gc.eq_nat(), k) for k in range(N_MAX + 1)]
        preds = {}
        for name, table in (("lt", lt), ("gt", gt), ("ge", ge), ("eq", eq)):
            for k, p in enumerate(table):
                preds[name, k] = api.pred(p)
        for i, (a, b) in enumerate(GRID):
            preds["and", i] = api.pred(gc.p_and(gt[a], lt[b]))
            preds["or", i] = api.pred(gc.p_or(lt[a], gt[b]))
            preds["not", i] = api.pred(gc.p_not(eq[a]))
            preds["implies", i] = api.pred(gc.p_implies(ge[a], lt[b]))
        eq_list = api.eq(gc.eq_list(gc.eq_nat()))
        for j, expected in enumerate(pool):
            preds["eq_list", j] = api.pred(gc.pred_equals(eq_list, list(expected)))

        cast, proj1, map_cast, fault = api.cast, api.proj1, api.map_cast, api.CastFault
        gt_family = gc.PredFamily(at=[preds["gt", k] for k in range(N_MAX + 1)].__getitem__)
        f_range, _ = HIGHER_ORDER["fun_range"]
        f_forall, _ = HIGHER_ORDER["forall_range"]
        wrappers = {}
        for eager, mode in ((False, api.LAZY), (True, api.EAGER)):
            wrappers["fun_range", eager] = api.span(
                "hocasts.fun_range.apply",
                gc.cast_fun_range(preds["lt", 20], f_range, mode),
            )
            wrappers["fun_dom", eager] = api.span(
                "hocasts.fun_dom.apply",
                gc.cast_fun_dom(preds["ge", 10], lambda r: proj1(r) * 2, mode),
            )
            wrappers["forall_range", eager] = api.span(
                "hocasts.forall_range.apply",
                gc.cast_forall_range(gt_family, f_forall, mode),
            )

        def project(r):
            try:
                return proj1(r)
            except fault:
                return POISONED

        def op_cast(p, a, mode):
            return project(cast(p, a, mode))

        def op_apply(wrapped, n):
            return project(wrapped(n))

        def op_map(p, xs, mode):
            return tuple([project(r) for r in map_cast(p, xs, mode)])

        modes = {False: api.LAZY, True: api.EAGER}

        def bind(desc):
            kind, key, value, eager, _expected, _weight = desc
            if kind == "fun_dom":
                return wrappers[kind, eager], (value,)
            if kind in HIGHER_ORDER:
                return op_apply, (wrappers[kind, eager], value)
            if kind == "map":
                return op_map, (preds["lt", key], list(value), modes[eager])
            return op_cast, (preds[key], value if kind != "eq_list" else list(value), modes[eager])

        return SimpleNamespace(bind=bind)

    def blocks(self, seed: int, pool: list[tuple[int, ...]]):
        rng = random.Random(f"casts-{seed}")
        while True:
            kinds = list(CASTS_BLOCK)
            rng.shuffle(kinds)
            eager_at = set(rng.sample(range(len(kinds)), CASTS_EAGER_PER_BLOCK))
            yield [
                self._op(rng, kind, i in eager_at, pool) for i, kind in enumerate(kinds)
            ]

    def _op(self, rng, kind, eager, pool):
        want_fail = rng.random() < FAIL_SHARE
        if kind == "single":
            name = rng.choice(sorted(SINGLE))
            k = rng.randrange(N_MAX + 1)
            holds = lambda n: SINGLE[name](n, k)  # noqa: E731
            n = _draw_n(rng, holds, want_fail)
            return ("single", (name, k), n, eager, n if holds(n) else failure(eager), 1)
        if kind == "comb":
            name = rng.choice(sorted(COMBINATOR))
            i = rng.randrange(len(GRID))
            holds = lambda n: COMBINATOR[name](n, *GRID[i])  # noqa: E731
            n = _draw_n(rng, holds, want_fail)
            return ("comb", (name, i), n, eager, n if holds(n) else failure(eager), 1)
        if kind in HIGHER_ORDER:
            f, ok = HIGHER_ORDER[kind]
            holds = lambda n: ok(n, f(n))  # noqa: E731
            n = _draw_n(rng, holds, want_fail)
            # fun_dom's wrapped function projects its argument itself, so
            # its lazy fault escapes the op like an eager one.
            failed = FAULT if kind == "fun_dom" else failure(eager)
            return (kind, None, n, eager, f(n) if holds(n) else failed, 1)
        if kind == "map":
            k = rng.randint(10, N_MAX)
            if want_fail:
                xs = [rng.randrange(N_MAX + 1) for _ in range(8)]
                xs[rng.randrange(8)] = rng.randint(k, N_MAX)
            else:
                xs = [rng.randrange(k) for _ in range(8)]
            if eager:
                expected = FAULT if any(x >= k for x in xs) else tuple(xs)
            else:
                expected = tuple(x if x < k else POISONED for x in xs)
            return ("map", k, tuple(xs), eager, expected, 1)
        j = rng.randrange(len(pool))
        xs = list(pool[j])
        if want_fail and rng.random() < 0.25:
            if len(xs) > 1 and rng.random() < 0.5:
                xs.pop()
            else:
                xs.append(rng.randrange(N_MAX + 1))
        elif want_fail:
            i = rng.randrange(len(xs))
            xs[i] = (xs[i] + rng.randint(1, N_MAX)) % (N_MAX + 1)
        expected = xs if xs == list(pool[j]) else failure(eager)
        return ("eq_list", ("eq_list", j), tuple(xs), eager, expected, 1)


# ---------------------------------------------------------------- compiler

PRECEDENCE = {"+": 1, "-": 1, "*": 2}
# One block: 28 trees of 5 operator nodes, 10 of 50 and 2 of 500 (70/25/5%),
# half of each size compiled by the fixed compiler.
COMPILER_BLOCK = ((5, 28), (50, 10), (500, 2))
SEEN_BITS = 1 << 24


def gen_tree(rng: random.Random, ops: int):
    """A random tree with ``ops`` operator nodes: an int leaf 0-9 or
    ``(symbol, left, right)``; the left subtree's size is uniform."""
    if ops == 0:
        return rng.randrange(10)
    left = rng.randrange(ops)
    return (rng.choice("+-*"), gen_tree(rng, left), gen_tree(rng, ops - 1 - left))


def tree_text(tree, min_prec: int = 0) -> str:
    """Source text with the fewest parentheses, for left-associative
    operators where ``*`` binds tighter than ``+`` and ``-``."""
    if isinstance(tree, int):
        return str(tree)
    symbol, left, right = tree
    prec = PRECEDENCE[symbol]
    text = f"{tree_text(left, prec)}{symbol}{tree_text(right, prec + 1)}"
    return f"({text})" if prec < min_prec else text


def evaluate(tree, swapped: bool = False) -> int:
    """Evaluate with subtraction truncated at zero.  ``swapped`` applies every
    operator to (right, left): what a program compiled left-operand-first
    computes on a stack machine that pops the right operand first."""
    if isinstance(tree, int):
        return tree
    symbol, left, right = tree
    x, y = evaluate(left, swapped), evaluate(right, swapped)
    if swapped:
        x, y = y, x
    if symbol == "+":
        return x + y
    if symbol == "-":
        return x - y if x >= y else 0
    return x * y


class Compiler:
    name = "compiler"
    chunk_blocks = 1  # 40 ops
    trace_ops = 2000

    def setup_inputs(self, seed: int) -> None:
        return None

    def build(self, api: SimpleNamespace, _inputs: None) -> SimpleNamespace:
        comp = api.compiler
        modes = {False: api.LAZY, True: api.EAGER}
        if api.traced:
            compilers = {
                v: api.span(f"compiler.compile_{v}", comp.COMPILERS[v])
                for v in ("fixed", "buggy")
            }
            parse = api.span("compiler.parse_exp", comp.parse_exp)
            correct_prog = api.span("compiler.correct_prog", comp.correct_prog)
            cast, proj1, pred = api.cast, api.proj1, api.pred

            def op_check(text, variant, eager):
                # The steps of runc(checked_compile(variant, mode), e), made
                # one by one so each gets its own span.
                e = parse(text)
                prog = compilers[variant](e)
                r = cast(pred(correct_prog(e)), prog, modes[eager])
                return comp.run_prog(proj1(r), [])

        else:
            parse_exp, runc = comp.parse_exp, comp.runc
            checked = {
                (v, eager): comp.checked_compile(v, modes[eager])
                for v in ("fixed", "buggy")
                for eager in (False, True)
            }

            def op_check(text, variant, eager):
                return runc(checked[variant, eager], parse_exp(text))

        def bind(desc):
            _kind, variant, text, eager, _expected, _weight = desc
            return op_check, (text, variant, eager)

        return SimpleNamespace(bind=bind)

    def blocks(self, seed: int, _inputs: None):
        rng = random.Random(f"compiler-{seed}")
        seen = bytearray(SEEN_BITS // 8)
        while True:
            block = []
            for ops, count in COMPILER_BLOCK:
                variants = ["fixed", "buggy"] * (count // 2)
                rng.shuffle(variants)
                for variant in variants:
                    while True:
                        tree = gen_tree(rng, ops)
                        text = tree_text(tree)
                        bit = zlib.crc32(text.encode()) % SEEN_BITS
                        if not seen[bit >> 3] & (1 << (bit & 7)):
                            seen[bit >> 3] |= 1 << (bit & 7)
                            break
                    value = evaluate(tree)
                    attested = variant == "fixed" or evaluate(tree, swapped=True) == value
                    expected = [value] if attested else FAULT
                    block.append(
                        ("check", variant, text, rng.random() < 0.5, expected, 2 * ops + 1)
                    )
            rng.shuffle(block)
            yield block


# ---------------------------------------------------------------- rationals

# One block: 45 gcd casts, 4 binary, 1 bounded (90/8/2%), 15 of 50 eager.
RATIONALS_BLOCK = ["gcd"] * 45 + ["binary"] * 4 + ["bounded"]
RATIONALS_EAGER_PER_BLOCK = 15
ZERO_BOTTOM_SHARE = 0.05
# The bounded decider is O(n^4) by construction; values <= 20 size the load.
RATIONALS_LIMIT = {"binary": 40, "bounded": 20}


class Rationals:
    name = "rationals"
    chunk_blocks = 5  # 250 ops
    trace_ops = 10000

    def setup_inputs(self, seed: int) -> None:
        return None

    def build(self, api: SimpleNamespace, _inputs: None) -> SimpleNamespace:
        strategy = api.rationals.IrredStrategy
        strategies = {"gcd": strategy.GCD, "binary": strategy.BINARY_BOUNDED,
                      "bounded": strategy.BOUNDED}
        modes = {False: api.LAZY, True: api.EAGER}
        cast_rat, fault = api.cast_rat, api.CastFault

        def op_rat(sign, top, bottom, strategy, mode):
            r = cast_rat(sign, top, bottom, strategy, mode)
            try:
                return (r.sign, r.top, r.bottom)
            except fault:
                return POISONED

        def bind(desc):
            _kind, name, (sign, top, bottom), eager, _expected, _weight = desc
            return op_rat, (sign, top, bottom, strategies[name], modes[eager])

        return SimpleNamespace(bind=bind)

    def blocks(self, seed: int, _inputs: None):
        rng = random.Random(f"rationals-{seed}")
        # The reference deciders draw from shuffled decks of every pair in
        # range, so each run sees nearly the same mix of their very uneven
        # costs (a bounded cast takes from tens of microseconds to several
        # milliseconds) and op_p99_us, which falls among them, does not swing.
        decks = {name: [] for name in RATIONALS_LIMIT}

        def deal(name):
            deck = decks[name]
            if not deck:
                limit = RATIONALS_LIMIT[name]
                deck.extend((t, b) for t in range(limit + 1) for b in range(limit + 1))
                rng.shuffle(deck)
            return deck.pop()

        while True:
            names = list(RATIONALS_BLOCK)
            rng.shuffle(names)
            eager_at = set(rng.sample(range(len(names)), RATIONALS_EAGER_PER_BLOCK))
            block = []
            for i, name in enumerate(names):
                eager = i in eager_at
                if name == "gcd":
                    limit = 10 ** rng.randint(1, 18)
                    top = rng.randint(0, limit)
                    zero = rng.random() < ZERO_BOTTOM_SHARE
                    bottom = 0 if zero else rng.randint(1, limit)
                else:
                    top, bottom = deal(name)
                sign = rng.random() < 0.5
                irreducible = bottom != 0 and math.gcd(top, bottom) == 1
                expected = (sign, top, bottom) if irreducible else failure(eager)
                block.append(("rat", name, (sign, top, bottom), eager, expected, 1))
            yield block


WORKLOADS = {w.name: w for w in (Casts(), Compiler(), Rationals())}

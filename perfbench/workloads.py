"""The benchmark's workloads: seeded jobs, expected answers and exact checks.

Each workload is a fixed list of jobs drawn from the seed.  A job calls one
public function of nbracket, looked up on its module at call time so that the
tracer's wrappers apply; its output is checked against an expected value
computed during set-up by a different route or from a closed form.
"""

import ast
import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

import nbracket.cli as nb_cli
import nbracket.expand as nb_expand
import nbracket.identities as nb_identities
from nbracket.algebra import ANTI_SLOT, reduce_element, reduce_terms
from nbracket.identities import (
    CoefficientProfile,
    decomposition_basis,
    decomposition_target,
    double_action_expr,
    flat_bracket_expr,
    nested_shape,
    split_shape,
)

from inputs import literal_words, map_family, random_shape, relabel, relabelling, to_text

# The process pool size of `parallel`; it equals the CPU count of the
# 2-CPU machine the benchmark was defined on (see README).
PARALLEL_JOBS = 2

# Per-pass requests of `mixed`: kind, count and the parameters the requests
# cycle through; for expand and reduce a parameter is a range of literal word
# counts.  Each parameter is sent about equally often in text and json.  The
# seed draws the expressions, their labels and the order, never the counts,
# so every seed sends the same mix.
WORD_RANGES = ((2, 7), (8, 31), (32, 127), (128, 240))
MIXED_PLAN = (
    ("expand", 250, WORD_RANGES),
    ("reduce", 300, WORD_RANGES),
    ("reduce-fallback", 100, ((64, 240),)),
    ("sums", 100, tuple(range(1, 21))),
    ("even", 50, (2, 4)),
    ("odd-reduce", 80, (1, 3, 5, 7, 9)),
    ("decomp", 60, (1, 2)),
    ("bremner", 60, (1, 2, 3)),
)


@dataclass(frozen=True)
class Size:
    oracle_L: int
    even_N: int
    fast_L: int
    fast_bundle_L: int
    odd_N: tuple
    decomp_L: tuple
    mixed_scale: float
    # Approximate seconds of one pass per workload, measured on a 2-CPU
    # Xeon; a run makes max(1, seconds // nominal) passes, so its amount of
    # work depends only on --seconds.  `fast` takes 2.7-4.4 s; 3.2 gives it
    # 14 passes in 45 s, which puts the tail sample inside the L = 12 group,
    # away from its edges (see README).
    nominal_pass_s: dict


SIZES = {
    "full": Size(2, 6, 12, 7, (3, 5, 7, 9), (1, 2, 3), 1.0,
                 {"oracle": 24.0, "parallel": 15.0, "fast": 3.2, "mixed": 2.5}),
    "tiny": Size(1, 4, 3, 1, (3, 5), (1,), 0.04,
                 {"oracle": 0.01, "parallel": 0.2, "fast": 0.01, "mixed": 0.1}),
}


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    check: Callable[[object, object], bool]
    expected: object
    words: int


@dataclass
class Workload:
    jobs: list
    nominal_pass_s: float
    warm_up: list

    def run_warm_up(self):
        for call in self.warm_up:
            call()


def build(name, seed, size_name="full"):
    """Inputs, expected answers and warm-up calls of one workload."""
    size = SIZES[size_name]
    rng = random.Random(f"{name}:{seed}")
    jobs, warm_up = BUILDERS[name](rng, size)
    return Workload(jobs, size.nominal_pass_s[name], warm_up)


def bremner_classes(L, sign):
    """Classes of either triple nesting: sign * (-1)^n * m_n on class n."""
    closed = CoefficientProfile.closed_form(L)
    width = closed.width
    return {(ANTI_SLOT,) * n + ("A",) + (ANTI_SLOT,) * (width - 1 - n): sign * closed.signed(n)
            for n in range(width)}


def odd_constant(N):
    return Fraction(N, comb(2 * N - 1, N))


def equal(output, expected):
    return output == expected


def corrupt(expected):
    """A wrong copy of an expected value, for the harness's self-test."""
    if isinstance(expected, dict):
        if not expected:
            return {("A",): 1}
        key = next(iter(expected))
        return {**expected, key: corrupt(expected[key])}
    if isinstance(expected, (tuple, list)):
        return type(expected)(tuple(expected[:-1]) + (corrupt(expected[-1]),))
    return expected + 1


# ---------------------------------------------------------------------------
# oracle and parallel


def _oracle_calls(rng, size, jobs):
    out = []
    L = size.oracle_L
    for label, shape in (("split", split_shape(L)), ("nested", nested_shape(L))):
        expr, sign = relabel(shape, rng)
        out.append(Job(f"oracle {label} L={L}", _oracle_call(expr, jobs), equal,
                       bremner_classes(L, sign), literal_words(expr)))
    N = size.even_N
    expr, _ = relabel(double_action_expr(N), rng)
    out.append(Job(f"oracle even N={N}", _oracle_call(expr, jobs), equal, {},
                   literal_words(expr)))
    warm_up = [_oracle_call(split_shape(1), jobs)]
    return out, warm_up


def _oracle_call(expr, jobs):
    return lambda: nb_expand.oracle_profile(expr, jobs=jobs)


def _oracle(rng, size):
    return _oracle_calls(rng, size, 1)


def _parallel(rng, size):
    return _oracle_calls(rng, size, PARALLEL_JOBS)


# ---------------------------------------------------------------------------
# fast


def _fast(rng, size):
    """Bremner profiles for L = 1..fast_L, odd constants and decompositions.

    The calls that take under about 70 ms (L <= fast_bundle_L, every odd
    constant and decomposition) make one job of about 0.3 s, so that every job
    lasts long enough to average over short swings in the machine's speed;
    see README.
    """
    small, large = [], []
    for L in range(1, size.fast_L + 1):
        for label, shape in (("split", split_shape(L)), ("nested", nested_shape(L))):
            expr, sign = relabel(shape, rng)
            job = Job(f"fast {label} L={L}", _fast_call(expr), equal,
                      bremner_classes(L, sign), literal_words(expr))
            (small if L <= size.fast_bundle_L else large).append(job)
    for N in size.odd_N:
        words = literal_words(double_action_expr(N)) + literal_words(flat_bracket_expr(2 * N - 1))
        small.append(Job(f"odd-reduce N={N}", _odd_call(N), equal, odd_constant(N), words))
    for L in size.decomp_L:
        target = decomposition_target(L)
        mapping, _ = relabelling(target, rng)
        target = map_family(target, mapping)
        basis = [map_family(b, mapping) for b in decomposition_basis(L)]
        expected = (nb_expand.fast_profile(target), [nb_expand.fast_profile(b) for b in basis])
        words = literal_words(target) + sum(literal_words(b) for b in basis)
        small.append(Job(f"decompose L={L}", _decompose_call(target, basis), resubstitutes,
                         expected, words))
    jobs = [bundle(f"fast L<={size.fast_bundle_L}, odd-reduce, decompose", small)] + large
    warm_up = [_fast_call(split_shape(3)), _odd_call(3),
               _decompose_call(decomposition_target(1), decomposition_basis(1))]
    return jobs, warm_up


def bundle(label, jobs):
    """One job that makes the calls of ``jobs`` in turn; it is correct when
    each of their outputs checks."""
    calls = [job.call for job in jobs]
    checks = [job.check for job in jobs]

    def check(outputs, expected):
        return (len(outputs) == len(checks) == len(expected)
                and all(ok(out, exp) for ok, out, exp in zip(checks, outputs, expected)))

    return Job(label, lambda: [call() for call in calls], check,
               [job.expected for job in jobs], sum(job.words for job in jobs))


def _fast_call(expr):
    return lambda: nb_expand.fast_profile(expr)


def _odd_call(N):
    return lambda: nb_identities.odd_reduction_constant(N)


def _decompose_call(target, basis):
    return lambda: nb_identities.decompose(target, basis)


def resubstitutes(coefficients, expected):
    """True when sum a_i profile(basis_i) equals profile(target) exactly."""
    target, basis = expected
    if coefficients is None or len(coefficients) != len(basis):
        return False
    classes = set(target).union(*basis)
    return all(
        sum(a * p.get(c, 0) for a, p in zip(coefficients, basis)) == target.get(c, 0)
        for c in classes
    )


# ---------------------------------------------------------------------------
# mixed


def run_cli(argv):
    """One in-process command-line request: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = nb_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _mixed(rng, size):
    plan = []
    for kind, count, params in MIXED_PLAN:
        for i in range(max(1, round(count * size.mixed_scale))):
            plan.append((kind, params[i % len(params)], ("text", "json")[i // len(params) % 2]))
    rng.shuffle(plan)
    cache = {}
    jobs = [_request(kind, param, fmt, rng, cache) for kind, param, fmt in plan]
    first = {}
    for job in jobs:
        first.setdefault(job.label.split()[0], job)
    warm_up = [job.call for job in first.values()]
    return jobs, warm_up


def _request(kind, param, fmt, rng, cache):
    tail = ["--format", fmt]
    if kind == "expand":
        expr = random_shape(rng, True, *param)
        argv = ["expand", to_text(expr, rng)] + tail
        expected = (literal_words(expr), nb_expand.fast_profile(expr))
        words = expected[0]
        check = _check_expand_json if fmt == "json" else _check_expand_text
    elif kind in ("reduce", "reduce-fallback"):
        supported = kind == "reduce"
        expr = random_shape(rng, supported, *param)
        words = literal_words(expr)
        argv = ["reduce", to_text(expr, rng), "--path", "auto"] + tail
        if supported:
            expected = ("fast", nb_expand.oracle_profile(expr))
        else:
            expected = ("oracle", reduce_element(nb_expand.expand_expr(expr)))
        check = _check_reduce_json if fmt == "json" else _check_reduce_text
    else:
        argv = ["verify", kind, str(param)] + tail
        if (kind, param) not in cache:
            cache[kind, param] = _verify_expected(kind, param)
        expected, words = cache[kind, param]
        check = _verify_check(kind, fmt)
    return Job(f"{kind} {fmt}", lambda: run_cli(argv), check, expected, words)


def _verify_expected(kind, p):
    """(expected value, literal words) of one `verify` request."""
    if kind == "sums":
        return (2 * p * (2 * p + 1) ** 2, factorial(2 * p + 1) ** 3), 0
    if kind == "even":
        return 0, literal_words(double_action_expr(p))
    if kind == "odd-reduce":
        words = literal_words(double_action_expr(p)) + literal_words(flat_bracket_expr(2 * p - 1))
        return odd_constant(p), words
    if kind == "decomp":
        target, basis = decomposition_target(p), decomposition_basis(p)
        expected = (nb_expand.fast_profile(target), [nb_expand.fast_profile(b) for b in basis])
        return expected, literal_words(target) + sum(literal_words(b) for b in basis)
    words = literal_words(split_shape(p)) + literal_words(nested_shape(p))
    return list(CoefficientProfile.closed_form(p).m), words


def _symbol(token):
    return int(token[1:]) if token.startswith("b") else token


def _pattern(tokens):
    return tuple(ANTI_SLOT if t == "b*" else t for t in tokens)


def _signed_lines(text):
    """Split the `+c ...` / `-c ...` lines of a text report; others are notes."""
    return [line.split() for line in text.splitlines() if line[:1] in ("+", "-")]


def _check_expand_text(result, expected):
    code, text = result
    terms = [(int(coeff), tuple(_symbol(t) for t in word))
             for coeff, *word in _signed_lines(text)]
    return code == 0 and _expansion_matches(terms, expected)


def _check_expand_json(result, expected):
    code, text = result
    payload = json.loads(text)
    terms = [(t["coefficient"], tuple(_symbol(s) for s in t["word"].split()))
             for t in payload["terms"]]
    return code == 0 and payload["count"] == len(terms) and _expansion_matches(terms, expected)


def _expansion_matches(terms, expected):
    words, classes = expected
    return (len(terms) == words and all(abs(c) == 1 for c, _ in terms)
            and reduce_terms(terms) == classes)


def _check_reduce_text(result, expected):
    code, text = result
    classes = {_pattern(pattern): Fraction(coeff) for coeff, *pattern in _signed_lines(text)}
    return code == 0 and classes == expected[1]


def _check_reduce_json(result, expected):
    code, text = result
    payload = json.loads(text)
    classes = {_pattern(c["pattern"].split()): Fraction(c["coefficient"])
               for c in payload["classes"]}
    return code == 0 and payload["path"] == expected[0] and classes == expected[1]


_STATUS = re.compile(r"^\S+ \{[^}]*\}: (\w+)")


def _verify_check(kind, fmt):
    def check(result, expected):
        code, text = result
        if fmt == "json":
            doc = json.loads(text)
            status, details, profile = doc["status"], doc["details"] or {}, doc["profile"]
        else:
            first, *rest = text.splitlines()
            status = _STATUS.match(first).group(1)
            details = _text_details(kind, first)
            profile = next((ast.literal_eval(line.split(":", 1)[1]) for line in rest
                            if line.startswith("profile m_n:")), None)
        if code != 0 or status != "verified":
            return False
        if kind == "sums":
            return (int(details["reduced_sum"]), int(details["multiplicity_sum"])) == expected
        if kind == "even":
            return int(details["surviving_classes"]) == expected
        if kind == "odd-reduce":
            return Fraction(details["constant"]) == expected
        if kind == "decomp":
            return resubstitutes([Fraction(c) for c in details["coefficients"]], expected)
        return profile == expected
    return check


_DETAIL = {
    "sums": re.compile(r"reduced_sum=(?P<reduced_sum>\d+), "
                       r"multiplicity_sum=(?P<multiplicity_sum>\d+)"),
    "even": re.compile(r"surviving_classes=(?P<surviving_classes>\d+)"),
    "odd-reduce": re.compile(r"constant=(?P<constant>-?\d+(?:/\d+)?)"),
    "decomp": re.compile(r"coefficients=(?P<coefficients>\[[^\]]*\])"),
    "bremner": re.compile(r""),
}


def _text_details(kind, line):
    found = _DETAIL[kind].search(line).groupdict()
    if "coefficients" in found:
        found["coefficients"] = ast.literal_eval(found["coefficients"])
    return found


BUILDERS = {"oracle": _oracle, "parallel": _parallel, "fast": _fast, "mixed": _mixed}

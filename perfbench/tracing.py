"""In-memory span tracing of nbracket, installed from outside the package.

The tracer replaces module-level names that nbracket's callers look up at run
time (``nbracket.expand.canonical_reduce``, ``nbracket.cli.parse`` and so on)
with wrappers that record spans, and puts the originals back afterwards.  No
file of the package changes.

A span records its name, start, end, parent span and job id.  Functions
called millions of times per job (``canonical_reduce``, ``parity`` and the
steps of ``signed_perm_range``) would need millions of span records, so they
are kept as *leaf aggregates* instead: per parent span and name, a call count,
the summed duration and a summed extra count (word length for
``canonical_reduce``).  A span's self time is its duration minus the time of
its child spans and leaf aggregates; calls run on one thread, so children
never overlap and that difference is exactly the uncovered part.

Fork-started pool workers inherit the wrappers; an at-fork hook restores the
originals in the child, so workers run untraced and at full speed.  The
parent sees the pool as one ``expand.pool`` span plus the CPU time and peak
RSS that ``RUSAGE_CHILDREN`` reports once the workers are joined.
"""

import json
import os
import resource
from functools import wraps
from time import perf_counter

import nbracket.algebra as nb_algebra
import nbracket.cli as nb_cli
import nbracket.expand as nb_expand
import nbracket.identities as nb_identities
from nbracket.expand import naive_term_count

# Span names of the verifiers; their self time is the closed-form work and
# the comparison of profiles.
CHECK_SPANS = (
    "identities.verify_even_gji",
    "identities.verify_odd_reduction",
    "identities.verify_bremner",
    "identities.check_sums",
    "identities.verify_decomposition",
    "identities.odd_reduction_constant",
    "identities.bremner_profiles",
)
PROFILE_SPANS = ("expand.oracle_profile", "expand.fast_profile")


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "child_s",
                 "leaves", "attrs", "error")

    def __init__(self, span_id, name, parent, job, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.job = job
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.leaves = {}  # leaf name -> [calls, seconds, extra]
        self.attrs = {}
        self.error = None

    @property
    def self_s(self):
        return (self.end - self.start) - self.child_s

    def to_json(self):
        attrs = {k: v for k, v in self.attrs.items() if k != "expr"}
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "job": self.job, "start": self.start, "end": self.end,
                "self_s": self.self_s, "error": self.error, "attrs": attrs,
                "leaves": self.leaves}


class Tracer:
    """Spans of one traced pass; ``install`` patches nbracket, ``uninstall``
    restores it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._patches = []  # (module, attribute, original)
        self._fork_hook = False
        self.words_literal = 0

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._job, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, error=None):
        span.end = perf_counter()
        span.error = error
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def job(self, job_id, label):
        """Open the root span of one job; close it with ``close``."""
        self._job = job_id
        span = self.open("job")
        span.attrs["label"] = label
        return span

    def _leaf(self, name, seconds, calls=1, extra=0):
        if not self._stack:
            return
        top = self._stack[-1]
        top.child_s += seconds
        agg = top.leaves.get(name)
        if agg is None:
            top.leaves[name] = [calls, seconds, extra]
        else:
            agg[0] += calls
            agg[1] += seconds
            agg[2] += extra

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, before=None, after=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, type(exc).__name__)
                raise
            self.close(span)
            if after is not None:
                after(span, args, result)
            return result
        return wrapper

    def _reduce_wrapper(self, fn):
        stack = self._stack

        @wraps(fn)
        def canonical_reduce(word):
            t0 = perf_counter()
            result = fn(word)
            dt = perf_counter() - t0
            if stack:
                top = stack[-1]
                top.child_s += dt
                agg = top.leaves.get("algebra.canonical_reduce")
                if agg is None:
                    top.leaves["algebra.canonical_reduce"] = [1, dt, len(word)]
                else:
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += len(word)
            return result
        return canonical_reduce

    def _leaf_wrapper(self, name, fn):
        leaf = self._leaf

        @wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            leaf(name, perf_counter() - t0)
            return result
        return wrapper

    def _generator_wrapper(self, name, fn):
        leaf = self._leaf

        @wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    leaf(name, perf_counter() - t0, calls=0)
                    return
                leaf(name, perf_counter() - t0)
                yield item
        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._bench_workers = max_workers or os.cpu_count() or 1

            def __enter__(self):
                self._bench_span = tracer.open("expand.pool")
                self._bench_cpu = _children_cpu()
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    span = self._bench_span
                    span.attrs["workers"] = self._bench_workers
                    span.attrs["worker_cpu_s"] = _children_cpu() - self._bench_cpu
                    tracer.close(span, exc_info[0] and exc_info[0].__name__)

        return TracedPool

    # -- installation --------------------------------------------------------

    def _patch(self, module, attr, make):
        """Replace ``module.attr`` by ``make(original)``.

        A name the package no longer has is skipped, so a refactor of
        nbracket leaves its metrics at 0 instead of breaking the run.
        """
        original = getattr(module, attr, None)
        if original is not None:
            self._patches.append((module, attr, original))
            setattr(module, attr, make(original))

    def install(self):
        """Wrap the names nbracket's modules look up at call time."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hook = True

        def keep_expr(span, args, result):
            span.attrs["expr"] = args[0]

        def listed(args):
            return (list(args[0]),) + args[1:]

        def count_terms(span, args, result):
            span.attrs["terms_in"] = len(args[0])
            span.attrs["classes_out"] = len(result)

        def count_parts(span, args, result):
            span.attrs["parts"] = len(args[0])

        def spans(name, before=None, after=None):
            return lambda fn: self._span_wrapper(name, fn, before, after)

        self._patch(nb_algebra, "canonical_reduce", self._reduce_wrapper)
        self._patch(nb_expand, "canonical_reduce", self._reduce_wrapper)
        self._patch(nb_expand, "parity",
                    lambda fn: self._leaf_wrapper("permutations.parity", fn))
        self._patch(nb_expand, "signed_perm_range",
                    lambda fn: self._generator_wrapper("permutations.signed_perm_range", fn))
        self._patch(nb_expand, "reduce_terms",
                    spans("algebra.reduce_terms", listed, count_terms))
        self._patch(nb_expand, "merge_class_maps",
                    spans("algebra.merge_class_maps", listed, count_parts))
        self._patch(nb_expand, "ProcessPoolExecutor", self._pool_class)
        self._patch(nb_expand, "supplant_all", spans("expand.supplant_all"))
        for module in (nb_expand, nb_identities, nb_cli):
            for attr in ("oracle_profile", "fast_profile"):
                self._patch(module, attr, spans(f"expand.{attr}", after=keep_expr))
        self._patch(nb_cli, "expand_expr", spans("expand.expand_expr"))
        for attr in ("decompose", "odd_reduction_constant", "bremner_profiles"):
            self._patch(nb_identities, attr, spans(f"identities.{attr}"))
        for attr in ("verify_even_gji", "verify_odd_reduction", "verify_bremner",
                     "check_sums", "verify_decomposition"):
            self._patch(nb_cli, attr, spans(f"identities.{attr}"))
        self._patch(nb_cli, "parse", spans("syntax.parse"))
        for module in (nb_cli, nb_identities):
            self._patch(module, "render", spans("syntax.render"))
        self._patch(nb_cli, "main", spans("cli.main"))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def _under_profile(self, span):
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name in PROFILE_SPANS:
                return True
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_json()) + "\n")

    def layer_metrics(self):
        """Per-layer totals over all recorded spans (see README for the map)."""
        self_s = {}
        calls = {}
        leaf_extra = {}
        terms_in = classes_out = parts = fallbacks = 0
        pool_wall = pool_capacity = worker_cpu = 0.0
        literal = generated = 0
        for span in self.spans:
            self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
            calls[span.name] = calls.get(span.name, 0) + 1
            for name, (n, seconds, extra) in span.leaves.items():
                self_s[name] = self_s.get(name, 0.0) + seconds
                calls[name] = calls.get(name, 0) + n
                leaf_extra[name] = leaf_extra.get(name, 0) + extra
            if span.name == "algebra.reduce_terms":
                terms_in += span.attrs["terms_in"]
                classes_out += span.attrs["classes_out"]
                if self._under_profile(span):
                    generated += span.attrs["terms_in"]
            elif span.name == "algebra.merge_class_maps":
                parts += span.attrs["parts"]
            elif span.name == "expand.pool":
                wall = span.end - span.start
                pool_wall += wall
                pool_capacity += span.attrs["workers"] * wall
                worker_cpu += span.attrs["worker_cpu_s"]
            elif span.name in PROFILE_SPANS:
                if span.error is None:
                    literal += naive_term_count(span.attrs["expr"])
                elif span.error == "UnsupportedShapeError":
                    fallbacks += 1
                if span.name == "expand.oracle_profile":
                    generated += span.leaves.get("algebra.canonical_reduce", (0,))[0]

        self.words_literal = literal  # exact, for the human-readable report

        def s(name):
            return self_s.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        return {
            "syntax.parse_calls": n("syntax.parse"),
            "syntax.parse_s": s("syntax.parse"),
            "syntax.render_s": s("syntax.render"),
            "permutations.orderings": n("permutations.signed_perm_range"),
            "permutations.enum_s": s("permutations.signed_perm_range"),
            "permutations.parity_calls": n("permutations.parity"),
            "permutations.parity_s": s("permutations.parity"),
            "algebra.reduce_calls": n("algebra.canonical_reduce"),
            "algebra.reduce_symbols": leaf_extra.get("algebra.canonical_reduce", 0),
            "algebra.reduce_s": s("algebra.canonical_reduce"),
            "algebra.reduce_terms_in": terms_in,
            "algebra.classes_out": classes_out,
            "algebra.class_ratio": classes_out / terms_in if terms_in else 0.0,
            "algebra.reduce_terms_s": s("algebra.reduce_terms"),
            "algebra.merge_parts": parts,
            "algebra.merge_s": s("algebra.merge_class_maps"),
            # The fast route's literal counts pass 10**75; a float keeps the
            # JSON number within what a double-precision reader accepts.
            "expand.words_literal": float(literal),
            "expand.words_generated": generated,
            "expand.collapse_ratio": generated / literal if literal else 0.0,
            "expand.oracle_self_s": s("expand.oracle_profile"),
            "expand.supplant_s": s("expand.supplant_all"),
            "expand.fast_generate_s": s("expand.fast_profile"),
            "expand.expand_expr_s": s("expand.expand_expr"),
            "expand.pool_wall_s": pool_wall,
            "expand.worker_cpu_s": worker_cpu,
            "expand.parallel_efficiency": worker_cpu / pool_capacity if pool_capacity else 0.0,
            "expand.fallbacks": fallbacks,
            "identities.solve_s": s("identities.decompose"),
            "identities.check_s": sum(s(name) for name in CHECK_SPANS),
            "cli.self_s": s("cli.main"),
            "trace.spans": len(self.spans),
        }


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime

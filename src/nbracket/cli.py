"""Command-line front end: expand, reduce, verify, bench, read as `COMMANDS` declares them.

Exit codes: 0 success, verified or help, 1 identity violated, 2 expression or input error
(a malformed command line, an unwritable --record log or a closed stdout), 3 term budget
exceeded, 4 unsupported parameter, 5 internal error (a bug; the traceback goes to stderr).
"""

import json
import os
import re
import sys
import traceback
from itertools import count
from time import perf_counter
from types import SimpleNamespace

from .algebra import ANTI_SLOT, is_anti, pattern_str, sort_words, symbol_str
from .expand import (
    DEFAULT_TERM_BUDGET,
    TermBudgetExceeded,
    UnsupportedShapeError,
    bracket_sizes,
    expand_expr,
    fast_profile,
    naive_term_count,
    oracle_profile,
    profile_auto,
    word_count,
)
from .identities import (
    PROFILE_SIGN_CONVENTION,
    CoefficientProfile,
    UnsupportedParameter,
    check_sums,
    check_triple_budgets,
    coeff_json,
    intercalation_profile,
    nested_shape,
    one_fixed_pattern,
    require_printable,
    split_shape,
    verify_bremner,
    verify_decomposition,
    verify_even_gji,
    verify_odd_reduction,
)
from .syntax import DuplicateAntiIndexError, ParseError, parse, render

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PARAM = 4
EXIT_INTERNAL = 5

IDENTITIES = ("even", "odd-reduce", "bremner", "sums", "decomp")

# expand holds every word it prints: 1.0 KiB each in text, 1.2 KiB in JSON (measured)
EXPAND_TERM_BUDGET = 2 * 10**6


class UsageError(ValueError):
    """A malformed command line or option value: an input error."""


def _parse_budget(value: str) -> int:
    n = int(value)
    if n < 1:
        raise UsageError("must be positive")
    return n


def _parse_threads(value: str) -> int:
    return os.cpu_count() or 1 if value == "auto" else _parse_budget(value)


def _parse_roles(pairs):
    roles = {}
    for pair in pairs or ():
        letter, _, role = pair.partition("=")
        ascii_letter = len(letter) == 1 and letter.isascii() and letter.isalpha()
        if not ascii_letter or role not in ("fixed", "anti"):
            raise UsageError(f"role override must look like X=fixed or x=anti, got {pair!r}")
        roles[letter] = role
    return roles or None


def _common(budget=DEFAULT_TERM_BUDGET, formats=("text", "json", "latex")) -> dict:
    return {"--format": (formats, "text", "|".join(formats), "output format"),
            "--budget": (_parse_budget, budget, "N", "cap on generated words")}


# Each command's summary and arguments.  A name without dashes is a positional, read
# in table order; an entry is (converter or choice tuple, default, metavar, help), and
# the converter `list` collects every value of a repeated option.
_THREADS = {"--threads": (_parse_threads, 1, "N", "worker processes, or 'auto'")}
_EXPR = {"expr": (str, None, "EXPR", "an expression such as '[A b1 b2]'"),
         "--role": (list, None, "LETTER=ROLE", "override the case convention, e.g. Z=anti")}
COMMANDS = {
    "expand": ("expand an expression into signed words", {**_EXPR, **_common(EXPAND_TERM_BUDGET)}),
    "reduce": ("expand and reduce to canonical classes", {**_EXPR, **_common(), **_THREADS,
               "--path": (("auto", "oracle", "fast"), "auto", "auto|oracle|fast", "route to run")}),
    "verify": ("verify an identity",
               {"identity": (IDENTITIES, None, "IDENTITY", "|".join(IDENTITIES)),
                "param": (int, None, "PARAM", "bracket size N (even, odd-reduce) or half-order L"),
                **_common(),
                "--record": (str, None, "PATH", "append verified reports to a JSON-lines log")}),
    "bench": ("time the oracle and fast routes on both triple nestings",
              {"L": (int, None, "L", "half-order"), **_common(formats=("text", "json")),
               **_THREADS}),
}
_is_option = re.compile(r"-(?!\d*\Z)").match  # "-" and "-3" are values


def _convert(converter, value: str, name: str):
    try:
        if isinstance(converter, tuple) and value not in converter:
            raise UsageError(f"invalid choice {value!r} (choose from {', '.join(converter)})")
        return value if isinstance(converter, tuple) else converter(value)
    except ValueError as exc:  # int()'s own message names no argument
        message = exc if isinstance(exc, UsageError) else f"invalid value {value!r}"
        raise UsageError(f"{name}: {message}") from None


def _help(command=None) -> str:
    """The program's help, or a command's: its usage line, summary and arguments."""
    if command is None:  # every command's usage line and summary
        return "\n\n".join(["Expand and verify totally antisymmetrized operator brackets.",
                             *(_help(c).partition("\n\n")[0] for c in COMMANDS)])
    about, table = COMMANDS[command]
    rows = [(f"{k} {meta}" if k[0] == "-" else meta,
             help if default is None else f"{help} (default: {default})")
            for k, (_, default, meta, help) in table.items()]
    usage = " ".join(f"[{left}]" if left[0] == "-" else left for left, _ in rows)
    return "\n".join([f"nbracket {command} {usage}", f"    {about}", "", *(
        f"  {left:<28}{right}" for left, right in rows + [("-h, --help", "show this help")])])


def read_argv(argv):
    """The namespace of one command line, or the help text it asks for."""
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        return _help()
    if command not in COMMANDS:
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    if "-h" in rest or "--help" in rest:  # wherever it stands
        return _help(command)
    table = COMMANDS[command][1]
    values = {k.lstrip("-"): v[1] for k, v in table.items() if k[0] == "-"}
    positionals = [k for k in table if k[0] != "-"]
    tokens = iter(rest)
    for token in tokens:
        if not _is_option(token):
            if not positionals:
                raise UsageError(f"{command}: unexpected argument {token!r}")
            name, value = positionals.pop(0), token
        else:
            name, eq, value = token.partition("=")
            if name not in table:
                raise UsageError(f"{command}: unrecognized option {name!r}")
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise UsageError(f"{name}: expected a value")
        conv, dest = table[name][0], name.lstrip("-")
        values[dest] = ([*(values[dest] or ()), value] if conv is list
                        else _convert(conv, value, name))
    if positionals:
        raise UsageError(f"{command}: missing argument {table[positionals[0]][2]}")
    return SimpleNamespace(command=command, **values)


def latex(word) -> str:
    """A word or class pattern in LaTeX: family index i is B_{i}, and a pattern's
    family slots (ANTI_SLOT) are B_{1}, B_{2}, ... from the left."""
    slots = count(1)
    return " ".join(f"B_{{{next(slots) if s == ANTI_SLOT else s}}}" if is_anti(s) else s
                    for s in word)


_json_str = json.encoder.encode_basestring_ascii  # the C encoder where built


def _json(value, indent="\n") -> str:
    """``json.dumps(value, indent=2)`` for str-keyed dicts: ``indent`` selects
    json's pure-Python encoder, so containers, strings and ints are written
    here, the commonest leaves inline, and other scalars by json.dumps."""
    if isinstance(value, str):
        return _json_str(value)
    if value.__class__ is int:
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_json_str(k) + ": " + (_json_str(v) if v.__class__ is str else
                                        int.__repr__(v) if v.__class__ is int else _json(v, inner))
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_str(v) if v.__class__ is str else
                 int.__repr__(v) if v.__class__ is int else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return json.dumps(value)


def _signed_series(parts) -> str:
    """Join (coefficient, body) pairs into a +/- separated series."""
    chunks = []
    for coeff, body in parts:
        sign = "-" if coeff < 0 else "+"
        magnitude = -coeff if coeff < 0 else coeff
        term = body if magnitude == 1 else f"{magnitude}\\,{body}"
        chunks.append(f"{sign} {term}" if chunks else (f"-{term}" if sign == "-" else term))
    return " ".join(chunks) if chunks else "0"


def cmd_expand(args) -> int:
    expr = parse(args.expr, roles=_parse_roles(args.role))
    element = expand_expr(expr, budget=args.budget)
    words = element.words_in_order()
    coeffs = list(map(dict(element.items()).__getitem__, words))
    if args.format == "latex":
        print(_signed_series(zip(coeffs, map(latex, words))))
        return EXIT_OK
    names = {s: symbol_str(s) for s in set().union(*words)}  # each symbol's text once
    texts = [" ".join(map(names.__getitem__, w)) if w else "1" for w in words]
    if args.format == "json":
        payload = {
            "expr": render(expr),
            "terms": [{"coefficient": coeff_json(c), "word": t} for c, t in zip(coeffs, texts)],
            "count": len(words),
        }
        print(_json(payload))
    else:
        print("\n".join(f"{c:+d} {t}" for c, t in zip(coeffs, texts)) or "0")
    return EXIT_OK


def cmd_reduce(args) -> int:
    expr = parse(args.expr, roles=_parse_roles(args.role))
    # the word count bounds every coefficient, since each word counts +1 or -1
    sizes = bracket_sizes(expr)
    require_printable(sizes, "the word count")
    classes, used_path = profile_auto(expr, args.budget, args.threads, args.path)
    ordered = sort_words(classes)
    profile = intercalation_profile(classes)
    if args.format == "json":
        payload = {
            "expr": render(expr),
            "path": used_path,
            "classes": [
                {"pattern": pattern_str(p), "coefficient": coeff_json(classes[p])}
                for p in ordered
            ],
            "profile": profile,
            "profile_sign": PROFILE_SIGN_CONVENTION,
            "terms": word_count(sizes),
        }
        print(_json(payload))
    elif args.format == "latex":
        print(_signed_series((classes[p], latex(p)) for p in ordered))
    else:
        if not ordered:
            print("0")
        for p in ordered:
            print(f"{classes[p]:+d} {pattern_str(p)}")
        if profile is not None:
            print(f"profile m_n: {profile} with class coefficient (-1)^n m_n")
    return EXIT_OK


def _run_identity(identity: str, param: int, budget: int):
    if identity == "sums":
        return check_sums(param)
    verifier = {"even": verify_even_gji, "odd-reduce": verify_odd_reduction,
                "bremner": verify_bremner, "decomp": verify_decomposition}[identity]
    return verifier(param, budget=budget)


def cmd_verify(args) -> int:
    report = _run_identity(args.identity, args.param, args.budget)
    doc = report.to_json_dict()
    if args.format == "json":
        print(_json(doc))
    elif args.format == "latex":
        if report.profile:
            profile = CoefficientProfile(report.params["L"], tuple(report.profile))
            print(_signed_series(
                (profile.signed(n), latex(one_fixed_pattern(n, profile.width)))
                for n in range(profile.width)))
        else:
            print(f"% {report.identity} {report.params}: {report.status}")
    else:
        summary = f"{report.identity} {report.params}: {report.status}"
        if report.details:
            notes = ", ".join(f"{k}={v}" for k, v in report.details.items() if v is not None)
            if notes:
                summary += f" ({notes})"
        print(summary)
        if report.profile is not None:
            print(f"profile m_n: {report.profile}")
        if report.witness is not None:
            print(f"witness: {report.witness}")
    if args.record and report.verified:
        try:
            with open(args.record, "a", encoding="utf-8") as log:
                log.write(json.dumps(doc) + "\n")
        except OSError as exc:
            print(f"input error: cannot append to --record log: {exc}", file=sys.stderr)
            return EXIT_INPUT
    return EXIT_OK if report.verified else EXIT_VIOLATED


def _bench_rows(L: int, budget: int, threads: int):
    rows = []
    for name, expr in (("split", split_shape(L)), ("nested", nested_shape(L))):
        naive = naive_term_count(expr)
        start = perf_counter()
        classes = fast_profile(expr, budget=budget)
        fast_s = perf_counter() - start
        rows.append({
            "shape": name, "path": "fast", "words": naive,
            "elapsed_ms": fast_s * 1e3, "classes": len(classes),
            "note": None,
        })
        if naive > budget:
            rows.append({
                "shape": name, "path": "oracle", "words": naive,
                "elapsed_ms": None, "classes": None,
                "note": f"skipped: {naive} words exceed budget {budget}",
            })
            continue
        start = perf_counter()
        serial = oracle_profile(expr, budget=budget, jobs=1)
        serial_s = perf_counter() - start
        note = f"{int(naive / serial_s)} words/s" if serial_s else None
        rows.append({
            "shape": name, "path": "oracle", "words": naive,
            "elapsed_ms": serial_s * 1e3, "classes": len(serial), "note": note,
        })
        if threads > 1:
            start = perf_counter()
            oracle_profile(expr, budget=budget, jobs=threads)
            parallel_s = perf_counter() - start
            speedup = serial_s / parallel_s if parallel_s else 0.0
            rows.append({
                "shape": name, "path": f"oracle x{threads}", "words": naive,
                "elapsed_ms": parallel_s * 1e3, "classes": len(serial),
                "note": f"speedup {speedup:.2f}x vs single block",
            })
    return rows


def cmd_bench(args) -> int:
    check_triple_budgets(args.L, args.budget)  # before the 6L-atom shapes are built
    rows = _bench_rows(args.L, args.budget, args.threads)
    if args.format == "json":
        print(_json({"L": args.L, "rows": rows}))
        return EXIT_OK
    header = f"{'shape':<8}{'path':<12}{'words':>14}{'ms':>12}{'classes':>9}  note"
    print(header)
    for row in rows:
        ms = "-" if row["elapsed_ms"] is None else f"{row['elapsed_ms']:.1f}"
        classes = "-" if row["classes"] is None else str(row["classes"])
        print(f"{row['shape']:<8}{row['path']:<12}{row['words']:>14}{ms:>12}"
              f"{classes:>9}  {row['note'] or ''}".rstrip())
    return EXIT_OK


def main(argv=None) -> int:
    try:
        try:
            args = read_argv(sys.argv[1:] if argv is None else argv)
            if isinstance(args, str):
                print(args)
                return EXIT_OK
            # looked up per call, so a patched handler runs
            handler = {"expand": cmd_expand, "reduce": cmd_reduce,
                       "verify": cmd_verify, "bench": cmd_bench}[args.command]
            return handler(args)
        finally:  # a closed stdout surfaces here, under --help too
            sys.stdout.flush()
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DuplicateAntiIndexError, UsageError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TermBudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UnsupportedParameter, UnsupportedShapeError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except BrokenPipeError as exc:
        print(f"output error: cannot write to stdout: {exc}", file=sys.stderr)
        # the unwritten report then flushes into devnull when the interpreter exits
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except Exception:  # a bug, never reported as 1, "identity violated"
        print("internal error:", traceback.format_exc(), file=sys.stderr, end="")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

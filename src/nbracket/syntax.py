"""Bracket-notation expressions: AST, parser, and ascii renderer.

Grammar (whitespace, as str.isspace() defines it, ignored everywhere):

    expr    :=  atom  |  '[' body ']'  |  '(' body ')'
    body    :=  groups separated by optional commas, each group one or more exprs
    atom    :=  ASCII uppercase letter                (fixed generator)
             |  ASCII lowercase letter [index >= 1]   (antisymmetrized family)
    index   :=  decimal digits as int() reads them (str.isdecimal()), at most
                sys.get_int_max_str_digits() of them

Square brackets build an N-bracket, parentheses an ordered product.  With no
commas present, juxtaposed items are separate entries ("[abc]" is a
3-bracket); when commas appear, each comma group is one entry and juxtaposed
atoms inside a group form a product ("[AD,B,C]" means "[(AD)BC]").

Bare lowercase letters receive family indices in order of first appearance,
skipping any indices used explicitly, so "[bcd]" means "[b1 b2 b3]".  The
renderer writes family members as ``b<index>``, so parse(render(x)) == x under
the default roles when every fixed symbol is uppercase.  Role overrides break
that: with b fixed, "[b c]" renders as "[b b1]", which no roles parse back.
Nesting deeper than ``MAX_DEPTH`` brackets and parentheses is a ParseError.
"""

import re
from collections import Counter
from dataclasses import dataclass
from itertools import count, filterfalse

from .algebra import symbol_str

# Deepest nesting of brackets and parentheses the parser accepts.  The
# expanders, counters, walkers and the renderer recurse once or twice per level,
# so this keeps them all well inside the default recursion limit of 1000.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Malformed input; ``offset`` is the character index of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DuplicateAntiIndexError(ValueError):
    """A family index occurs more than once where distinctness is required."""


@dataclass(frozen=True)
class Atom:
    symbol: int | str


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")


@dataclass(frozen=True)
class Bracket:
    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValueError("bracket needs at least one entry")


BracketExpr = Atom | Product | Bracket


# ---------------------------------------------------------------------------
# parsing


# A bracket, parenthesis or comma; an ASCII letter and its digits; or any other
# character str.isspace() rejects, as \S does.  finditer steps over whitespace.
_TOKEN = re.compile(r"([][(),])|([A-Za-z])(\d*)|(\S)")


class _Parser:
    """Tokens are (kind, value, offset): punctuation, ("atom", Atom), ("bare",
    family letter), ("indexed", Atom of a fixed letter written with digits), or
    the end (None, None, len(text)); ``primary`` reads them left to right."""

    def __init__(self, text, roles):
        roles = roles or {}
        for letter, role in roles.items():
            if role not in ("fixed", "anti"):
                raise ValueError(f"role for {letter!r} must be 'fixed' or 'anti', got {role!r}")
        self.tokens = tokens = []
        explicit = set()
        bad = None  # the first bad index waits until no character is unexpected
        for match in _TOKEN.finditer(text):
            punct, letter, digits, other = match.groups()
            offset = match.start()
            if punct:
                tokens.append((punct, None, offset))
            elif other:
                raise ParseError(f"unexpected character {other!r}", offset)
            elif roles.get(letter, "fixed" if letter.isupper() else "anti") == "fixed":
                tokens.append(("indexed" if digits else "atom", Atom(letter), offset))
            elif not digits:
                tokens.append(("bare", letter, offset))
            else:
                try:
                    index = int(digits)
                except ValueError:  # more digits than int() reads
                    bad = bad or ParseError(f"family index too long: {len(digits)} digits", offset)
                    continue
                if index < 1:
                    bad = bad or ParseError(f"family index must be >= 1, got {match[0]}", offset)
                explicit.add(index)
                tokens.append(("atom", Atom(index), offset))
        if bad:
            raise bad
        tokens.append((None, None, len(text)))
        self.pos, self.bare = 0, {}
        # "[b2 a c]": bare letters take the lowest indices no explicit one reserves
        self.free = filterfalse(explicit.__contains__, count(1))

    def primary(self, depth=0):
        kind, value, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "atom":
            return value
        if kind == "bare":  # numbered on first appearance, which is text order
            if value not in self.bare:
                self.bare[value] = Atom(next(self.free))
            return self.bare[value]
        if kind == "indexed":
            raise ParseError(f"fixed symbol {value.symbol!r} takes no index", offset)
        if kind in ("[", "(") and depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", offset)
        if kind == "[":
            return Bracket(tuple(self.body("]", offset, depth + 1)))
        if kind == "(":
            return Product(tuple(self.body(")", offset, depth + 1)))
        if kind is None:
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected {kind!r}", offset)

    def body(self, closer, open_offset, depth):
        groups = [[]]
        while True:
            kind, _, offset = self.tokens[self.pos]
            if kind == closer:
                break
            if kind is None:
                raise ParseError(f"unclosed {'bracket' if closer == ']' else 'parenthesis'}", open_offset)
            if kind in "])":
                raise ParseError(f"mismatched {kind!r}", offset)
            if kind == ",":
                if not groups[-1]:
                    raise ParseError("empty entry before comma", offset)
                groups.append([])
                self.pos += 1
            else:
                groups[-1].append(self.primary(depth))
        self.pos += 1
        if len(groups) > 1:  # comma groups: juxtaposed items form a product
            if not groups[-1]:
                raise ParseError("empty entry after comma", offset)
            return [g[0] if len(g) == 1 else Product(tuple(g)) for g in groups]
        if not groups[0]:
            raise ParseError(f"empty {'bracket' if closer == ']' else 'parentheses'}", open_offset)
        return groups[0]


def parse(text, roles=None):
    """Parse bracket notation into a BracketExpr.

    ``roles`` optionally overrides the case convention per letter, mapping a
    letter to "fixed" or "anti"; any other role is a ValueError, whether or
    not its letter occurs.
    """
    parser = _Parser(text, roles)
    expr = parser.primary()
    kind, _, offset = parser.tokens[parser.pos]
    if kind is not None:
        raise ParseError("trailing input after expression", offset)
    return expr


# ---------------------------------------------------------------------------
# rendering


def render(expr) -> str:
    """Serialize as ascii, which re-parses to an equal AST if fixed symbols are uppercase."""
    if isinstance(expr, Atom):
        return symbol_str(expr.symbol)
    if isinstance(expr, Product):
        return "(" + "".join(render(f) for f in expr.factors) + ")"
    if isinstance(expr, Bracket):
        return "[" + " ".join(render(e) for e in expr.entries) + "]"
    raise TypeError(f"not a bracket expression: {expr!r}")


# ---------------------------------------------------------------------------
# structure helpers


def anti_indices(expr):
    """Family indices in occurrence order (repeats included)."""
    found = []
    _add_anti_indices((expr,), found)
    return found


def _add_anti_indices(nodes, found):  # one list for the whole walk, no generator per level
    for node in nodes:
        if isinstance(node, Atom):
            if isinstance(node.symbol, int):  # is_anti, inline in the loop
                found.append(node.symbol)
        elif isinstance(node, (Product, Bracket)):
            _add_anti_indices(node.factors if isinstance(node, Product) else node.entries, found)
        else:
            raise TypeError(f"not a bracket expression: {node!r}")


def validate_unique_anti(expr):
    """Require every family index to occur exactly once in the expression."""
    indices = anti_indices(expr)
    if len(set(indices)) < len(indices):
        listed = ", ".join(f"b{i}" for i, k in sorted(Counter(indices).items()) if k > 1)
        raise DuplicateAntiIndexError(f"family indices repeat in expression: {listed}")

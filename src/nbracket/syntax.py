"""Bracket-notation expressions: AST, parser, and ascii renderer.

Grammar (whitespace ignored everywhere):

    expr    :=  atom  |  '[' body ']'  |  '(' body ')'
    body    :=  groups separated by optional commas, each group one or more exprs
    atom    :=  uppercase letter                      (fixed generator)
             |  lowercase letter [decimal index >= 1] (antisymmetrized family)

Square brackets build an N-bracket, parentheses an ordered product.  With no
commas present, juxtaposed items are separate entries ("[abc]" is a
3-bracket); when commas appear, each comma group is one entry and juxtaposed
atoms inside a group form a product ("[AD,B,C]" means "[(AD)BC]").

Bare lowercase letters receive family indices in order of first appearance,
skipping any indices used explicitly, so "[bcd]" means "[b1 b2 b3]".  The
renderer always writes family members as ``b<index>``, which makes
parse(render(x)) the identity.  Nesting deeper than ``MAX_DEPTH`` brackets
and parentheses is a ParseError.
"""

from dataclasses import dataclass

from .algebra import is_anti, symbol_str

# Deepest nesting of brackets and parentheses the parser accepts.  The
# expanders, counters, walkers and the renderer recurse once or twice per level,
# so this keeps them all well inside the default recursion limit of 1000.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Malformed input; ``offset`` is the byte position of the problem."""

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


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "[](),":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch.isascii() and ch.isalpha():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("atom", (ch, text[i + 1:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def _letter_role(letter, roles):
    if roles and letter in roles:
        role = roles[letter]
        if role not in ("fixed", "anti"):
            raise ValueError(f"role for {letter!r} must be 'fixed' or 'anti', got {role!r}")
        return role
    return "fixed" if letter.isupper() else "anti"


def _bind_bare_letters(tokens, roles):
    """Assign indices to bare family letters by first appearance.

    Explicitly written indices are reserved first, so "[b2 a c]" gives a and
    c the indices 1 and 3.
    """
    explicit = set()
    for kind, value, offset in tokens:
        if kind != "atom":
            continue
        letter, digits = value
        if digits and _letter_role(letter, roles) == "anti":
            index = int(digits)
            if index < 1:
                raise ParseError(f"family index must be >= 1, got {letter}{digits}", offset)
            explicit.add(index)
    assignment = {}
    next_index = 1
    for kind, value, _ in tokens:
        if kind != "atom":
            continue
        letter, digits = value
        if digits or _letter_role(letter, roles) != "anti" or letter in assignment:
            continue
        while next_index in explicit:
            next_index += 1
        assignment[letter] = next_index
        next_index += 1
    return assignment


class _Parser:
    def __init__(self, text, roles):
        self.text = text
        self.roles = roles
        self.tokens = _tokenize(text)
        self.bare = _bind_bare_letters(self.tokens, roles)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        token = self.peek()
        self.pos += 1
        return token

    def parse(self):
        expr = self.primary()
        kind, _, offset = self.peek()
        if kind is not None:
            raise ParseError("trailing input after expression", offset)
        return expr

    def primary(self, depth=0):
        kind, value, offset = self.take()
        if kind == "atom":
            return Atom(self.atom_symbol(value, offset))
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
        saw_comma = False
        while True:
            kind, _, offset = self.peek()
            if kind is None:
                raise ParseError(f"unclosed {'bracket' if closer == ']' else 'parenthesis'}", open_offset)
            if kind == closer:
                self.take()
                break
            if kind in "])":
                raise ParseError(f"mismatched {kind!r}", offset)
            if kind == ",":
                if not groups[-1]:
                    raise ParseError("empty entry before comma", offset)
                saw_comma = True
                groups.append([])
                self.take()
                continue
            groups[-1].append(self.primary(depth))
        if saw_comma:
            if not groups[-1]:
                raise ParseError("empty entry after comma", self.tokens[self.pos - 1][2])
            return [g[0] if len(g) == 1 else Product(tuple(g)) for g in groups]
        if not groups[0]:
            raise ParseError(f"empty {'bracket' if closer == ']' else 'parentheses'}", open_offset)
        return groups[0]

    def atom_symbol(self, value, offset):
        letter, digits = value
        if _letter_role(letter, self.roles) == "fixed":
            if digits:
                raise ParseError(f"fixed symbol {letter!r} takes no index", offset)
            return letter
        # _bind_bare_letters has already rejected indices below 1
        return int(digits) if digits else self.bare[letter]


def parse(text, roles=None):
    """Parse bracket notation into a BracketExpr.

    ``roles`` optionally overrides the case convention per letter, mapping a
    letter to "fixed" or "anti".
    """
    return _Parser(text, roles).parse()


# ---------------------------------------------------------------------------
# rendering


def render(expr) -> str:
    """Serialize an expression as ascii that re-parses to an equal AST."""
    if isinstance(expr, Atom):
        return symbol_str(expr.symbol)
    if isinstance(expr, Product):
        return "(" + "".join(render(f) for f in expr.factors) + ")"
    if isinstance(expr, Bracket):
        return "[" + " ".join(render(e) for e in expr.entries) + "]"
    raise TypeError(f"not a bracket expression: {expr!r}")


# ---------------------------------------------------------------------------
# structure helpers


def walk_atoms(expr):
    if isinstance(expr, Atom):
        yield expr.symbol
    elif isinstance(expr, (Product, Bracket)):
        for kid in expr.factors if isinstance(expr, Product) else expr.entries:
            if isinstance(kid, Atom):  # leaves are read here, not in a generator each
                yield kid.symbol
            else:
                yield from walk_atoms(kid)
    else:
        raise TypeError(f"not a bracket expression: {expr!r}")


def anti_indices(expr):
    """Family indices in occurrence order (repeats included)."""
    return [s for s in walk_atoms(expr) if is_anti(s)]


def validate_unique_anti(expr):
    """Require every family index to occur exactly once in the expression."""
    seen = set()
    duplicates = set()
    for index in anti_indices(expr):
        if index in seen:
            duplicates.add(index)
        seen.add(index)
    if duplicates:
        listed = ", ".join(f"b{i}" for i in sorted(duplicates))
        raise DuplicateAntiIndexError(f"family indices repeat in expression: {listed}")

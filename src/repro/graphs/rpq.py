"""Regular path queries: regex-over-edge-labels, compiled to NFAs.

An RPQ selects node pairs connected by a path whose *label word* lies
in a regular language.  The surface syntax is the usual regex algebra
over label identifiers::

    a (b | c)* d        concatenation by juxtaposition
    (ab | cd)+ e?       '*' / '+' / '?' postfix, '|' union, '()' grouping
    ()                  the empty word (epsilon)

Labels are identifiers (``[A-Za-z_][A-Za-z0-9_]*``), so multi-letter
labels like ``knows`` work; juxtaposition needs whitespace or a
parenthesis boundary between two labels (``ab`` is one label).

Compilation uses the Glushkov (position) construction — nullable /
first / last / follow over the AST — which yields an ε-free NFA, the
only kind :class:`repro.automata.nfa.NFA` models.  The independent
reference matcher :meth:`RPQExpression.matches` implements the regex
semantics directly on the AST (span sets, no automata); the Hypothesis
property tier cross-checks the two implementations against each other.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from repro.automata.nfa import NFA
from repro.errors import ParseError

__all__ = [
    "MAX_RPQ_NESTING",
    "Concat",
    "Epsilon",
    "Label",
    "Opt",
    "Plus",
    "RPQExpression",
    "RPQQuery",
    "Star",
    "Union",
    "parse_rpq",
    "rpq_to_nfa",
]


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class Label:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Epsilon:
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True, slots=True)
class Concat:
    parts: tuple

    def __str__(self) -> str:
        return " ".join(map(_wrap, self.parts))


@dataclass(frozen=True, slots=True)
class Union:
    parts: tuple

    def __str__(self) -> str:
        return " | ".join(map(str, self.parts))


@dataclass(frozen=True, slots=True)
class Star:
    child: object

    def __str__(self) -> str:
        return f"{_wrap(self.child)}*"


@dataclass(frozen=True, slots=True)
class Plus:
    child: object

    def __str__(self) -> str:
        return f"{_wrap(self.child)}+"


@dataclass(frozen=True, slots=True)
class Opt:
    child: object

    def __str__(self) -> str:
        return f"{_wrap(self.child)}?"


def _wrap(node) -> str:
    """Parenthesise non-atomic operands so rendering round-trips."""
    if isinstance(node, (Union, Concat)):
        return "(" + str(node) + ")"
    return str(node)


# ---------------------------------------------------------------------------
# Parser (recursive descent over a token stream)

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[()|*+?])")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            remainder = text[position:].lstrip()
            if not remainder:
                break
            raise ParseError(
                f"bad RPQ syntax at {remainder[:10]!r} in {text!r}"
            )
        tokens.append(match.group(1))
        position = match.end()
    return tokens


#: The deepest nesting a regex may have; each group, union,
#: concatenation and postfix operator is one level.  The parser and
#: every AST walk (rendering, ``repr``, ``==``, ``hash``, the Glushkov
#: sets) recurse a few frames per level, so this keeps them well inside
#: the interpreter's recursion limit.
MAX_RPQ_NESTING = 100


class _Parser:
    """Each parse method returns ``(node, depth)``: the node and its
    nesting depth in groups, unions, concatenations and postfix
    operators."""

    def __init__(self, tokens: list[str], text: str):
        self.tokens = tokens
        self.index = 0
        self.text = text
        self.groups = 0  # groups open around the current token

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of RPQ {self.text!r}")
        self.index += 1
        return token

    def nested(self, depth: int) -> int:
        if depth > MAX_RPQ_NESTING:
            raise ParseError(
                f"RPQ nests deeper than {MAX_RPQ_NESTING} levels of "
                f"groups, unions, concatenations and postfix operators"
            )
        return depth

    def parse(self):
        node, _depth = self.union()
        if self.peek() is not None:
            raise ParseError(
                f"trailing {self.peek()!r} in RPQ {self.text!r}"
            )
        return node

    def union(self):
        node, depth = self.concat()
        parts = [node]
        while self.peek() == "|":
            self.take()
            node, part_depth = self.concat()
            parts.append(node)
            depth = max(depth, part_depth)
        if len(parts) == 1:
            return parts[0], depth
        return Union(tuple(parts)), self.nested(depth + 1)

    def concat(self):
        parts = []
        depth = 0
        while self.peek() is not None and self.peek() not in ("|", ")"):
            node, part_depth = self.postfix()
            parts.append(node)
            depth = max(depth, part_depth)
        if not parts:
            return Epsilon(), 0
        if len(parts) == 1:
            return parts[0], depth
        return Concat(tuple(parts)), self.nested(depth + 1)

    def postfix(self):
        node, depth = self.atom()
        while self.peek() in ("*", "+", "?"):
            operator = self.take()
            depth = self.nested(depth + 1)
            if operator == "*":
                node = Star(node)
            elif operator == "+":
                node = Plus(node)
            else:
                node = Opt(node)
        return node, depth

    def atom(self):
        token = self.take()
        if token == "(":
            self.groups = self.nested(self.groups + 1)
            node, depth = self.union()
            if self.peek() != ")":
                raise ParseError(f"unbalanced '(' in RPQ {self.text!r}")
            self.take()
            self.groups -= 1
            return node, self.nested(depth + 1)
        if token in (")", "|", "*", "+", "?"):
            raise ParseError(
                f"unexpected {token!r} in RPQ {self.text!r}"
            )
        return Label(token), 0


def parse_rpq(text: str):
    """Parse an RPQ expression into its AST.

    Raises :class:`~repro.errors.ParseError` on malformed text and on
    nesting deeper than :data:`MAX_RPQ_NESTING`.

    >>> parse_rpq("a (b|c)* d")
    Concat(parts=(Label(name='a'), Star(child=Union(parts=(Label(name='b'), Label(name='c')))), Label(name='d')))
    """
    if not isinstance(text, str):
        raise ParseError(f"RPQ must be a string, got {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty RPQ expression")
    return _Parser(tokens, text).parse()


# ---------------------------------------------------------------------------
# Glushkov construction


def _nullable(node) -> bool:
    if isinstance(node, Epsilon):
        return True
    if isinstance(node, Label):
        return False
    if isinstance(node, Concat):
        return all(_nullable(p) for p in node.parts)
    if isinstance(node, Union):
        return any(_nullable(p) for p in node.parts)
    if isinstance(node, (Star, Opt)):
        return True
    if isinstance(node, Plus):
        return _nullable(node.child)
    raise TypeError(f"not an RPQ node: {node!r}")


def _positions(node, counter: list[int], names: list[str]):
    """Rebuild the AST with every Label given a distinct position id."""
    if isinstance(node, Label):
        position = counter[0]
        counter[0] += 1
        names.append(node.name)
        return ("pos", position, node.name)
    if isinstance(node, Epsilon):
        return node
    if isinstance(node, Concat):
        return Concat(tuple(_positions(p, counter, names) for p in node.parts))
    if isinstance(node, Union):
        return Union(tuple(_positions(p, counter, names) for p in node.parts))
    if isinstance(node, Star):
        return Star(_positions(node.child, counter, names))
    if isinstance(node, Plus):
        return Plus(_positions(node.child, counter, names))
    if isinstance(node, Opt):
        return Opt(_positions(node.child, counter, names))
    raise TypeError(f"not an RPQ node: {node!r}")


def _glushkov_sets(node):
    """(nullable, first, last, follow) over the positioned AST."""
    if isinstance(node, tuple) and node[0] == "pos":
        position = node[1]
        return False, {position}, {position}, {}
    if isinstance(node, Epsilon):
        return True, set(), set(), {}
    if isinstance(node, Union):
        nullable, first, last, follow = False, set(), set(), {}
        for part in node.parts:
            n, f, l, fo = _glushkov_sets(part)
            nullable = nullable or n
            first |= f
            last |= l
            _merge_follow(follow, fo)
        return nullable, first, last, follow
    if isinstance(node, Concat):
        nullable, first, last, follow = True, set(), set(), {}
        for part in node.parts:
            n, f, l, fo = _glushkov_sets(part)
            _merge_follow(follow, fo)
            for position in last:
                follow.setdefault(position, set()).update(f)
            if nullable:
                first |= f
            if n:
                last |= l
            else:
                last = set(l)
            nullable = nullable and n
        return nullable, first, last, follow
    if isinstance(node, (Star, Plus, Opt)):
        n, f, l, fo = _glushkov_sets(node.child)
        follow = dict()
        _merge_follow(follow, fo)
        if isinstance(node, (Star, Plus)):
            for position in l:
                follow.setdefault(position, set()).update(f)
        nullable = True if isinstance(node, (Star, Opt)) else n
        return nullable, set(f), set(l), follow
    raise TypeError(f"not an RPQ node: {node!r}")


def _merge_follow(into: dict, update: dict) -> None:
    for position, successors in update.items():
        into.setdefault(position, set()).update(successors)


def rpq_to_nfa(node) -> NFA:
    """Compile an RPQ AST to an ε-free NFA via Glushkov positions.

    States are ``0`` (initial) and position ids ``1..n`` shifted by one;
    the NFA reads label names as symbols.  The automaton is trimmed so
    dead alternatives never inflate the product construction.
    """
    counter = [0]
    names: list[str] = []
    positioned = _positions(node, counter, names)
    nullable, first, last, follow = _glushkov_sets(positioned)
    transitions = []
    for position in first:
        transitions.append((0, names[position], position + 1))
    for position, successors in follow.items():
        for successor in successors:
            transitions.append(
                (position + 1, names[successor], successor + 1)
            )
    accepting = {position + 1 for position in last}
    if nullable:
        accepting.add(0)
    return NFA(transitions, initial=[0], accepting=accepting).trimmed()


# ---------------------------------------------------------------------------
# Reference matcher (independent of the Glushkov code path)


@lru_cache(maxsize=None)
def _spans(node, word: tuple, start: int) -> frozenset:
    """End indices of matches of ``node`` starting at ``start``."""
    if isinstance(node, Epsilon):
        return frozenset({start})
    if isinstance(node, Label):
        if start < len(word) and word[start] == node.name:
            return frozenset({start + 1})
        return frozenset()
    if isinstance(node, Union):
        out: set[int] = set()
        for part in node.parts:
            out |= _spans(part, word, start)
        return frozenset(out)
    if isinstance(node, Concat):
        current = {start}
        for part in node.parts:
            nxt: set[int] = set()
            for position in current:
                nxt |= _spans(part, word, position)
            current = nxt
            if not current:
                break
        return frozenset(current)
    if isinstance(node, Opt):
        return _spans(node.child, word, start) | {start}
    if isinstance(node, (Star, Plus)):
        reached = {start}
        frontier = {start}
        while frontier:
            nxt: set[int] = set()
            for position in frontier:
                for end in _spans(node.child, word, position):
                    if end not in reached and end > position:
                        nxt.add(end)
            reached |= nxt
            frontier = nxt
        if isinstance(node, Star) or _nullable(node.child):
            return frozenset(reached)
        out: set[int] = set()
        for position in reached:
            out |= _spans(node.child, word, position)
        return frozenset(out)
    raise TypeError(f"not an RPQ node: {node!r}")


class RPQExpression:
    """A parsed RPQ expression: AST + compiled NFA + reference matcher."""

    __slots__ = ("text", "ast", "__dict__")

    def __init__(self, text: str):
        self.text = text
        self.ast = parse_rpq(text)

    @cached_property
    def nfa(self) -> NFA:
        return rpq_to_nfa(self.ast)

    @cached_property
    def labels(self) -> frozenset[str]:
        out: set[str] = set()

        def walk(node):
            if isinstance(node, Label):
                out.add(node.name)
            elif isinstance(node, (Concat, Union)):
                for part in node.parts:
                    walk(part)
            elif isinstance(node, (Star, Plus, Opt)):
                walk(node.child)

        walk(self.ast)
        return frozenset(out)

    @property
    def nullable(self) -> bool:
        """Whether the empty word matches (so source==target holds)."""
        return _nullable(self.ast)

    def matches(self, word: Sequence[str]) -> bool:
        """Regex semantics on the AST — no automata involved."""
        word = tuple(word)
        return len(word) in _spans(self.ast, word, 0)

    @cached_property
    def canonical(self) -> str:
        """The AST rendered back to canonical surface syntax."""
        return str(self.ast)

    def __str__(self) -> str:
        return self.canonical

    def __repr__(self) -> str:
        return f"RPQExpression({self.text!r})"


@dataclass(frozen=True)
class RPQQuery:
    """An RPQ evaluation request: expression + endpoints.

    This is the batch/journal-facing bundle — its ``cache_token`` plays
    the role ``ConjunctiveQuery.cache_token`` plays for relational
    items, so RPQ batch items journal and fingerprint identically.
    """

    expression: str
    source: str
    target: str

    @cached_property
    def rpq(self) -> RPQExpression:
        return RPQExpression(self.expression)

    @cached_property
    def cache_token(self) -> str:
        canonical = (
            f"rpq\x1f{self.rpq.canonical}\x1f{self.source!r}"
            f"\x1f{self.target!r}"
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]

    def __str__(self) -> str:
        return f"{self.source} -[{self.expression}]-> {self.target}"

"""A small textual syntax for Boolean conjunctive queries.

The grammar accepted by :func:`parse_query` is the usual rule-style
notation used throughout the probabilistic-database literature::

    query  := [head ":-"] body
    head   := identifier [ "(" ")" ]
    body   := atom ("," atom)*
    atom   := identifier "(" var ("," var)* ")"
    var    := identifier

Query text is capped at :data:`MAX_QUERY_ATOMS` atoms: parsing rejects
a longer body with a :class:`~repro.errors.ParseError`, so no later
stage (the lifted classifier's containment search, the decomposition,
the reduction) is handed a query far past anything the engine is built
to evaluate.

Examples
--------
>>> q = parse_query("Q :- R(x, y), S(y, z)")
>>> len(q)
2
>>> parse_query("R(x,y), S(y,z)") == q
True
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.queries.atoms import Atom, Variable
from repro.queries.cq import ConjunctiveQuery

__all__ = ["MAX_QUERY_ATOMS", "parse_query"]

#: The most atoms query text may have: 8× the largest query the
#: repository builds (``path_query(32)``), far below the depth at which
#: any stage's recursion gives out.
MAX_QUERY_ATOMS = 256

# Identifiers are Unicode-aware: a letter or underscore followed by
# word characters or primes (so "Straße", "x'" and "北京" all work).
_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[^\W\d][\w']*)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,)"
    r"|(?P<rule>:-))",
    re.UNICODE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[tuple[str, str]], source: str):
        self._tokens = tokens
        self._index = 0
        self._source = source

    def _peek(self) -> tuple[str, str] | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of query in {self._source!r}")
        self._index += 1
        return token

    def _expect(self, kind: str) -> str:
        token = self._advance()
        if token[0] != kind:
            raise ParseError(
                f"expected {kind} but found {token[1]!r} in {self._source!r}"
            )
        return token[1]

    def parse(self) -> ConjunctiveQuery:
        self._skip_head_if_present()
        atoms = [self._parse_atom()]
        while True:
            token = self._peek()
            if token is None:
                break
            if token[0] != "comma":
                raise ParseError(
                    f"expected ',' between atoms, found {token[1]!r} "
                    f"in {self._source!r}"
                )
            self._advance()
            if len(atoms) == MAX_QUERY_ATOMS:
                raise ParseError(
                    f"query has more than {MAX_QUERY_ATOMS} atoms"
                )
            atoms.append(self._parse_atom())
        return ConjunctiveQuery(atoms)

    def _skip_head_if_present(self) -> None:
        # A head is "ident :-" or "ident ( ) :-".  Look ahead for the
        # ":-" token to distinguish a head from the first body atom.
        saved = self._index
        token = self._peek()
        if token is None or token[0] != "ident":
            return
        self._advance()
        nxt = self._peek()
        if nxt is not None and nxt[0] == "lparen":
            after = self._tokens[self._index + 1: self._index + 2]
            if after and after[0][0] == "rparen":
                self._advance()  # (
                self._advance()  # )
                nxt = self._peek()
            else:
                # "ident (" followed by arguments: this is a body atom.
                self._index = saved
                return
        if nxt is not None and nxt[0] == "rule":
            self._advance()  # consume ":-"
            return
        self._index = saved

    def _parse_atom(self) -> Atom:
        relation = self._expect("ident")
        self._expect("lparen")
        names = [self._expect("ident")]
        while True:
            token = self._advance()
            if token[0] == "rparen":
                break
            if token[0] != "comma":
                raise ParseError(
                    f"expected ',' or ')' in atom {relation!r}, "
                    f"found {token[1]!r}"
                )
            names.append(self._expect("ident"))
        return Atom(relation, tuple(Variable(n) for n in names))


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a Boolean conjunctive query from its textual form.

    Raises
    ------
    ParseError
        If the text does not conform to the grammar.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty query text")
    return _Parser(tokens, text).parse()

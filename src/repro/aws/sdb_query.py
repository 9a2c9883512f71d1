"""SimpleDB query languages (January 2009).

Two front-ends compile to one predicate representation:

* the original bracket **Query** language used by ``Query`` and
  ``QueryWithAttributes`` — the API the paper's architectures call::

      ['type' = 'proc'] intersection ['name' = 'blast']
      ['input' = 'bar:2' or 'input' = 'baz:1']
      not ['type' = 'file'] union ['version' > '0004']

* a **SELECT** subset (comparisons, AND/OR/NOT, parentheses, IN, LIKE
  with a trailing ``%``, BETWEEN, IS [NOT] NULL, ``every()``, LIMIT),
  matching the SELECT primitive §2.2 mentions.

Semantics follow 2009 SimpleDB:

* all values are strings and compare lexicographically — callers must
  zero-pad numbers, which the PASS serializer does for versions;
* a bracket predicate names exactly **one** attribute; ``and`` inside a
  bracket means a single attribute *value* satisfies every comparison
  (enabling range predicates), while cross-attribute conjunction is
  expressed with ``intersection``;
* multi-valued attributes match if *any* value matches (``every()`` in
  SELECT demands all values match);
* set operators ``union`` / ``intersection`` / ``not`` combine predicate
  result sets left-to-right.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import InvalidQueryExpression

#: An item is a mapping from attribute name to a tuple of string values.
ItemAttrs = Mapping[str, Sequence[str]]

#: A compiled predicate: one item's attributes in, include/exclude out.
Matcher = Callable[[ItemAttrs], bool]

_COMPARATORS: dict[str, Callable[[str, str], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "starts-with": str.startswith,
    "does-not-start-with": lambda a, b: not a.startswith(b),
}


def quote_literal(value: str) -> str:
    """Render ``value`` as a quoted string literal for either language.

    Both the bracket Query language and SELECT escape an embedded
    apostrophe by doubling it (``'`` → ``''`` — see the tokenizer's
    string pattern). Every caller that interpolates user-controlled text
    (object paths, program names) into a query must route it through
    here, or a name like ``o'brien`` breaks the expression.
    """
    return "'" + value.replace("'", "''") + "'"


# ---------------------------------------------------------------------------
# Tokenizer (shared by both languages)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')          # 'quoted', '' escapes a quote
      | (?P<op><=|>=|!=|=|<|>)
      | (?P<punct>[\[\](),*])
      | (?P<word>[A-Za-z0-9_.:%$/-]+)
    )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'string' | 'op' | 'punct' | 'word'
    text: str


def tokenize(expression: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(expression):
        match = _TOKEN_RE.match(expression, pos)
        if match is None or match.end() == pos:
            remainder = expression[pos:].strip()
            if not remainder:
                break
            raise InvalidQueryExpression(
                f"cannot tokenize {remainder[:20]!r} in query {expression!r}"
            )
        pos = match.end()
        kind = match.lastgroup or "word"
        text = match.group(kind)
        if kind == "string":
            text = text[1:-1].replace("''", "'")
        tokens.append(Token(kind, text))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token], source: str):
        self._tokens = tokens
        self._source = source
        self._index = 0

    def peek(self) -> Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise InvalidQueryExpression(f"unexpected end of query: {self._source!r}")
        self._index += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.next()
        if token.kind != kind or (text is not None and token.text.lower() != text):
            raise InvalidQueryExpression(
                f"expected {text or kind!r}, got {token.text!r} in {self._source!r}"
            )
        return token

    def accept_word(self, *words: str) -> str | None:
        token = self.peek()
        if token is not None and token.kind == "word" and token.text.lower() in words:
            self._index += 1
            return token.text.lower()
        return None

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._tokens)


# ---------------------------------------------------------------------------
# Predicate AST
# ---------------------------------------------------------------------------

class Node:
    """A query node; ``matches`` decides one item's include/exclude.

    Each node compiles itself to a closure the first time ``matches``
    is read and keeps it (nodes are frozen, so a parsed query can be
    shared and its matcher with it): evaluating an item then does no
    per-comparison operator lookup and enters no generator frame —
    what a scan over a whole replica, or a DynamoDB Scan filter, pays
    per item.
    """

    matches: Matcher


@dataclass(frozen=True)
class Comparison(Node):
    """``attribute op value`` — true if any attribute value satisfies it."""

    attribute: str
    op: str
    value: str
    every: bool = False  # SELECT's every(attr): all values must satisfy

    @cached_property
    def matches(self) -> Matcher:
        attribute, literal, every = self.attribute, self.value, self.every
        if self.op == "=" and not every:
            return lambda attrs: literal in (attrs.get(attribute) or ())
        compare = _COMPARATORS[self.op]

        def matches(attrs: ItemAttrs) -> bool:
            values = attrs.get(attribute)
            if not values:
                return False
            # any(): the first True decides; every(): the first False.
            for value in values:
                if compare(value, literal) is not every:
                    return not every
            return every

        return matches


def _value_test(group: tuple[Comparison, ...]) -> Callable[[str], bool]:
    """One bracket OR-group as a test on a single attribute value."""
    if all(c.op == "=" for c in group):
        return frozenset(c.value for c in group).__contains__
    pairs = [(_COMPARATORS[c.op], c.value) for c in group]

    def test(value: str) -> bool:
        for compare, literal in pairs:
            if compare(value, literal):
                return True
        return False

    return test


@dataclass(frozen=True)
class BracketPredicate(Node):
    """A 2009 ``[...]`` predicate over a single attribute.

    ``conjunctions`` is a list of OR-groups; each OR-group is a list of
    comparisons. The predicate holds if some single attribute value
    satisfies every OR-group (i.e. CNF over one value).
    """

    attribute: str
    conjunctions: tuple[tuple[Comparison, ...], ...]

    @cached_property
    def matches(self) -> Matcher:
        attribute = self.attribute
        tests = [_value_test(group) for group in self.conjunctions]

        def matches(attrs: ItemAttrs) -> bool:
            for value in attrs.get(attribute) or ():
                for test in tests:
                    if not test(value):
                        break
                else:
                    return True
            return False

        return matches


@dataclass(frozen=True)
class Null(Node):
    """``attribute is null`` / ``is not null`` (SELECT only)."""

    attribute: str
    negated: bool

    @cached_property
    def matches(self) -> Matcher:
        attribute, negated = self.attribute, self.negated
        return lambda attrs: bool(attrs.get(attribute)) is negated


@dataclass(frozen=True)
class Not(Node):
    operand: Node

    @cached_property
    def matches(self) -> Matcher:
        operand = self.operand.matches
        return lambda attrs: not operand(attrs)


@dataclass(frozen=True)
class BoolOp(Node):
    """AND/OR (SELECT) or intersection/union (Query), left-associative."""

    op: str  # 'and' | 'or'
    left: Node
    right: Node

    @cached_property
    def matches(self) -> Matcher:
        # A same-operator chain (an IN list is one, 25 deep) flattens to
        # one loop over its operands, left to right.
        operands: list[Matcher] = []
        pending: list[Node] = [self]
        while pending:
            node = pending.pop()
            if isinstance(node, BoolOp) and node.op == self.op:
                pending += (node.right, node.left)
            else:
                operands.append(node.matches)
        decisive = self.op == "or"  # or: first True decides; and: first False

        def matches(attrs: ItemAttrs) -> bool:
            for operand in operands:
                if operand(attrs) is decisive:
                    return decisive
            return not decisive

        return matches


@dataclass(frozen=True)
class MatchAll(Node):
    """The empty query expression: every item matches."""

    def matches(self, attrs: ItemAttrs) -> bool:
        return True


@dataclass(frozen=True)
class CompiledQuery:
    """A parsed query plus its result ordering."""

    predicate: Node
    sort_attribute: str | None = None
    sort_descending: bool = False

    @cached_property
    def matches(self) -> Matcher:
        return self.predicate.matches

    @cached_property
    def pinned(self) -> dict[str, tuple[str, ...]]:
        """:func:`equality_candidates` of the predicate — walked once
        per parsed statement, not once per shard and page. Read-only."""
        return equality_candidates(self.predicate)

    def sort_key(self, name: str, attrs: ItemAttrs) -> tuple:
        if self.sort_attribute is None:
            return (name,)
        values = attrs.get(self.sort_attribute) or ("",)
        return (min(values), name)


def equality_candidates(node: Node) -> dict[str, tuple[str, ...]]:
    """Attributes a predicate pins to an equality value set.

    For each returned ``attribute → values``, *every* item matching the
    predicate has some value of that attribute inside ``values`` — the
    superset guarantee that makes an index on the attribute a sound
    access path (look each value up in the index, then re-apply the full
    predicate to the candidates). SimpleDB's attribute postings and the
    DynamoDB adapter's GSI eligibility both rest on it.
    """
    if isinstance(node, BracketPredicate):
        # CNF over one value: the satisfying value must be in any
        # all-equality OR-group's value set.
        for group in node.conjunctions:
            if group and all(c.op == "=" for c in group):
                return {
                    node.attribute: tuple(dict.fromkeys(c.value for c in group))
                }
        return {}
    if isinstance(node, Comparison):
        if node.op == "=" and not node.every:
            return {node.attribute: (node.value,)}
        return {}
    if isinstance(node, BoolOp):
        left = equality_candidates(node.left)
        right = equality_candidates(node.right)
        if node.op == "and":
            # Either side's restriction is a valid superset filter.
            merged = dict(left)
            merged.update(right)
            return merged
        # OR: only attributes restricted on *both* sides stay pinned.
        return {
            attribute: tuple(dict.fromkeys(left[attribute] + right[attribute]))
            for attribute in left
            if attribute in right
        }
    return {}  # Not / Null / MatchAll pin nothing


# ---------------------------------------------------------------------------
# Query-language parser (bracket syntax)
# ---------------------------------------------------------------------------

#: Distinct statements each parser keeps compiled. A Q3 closure walks a
#: few dozen reference chunks per wave and re-sends each to every shard
#: and page, so a small window already absorbs every repeat.
PARSE_CACHE_SIZE = 256


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_query(expression: str | None) -> CompiledQuery:
    """Parse a 2009 bracket Query expression; ``None``/empty matches all.

    Memoised on the expression text: a scatter query sends the same
    wire string to every shard and every page, and the frozen AST (with
    its compiled matcher) is safe to share.

    >>> q = parse_query("['type' = 'file'] intersection not ['ver' > '2']")
    >>> q.matches({'type': ('file',), 'ver': ('1',)})
    True
    """
    if expression is None or not expression.strip():
        return CompiledQuery(MatchAll())
    stream = _TokenStream(tokenize(expression), expression)
    node = _parse_set_expression(stream)
    sort_attr: str | None = None
    descending = False
    if stream.accept_word("sort"):
        sort_attr = stream.next().text
        direction = stream.accept_word("asc", "desc")
        descending = direction == "desc"
    if not stream.exhausted:
        raise InvalidQueryExpression(
            f"trailing tokens after {stream.peek().text!r} in {expression!r}"
        )
    return CompiledQuery(node, sort_attr, descending)


def _parse_set_expression(stream: _TokenStream) -> Node:
    node = _parse_set_term(stream)
    while True:
        word = stream.accept_word("union", "intersection")
        if word is None:
            return node
        right = _parse_set_term(stream)
        node = BoolOp("or" if word == "union" else "and", node, right)


def _parse_set_term(stream: _TokenStream) -> Node:
    if stream.accept_word("not"):
        return Not(_parse_set_term(stream))
    token = stream.peek()
    if token is not None and token.kind == "punct" and token.text == "(":
        stream.next()
        node = _parse_set_expression(stream)
        closing = stream.next()
        if closing.kind != "punct" or closing.text != ")":
            raise InvalidQueryExpression("expected ')' closing grouped expression")
        return node
    return _parse_bracket(stream)


def _parse_bracket(stream: _TokenStream) -> Node:
    opening = stream.next()
    if opening.kind != "punct" or opening.text != "[":
        raise InvalidQueryExpression(
            f"expected '[' to open a predicate, got {opening.text!r}"
        )
    attribute: str | None = None
    groups: list[tuple[Comparison, ...]] = []
    current_or: list[Comparison] = []
    while True:
        attr_token = stream.next()
        if attr_token.kind not in ("string", "word"):
            raise InvalidQueryExpression(
                f"expected attribute name, got {attr_token.text!r}"
            )
        op_token = stream.next()
        if op_token.kind == "op":
            op = op_token.text
        elif op_token.kind == "word" and op_token.text.lower() in (
            "starts-with",
            "does-not-start-with",
        ):
            op = op_token.text.lower()
        else:
            raise InvalidQueryExpression(f"unknown comparator {op_token.text!r}")
        value_token = stream.next()
        if value_token.kind not in ("string", "word"):
            raise InvalidQueryExpression(
                f"expected comparison value, got {value_token.text!r}"
            )
        if attribute is None:
            attribute = attr_token.text
        elif attribute != attr_token.text:
            raise InvalidQueryExpression(
                "a bracket predicate must reference a single attribute "
                f"(saw {attribute!r} and {attr_token.text!r}); "
                "use 'intersection' across attributes"
            )
        current_or.append(Comparison(attr_token.text, op, value_token.text))
        connective = stream.next()
        if connective.kind == "punct" and connective.text == "]":
            break
        if connective.kind == "word" and connective.text.lower() == "or":
            continue
        if connective.kind == "word" and connective.text.lower() == "and":
            groups.append(tuple(current_or))
            current_or = []
            continue
        raise InvalidQueryExpression(
            f"expected 'and', 'or' or ']' in predicate, got {connective.text!r}"
        )
    groups.append(tuple(current_or))
    assert attribute is not None
    return BracketPredicate(attribute, tuple(groups))


# ---------------------------------------------------------------------------
# SELECT parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT: projection, domain, predicate, order, limit."""

    projection: tuple[str, ...]  # ('*',), ('itemName()',), ('count(*)',) or attrs
    domain: str
    query: CompiledQuery
    limit: int | None

    @property
    def is_count(self) -> bool:
        return self.projection == ("count(*)",)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_select(statement: str) -> SelectStatement:
    """Parse a SimpleDB SELECT statement (2009 subset); memoised on the
    statement text like :func:`parse_query`.

    >>> s = parse_select("select * from prov where type = 'file' limit 10")
    >>> s.domain, s.limit
    ('prov', 10)
    """
    stream = _TokenStream(tokenize(statement), statement)
    if stream.accept_word("select") is None:
        raise InvalidQueryExpression(f"not a SELECT statement: {statement!r}")
    projection = _parse_projection(stream)
    if stream.accept_word("from") is None:
        raise InvalidQueryExpression("SELECT requires a FROM clause")
    domain = stream.next().text
    predicate: Node = MatchAll()
    if stream.accept_word("where"):
        predicate = _parse_condition(stream)
    sort_attr, descending = None, False
    if stream.accept_word("order"):
        if stream.accept_word("by") is None:
            raise InvalidQueryExpression("expected BY after ORDER")
        sort_attr = stream.next().text
        direction = stream.accept_word("asc", "desc")
        descending = direction == "desc"
    limit = None
    if stream.accept_word("limit"):
        limit_token = stream.next()
        try:
            limit = int(limit_token.text)
        except ValueError:
            raise InvalidQueryExpression(f"bad LIMIT {limit_token.text!r}") from None
        if limit < 1:
            raise InvalidQueryExpression(f"LIMIT must be >= 1, got {limit}")
    if not stream.exhausted:
        raise InvalidQueryExpression(
            f"trailing tokens after {stream.peek().text!r} in {statement!r}"
        )
    return SelectStatement(
        projection=projection,
        domain=domain,
        query=CompiledQuery(predicate, sort_attr, descending),
        limit=limit,
    )


def _parse_projection(stream: _TokenStream) -> tuple[str, ...]:
    token = stream.next()
    if token.kind == "punct" and token.text == "*":
        return ("*",)
    if token.kind == "word" and token.text.lower() == "count":
        stream.expect("punct", "(")
        star = stream.next()
        if star.kind != "punct" or star.text != "*":
            raise InvalidQueryExpression("only count(*) is supported")
        _expect_close(stream)
        return ("count(*)",)
    if token.kind == "word" and token.text == "itemName":
        stream.expect("punct", "(")
        _expect_close(stream)
        names = ["itemName()"]
    else:
        names = [token.text]
    while True:
        comma = stream.peek()
        if comma is None or comma.kind != "punct" or comma.text != ",":
            return tuple(names)
        stream.next()
        names.append(stream.next().text)


def _expect_close(stream: _TokenStream) -> None:
    token = stream.next()
    if token.kind != "punct" or token.text != ")":
        raise InvalidQueryExpression(f"expected ')', got {token.text!r}")


def _parse_condition(stream: _TokenStream) -> Node:
    node = _parse_and(stream)
    while stream.accept_word("or"):
        node = BoolOp("or", node, _parse_and(stream))
    return node


def _parse_and(stream: _TokenStream) -> Node:
    node = _parse_unary(stream)
    while stream.accept_word("and"):
        node = BoolOp("and", node, _parse_unary(stream))
    return node


def _parse_unary(stream: _TokenStream) -> Node:
    if stream.accept_word("not"):
        return Not(_parse_unary(stream))
    token = stream.peek()
    if token is not None and token.kind == "punct" and token.text == "(":
        stream.next()
        node = _parse_condition(stream)
        _expect_close(stream)
        return node
    return _parse_simple_condition(stream)


def _parse_simple_condition(stream: _TokenStream) -> Node:
    every = False
    attr_token = stream.next()
    if attr_token.kind == "word" and attr_token.text.lower() == "every":
        stream.expect("punct", "(")
        attr_token = stream.next()
        _expect_close(stream)
        every = True
    if attr_token.kind not in ("word", "string"):
        raise InvalidQueryExpression(f"expected attribute, got {attr_token.text!r}")
    attribute = attr_token.text

    if stream.accept_word("is"):
        negated = bool(stream.accept_word("not"))
        if stream.accept_word("null") is None:
            raise InvalidQueryExpression("expected NULL after IS [NOT]")
        return Null(attribute, negated)
    if stream.accept_word("in"):
        stream.expect("punct", "(")
        options: list[Node] = []
        while True:
            value = stream.next()
            options.append(Comparison(attribute, "=", value.text, every))
            sep = stream.next()
            if sep.kind == "punct" and sep.text == ")":
                break
            if sep.kind != "punct" or sep.text != ",":
                raise InvalidQueryExpression("expected ',' or ')' in IN list")
        node = options[0]
        for option in options[1:]:
            node = BoolOp("or", node, option)
        return node
    if stream.accept_word("between"):
        low = stream.next().text
        if stream.accept_word("and") is None:
            raise InvalidQueryExpression("expected AND in BETWEEN")
        high = stream.next().text
        return BoolOp(
            "and",
            Comparison(attribute, ">=", low, every),
            Comparison(attribute, "<=", high, every),
        )
    if stream.accept_word("like"):
        pattern = stream.next().text
        if not pattern.endswith("%") or "%" in pattern[:-1]:
            raise InvalidQueryExpression(
                "LIKE supports only a single trailing %% wildcard"
            )
        return Comparison(attribute, "starts-with", pattern[:-1], every)

    op_token = stream.next()
    if op_token.kind != "op":
        raise InvalidQueryExpression(f"unknown comparator {op_token.text!r}")
    value_token = stream.next()
    return Comparison(attribute, op_token.text, value_token.text, every)


# ---------------------------------------------------------------------------
# Whole-result evaluation (a client-side DynamoDB Scan filter; the
# reference the SimpleDB service's paged reads are tested against)
# ---------------------------------------------------------------------------

def run_query(
    items: Iterable[tuple[str, ItemAttrs]],
    query: CompiledQuery,
) -> list[tuple[str, ItemAttrs]]:
    """Filter and order (name, attrs) pairs according to a compiled query."""
    matched = [(name, attrs) for name, attrs in items if query.matches(attrs)]
    matched.sort(key=lambda pair: query.sort_key(*pair))
    if query.sort_descending:
        matched.reverse()
    return matched

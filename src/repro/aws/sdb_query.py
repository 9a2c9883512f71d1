"""The SimpleDB bracket Query language (January 2009).

The language of ``Query`` and ``QueryWithAttributes`` — the API the
paper's architectures call — and of the predicate a DynamoDB-placed
shard applies to its Scan pages::

    ['type' = 'proc'] intersection ['name' = 'blast']
    ['input' = 'bar:2' or 'input' = 'baz:1']
    not ['type' = 'file'] union ['version' > '0004']

Semantics follow 2009 SimpleDB:

* all values are strings and compare lexicographically — callers must
  zero-pad numbers, which the PASS serializer does for versions;
* a bracket predicate names exactly **one** attribute; ``and`` inside a
  bracket means a single attribute *value* satisfies every comparison
  (enabling range predicates), while cross-attribute conjunction is
  expressed with ``intersection``;
* multi-valued attributes match if *any* value matches;
* set operators ``union`` / ``intersection`` / ``not`` combine predicate
  result sets left-to-right.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    """Render ``value`` as a quoted string literal.

    The bracket Query language escapes an embedded apostrophe by
    doubling it (``'`` → ``''`` — see the tokenizer's string pattern).
    Every caller that interpolates user-controlled text (object paths,
    program names) into a query must route it through here, or a name
    like ``o'brien`` breaks the expression.
    """
    return "'" + value.replace("'", "''") + "'"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')          # 'quoted', '' escapes a quote
      | (?P<op><=|>=|!=|=|<|>)
      | (?P<punct>[\[\]()])
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
class Comparison:
    """``attribute op value``, one term of a bracket predicate; it is
    evaluated on a single attribute value (:func:`_value_test`)."""

    attribute: str
    op: str
    value: str


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
class Not(Node):
    operand: Node

    @cached_property
    def matches(self) -> Matcher:
        operand = self.operand.matches
        return lambda attrs: not operand(attrs)


@dataclass(frozen=True)
class BoolOp(Node):
    """``intersection`` (``and``) or ``union`` (``or``), left-associative."""

    op: str  # 'and' | 'or'
    left: Node
    right: Node

    @cached_property
    def matches(self) -> Matcher:
        # A same-operator chain flattens to one loop over its operands,
        # left to right.
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
    """A parsed query.

    What an access path needs to know about the predicate is derived
    once per parsed statement, not once per shard and page, and kept
    on it (read-only): the compiled ``matches``, the attributes it
    ``pinned`` to equality value sets and those it confines to value
    ``ranges``. SimpleDB's postings and DynamoDB's index eligibility
    read the last two; the parse cache shares one instance per wire
    string, so a paged reader may tell a query's pages by identity.
    """

    predicate: Node

    @cached_property
    def matches(self) -> Matcher:
        return self.predicate.matches

    @cached_property
    def pinned(self) -> dict[str, tuple[str, ...]]:
        """:func:`equality_candidates` of the predicate."""
        return equality_candidates(self.predicate)

    @cached_property
    def ranges(self) -> dict[str, tuple[str | None, str | None]]:
        """:func:`range_candidates` of the predicate."""
        return range_candidates(self.predicate)


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
    return {}  # Not / MatchAll pin nothing


def range_candidates(node: Node) -> dict[str, tuple[str | None, str | None]]:
    """Attributes a predicate constrains to an inclusive value range.

    For each returned ``attribute → (lo, hi)`` (either bound may be
    ``None`` = unbounded), *every* item matching the predicate carries
    at least one value of that attribute inside the range — both the
    presence guarantee a sparse composite index needs (an item lacking
    the range attribute has no entries, and also cannot match the
    predicate) and the slice-superset guarantee that makes a
    range-conditioned read sound (read the slice, then re-apply the
    full predicate). Strict bounds are relaxed to inclusive ones — a
    slightly wider slice is still a superset.
    """
    if isinstance(node, BracketPredicate):
        lo: str | None = None
        hi: str | None = None
        for group in node.conjunctions:
            # Only singleton groups constrain: an OR-group is satisfied
            # by any of its comparisons, so it pins nothing by itself.
            if len(group) != 1:
                continue
            comparison = group[0]
            if comparison.op in (">=", ">", "="):
                if lo is None or comparison.value > lo:
                    lo = comparison.value
            if comparison.op in ("<=", "<", "="):
                if hi is None or comparison.value < hi:
                    hi = comparison.value
        if lo is None and hi is None:
            return {}
        return {node.attribute: (lo, hi)}
    if isinstance(node, BoolOp):
        left = range_candidates(node.left)
        right = range_candidates(node.right)
        if node.op == "and":
            # Both sides hold, but on a multi-valued attribute each may
            # hold of a different value (``'k' >= 'a' and 'k' <= 'a'``
            # matches k = {'0', 'b'}), so bounds from two sides do not
            # intersect: either side's range alone is a valid superset
            # filter. The left one is kept.
            return left | {a: r for a, r in right.items() if a not in left}
        # OR: only attributes constrained on *both* sides stay
        # constrained, by the union (widest) of the two ranges.
        merged = {}
        for attribute in left:
            if attribute not in right:
                continue
            llo, lhi = left[attribute]
            rlo, rhi = right[attribute]
            lo = None if llo is None or rlo is None else min(llo, rlo)
            hi = None if lhi is None or rhi is None else max(lhi, rhi)
            if lo is not None or hi is not None:
                merged[attribute] = (lo, hi)
        return merged
    return {}  # Not / MatchAll constrain nothing


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: Distinct statements the parser keeps compiled. A Q3 closure walks a
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
    if not stream.exhausted:
        raise InvalidQueryExpression(
            f"trailing tokens after {stream.peek().text!r} in {expression!r}"
        )
    return CompiledQuery(node)


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
# Evaluation over rows: the lazy filter every paged read ends in
# ---------------------------------------------------------------------------

Row = tuple[str, ItemAttrs]


def matching(rows: Iterable[Row], query: CompiledQuery) -> Iterator[Row]:
    """The ``(name, attrs)`` rows ``query``'s predicate holds for, in
    the order they come and produced lazily: the predicate runs on a
    row only when the consumer pulls that far. A SimpleDB page and a
    DynamoDB Scan (rows in name order, the order of every result) both
    end here."""
    matches = query.matches
    return (row for row in rows if matches(row[1]))


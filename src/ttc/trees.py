"""Ranked trees, Dewey node addresses, and ranked alphabets.

Trees are immutable and hash by their canonical rendering, so two trees
compare equal exactly when they render identically (nullary symbols render
without parentheses, children are comma separated).  Besides plain symbols,
leaves may carry state-over-variable markers ``q(x1)``, state-over-node
markers ``q(2.1)``, or opaque placeholders; markers never occur at inner
nodes.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    AlphabetMismatch,
    InvalidAddress,
    TtcSyntaxError,
    ValidationError,
    ValidationWarning,
)

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


@dataclass(frozen=True, order=True)
class NodeAddress:
    """Dewey address of a tree node; the empty path is the root."""

    path: tuple[int, ...] = ()

    def __post_init__(self):
        if any(not isinstance(i, int) or i < 1 for i in self.path):
            raise InvalidAddress("address steps must be positive integers: %r" % (self.path,))

    def child(self, i: int) -> "NodeAddress":
        return NodeAddress(self.path + (i,))

    def __str__(self):
        return ".".join(str(i) for i in self.path) if self.path else "ε"


ROOT = NodeAddress(())


@dataclass(frozen=True)
class StateOverVariable:
    """Marker ``q(x_i)`` used in rule right-hand sides."""

    state: object
    index: int

    def __str__(self):
        return "%s(x%d)" % (self.state, self.index)


@dataclass(frozen=True)
class StateOverNode:
    """Marker ``q(v)`` produced when a state meets a placeholder at node v."""

    state: object
    node: NodeAddress

    def __str__(self):
        return "%s(%s)" % (self.state, self.node)


@dataclass(frozen=True)
class PlaceholderLeaf:
    """Rank-0 leaf drawn from an auxiliary set; carries an opaque identifier."""

    ident: object

    def __str__(self):
        return "?%s" % (self.ident,)


@dataclass(frozen=True)
class AnnotatedSymbol:
    """Relabeled symbol ``<a,l1,...,lk>``: one look-ahead state per child."""

    name: str
    annotations: tuple

    def __str__(self):
        return "<%s>" % ",".join([self.name] + [str(a) for a in self.annotations])


MARKER_TYPES = (StateOverVariable, StateOverNode, PlaceholderLeaf)


class Tree:
    """Ordered ranked tree; equality and hashing go through the canonical text."""

    __slots__ = ("label", "children", "text", "size")

    def __init__(self, label, children: Iterable["Tree"] = ()):
        # list comprehensions and a loop, not generators: this runs per node
        children = tuple(children)
        self.label = label
        self.children = children
        if children:
            if isinstance(label, MARKER_TYPES):
                raise ValidationError("state markers and placeholders occur only at leaves")
            self.text = "%s(%s)" % (label, ",".join([c.text for c in children]))
            size = 1
            for c in children:
                size += c.size
            self.size = size
        else:
            self.text = str(label)
            self.size = 1

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __str__(self):
        return self.text

    def __repr__(self):
        return "Tree(%s)" % self.text

    def is_ground(self) -> bool:
        """True iff no state marker and no placeholder occurs anywhere."""
        if isinstance(self.label, MARKER_TYPES):
            return False
        return all(c.is_ground() for c in self.children)


def sort_trees(trees: Iterable[Tree]) -> list[Tree]:
    """Canonical output order: by size, then lexicographically on the rendering."""
    return sorted(trees, key=lambda t: (t.size, t.text))


def subtree_at(t: Tree, v: NodeAddress) -> Tree:
    """The subtree of t rooted at v; the root address yields t itself."""
    node = t
    for depth, i in enumerate(v.path):
        if i > len(node.children):
            raise InvalidAddress(
                "address %s leaves the tree at step %d" % (v, depth + 1)
            )
        node = node.children[i - 1]
    return node


class RankedAlphabet:
    """Finite symbol set with a fixed rank per symbol.

    Symbols are either plain names or annotated symbols; iteration follows
    insertion order so constructions stay deterministic.
    """

    def __init__(self, symbols):
        ranks = dict(symbols.items() if isinstance(symbols, Mapping) else symbols)
        for sym, rank in ranks.items():
            if isinstance(sym, str):
                if not NAME_RE.fullmatch(sym):
                    raise ValidationError("bad symbol name %r" % sym)
            elif not isinstance(sym, AnnotatedSymbol):
                raise ValidationError("symbol must be a name or annotated symbol: %r" % (sym,))
            if not isinstance(rank, int) or rank < 0:
                raise ValidationError("rank of %s must be a non-negative integer" % (sym,))
        self._ranks = ranks
        if ranks and all(r > 0 for r in ranks.values()):
            warnings.warn(
                "alphabet {%s} has no rank-0 symbol; no ground tree exists"
                % ", ".join("%s:%d" % (s, r) for s, r in ranks.items()),
                ValidationWarning,
                stacklevel=2,
            )

    def __contains__(self, sym):
        return sym in self._ranks

    def __iter__(self):
        return iter(self._ranks)

    def __len__(self):
        return len(self._ranks)

    def items(self):
        return self._ranks.items()

    def rank(self, sym) -> int:
        try:
            return self._ranks[sym]
        except KeyError:
            raise AlphabetMismatch("symbol %s is not in the alphabet" % (sym,)) from None

    def __eq__(self, other):
        if not isinstance(other, RankedAlphabet):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self):
        return hash(frozenset(self._ranks.items()))

    def __repr__(self):
        return "RankedAlphabet({%s})" % ", ".join("%s:%d" % (s, r) for s, r in self._ranks.items())


def check_ground_over(t: Tree, alphabet: RankedAlphabet, placeholders: bool = False) -> None:
    """Raise AlphabetMismatch unless t is a ground tree over the alphabet; with
    placeholders, marker and placeholder leaves are allowed as well."""
    if isinstance(t.label, MARKER_TYPES):
        if placeholders:
            return
        raise AlphabetMismatch("tree %s is not ground" % t)
    if t.label not in alphabet:
        raise AlphabetMismatch("symbol %s is not in the input alphabet" % (t.label,))
    if alphabet.rank(t.label) != len(t.children):
        raise AlphabetMismatch(
            "symbol %s has rank %d but %d children" % (t.label, alphabet.rank(t.label), len(t.children))
        )
    for c in t.children:
        check_ground_over(c, alphabet, placeholders)


def parse_tree(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse the tree grammar ``tree := NAME | NAME '(' tree (',' tree)* ')'``."""
    pos = 0

    def error(msg):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        raise TtcSyntaxError(msg, line, col)

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_node():
        nonlocal pos
        skip_ws()
        m = NAME_RE.match(text, pos)
        if not m:
            error("expected a symbol name")
        name = m.group(0)
        pos = m.end()
        skip_ws()
        children = []
        if pos < len(text) and text[pos] == "(":
            pos += 1
            children.append(parse_node())
            skip_ws()
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(parse_node())
                skip_ws()
            if pos >= len(text) or text[pos] != ")":
                error("expected ')' or ','")
            pos += 1
        return Tree(name, children)

    tree = parse_node()
    skip_ws()
    if pos != len(text):
        error("trailing input after tree")
    if alphabet is not None:
        check_ground_over(tree, alphabet)
    return tree

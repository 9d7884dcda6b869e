"""Ranked trees, Dewey node addresses, and ranked alphabets.

Trees are immutable and hash by their canonical rendering, so two trees
compare equal exactly when they render identically (nullary symbols render
without parentheses, children are comma separated).  Besides plain symbols,
leaves may carry state-over-variable markers ``q(x1)`` or state-over-node
markers ``q(2.1)``; markers never occur at inner nodes.
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
VAR_RE = re.compile(r"x([1-9][0-9]*)")  # the names reserved for variables
# the one scanner of workspaces and tree text; `bad` is any other character
TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<arrow>->)|(?P<name>%s)|(?P<int>\d+)"
    r"|(?P<punct>[{}():,;|])|(?P<bad>.)" % NAME_RE.pattern
)


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
    """Marker ``q(v)``: state q still to run on the input node v, in the
    sentential forms of a derivation (`decision.trace_derivation`).  The
    product construction puts a rhs marker q1(xi) in place of v."""

    state: object
    node: NodeAddress

    def __str__(self):
        return "%s(%s)" % (self.state, self.node)


@dataclass(frozen=True)
class AnnotatedSymbol:
    """Relabeled symbol ``<a,l1,...,lk>``: one look-ahead state per child."""

    name: str
    annotations: tuple

    def __str__(self):
        return "<%s>" % ",".join([self.name] + [str(a) for a in self.annotations])


MARKER_TYPES = (StateOverVariable, StateOverNode)


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
                raise ValidationError("state markers occur only at leaves")
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


def replace_markers(tree: Tree, leaf) -> Tree | None:
    """tree with each marker leaf m replaced by leaf(m), or None if leaf
    returns None for one; leaf is called on every marker, left to right,
    either way.  Rebuilt bottom up with an explicit stack: any depth works."""
    built, vetoed = [], False  # the rebuilt subtrees not yet taken by their parent
    stack = [(tree, False)]
    while stack:
        node, kids_built = stack.pop()
        if kids_built:
            k = len(built) - len(node.children)
            built[k:] = [None if vetoed else Tree(node.label, built[k:])]
        elif node.children:
            stack.append((node, True))
            stack.extend([(c, False) for c in reversed(node.children)])
        else:
            built.append(leaf(node) if isinstance(node.label, MARKER_TYPES) else node)
            vetoed = vetoed or built[-1] is None
    return None if vetoed else built[0]


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


def check_ground_over(t: Tree, alphabet: RankedAlphabet) -> None:
    """Raise AlphabetMismatch unless t is a ground tree over the alphabet; the
    walk is pre-order, so the fault reported is the first in the text."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t.label, MARKER_TYPES):
            raise AlphabetMismatch("tree %s is not ground" % t)
        if t.label not in alphabet:
            raise AlphabetMismatch("symbol %s is not in the input alphabet" % (t.label,))
        if alphabet.rank(t.label) != len(t.children):
            raise AlphabetMismatch(
                "symbol %s has rank %d but %d children" % (t.label, alphabet.rank(t.label), len(t.children))
            )
        stack.extend(reversed(t.children))


def _scan(text: str, skip) -> tuple[list, list, list]:
    """The tokens of text by `TOKEN_RE`, without the kinds in skip, as three
    flat lists, their kinds, values and offsets, each ending in ``eof``."""
    kinds, values, offsets = [], [], []
    for m in TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind not in skip:
            kinds.append(kind)
            values.append(m[0])
            offsets.append(m.start())
    kinds.append("eof")
    values.append("")
    offsets.append(len(text))
    return kinds, values, offsets


def _parse_term(text: str, tokens, i: int, make):
    """Read ``term := NAME | NAME '(' term (',' term)* ')'`` from token i of
    `_scan`'s tokens with an explicit stack, so any depth parses; make(j,
    children) builds the node named by token j once its children are built.
    Returns the term and the index of the token after it."""
    kinds, values, offsets = tokens
    names, kids = [], []  # the name token and the children of each open node
    while True:
        if kinds[i] != "name":
            raise _syntax_error("expected a symbol name", text, offsets[i])
        if values[i + 1] == "(":
            names.append(i)
            kids.append([])
            i += 2
            continue
        term = make(i, ())
        i += 1
        while names and values[i] == ")":
            children = kids.pop()
            children.append(term)
            term = make(names.pop(), children)
            i += 1
        if not names:
            return term, i
        if values[i] != ",":
            raise _syntax_error("expected ')' or ','", text, offsets[i])
        kids[-1].append(term)
        i += 1


def parse_tree(text: str, alphabet: RankedAlphabet | None = None) -> Tree:
    """Parse one term of tree text; a comment is trailing input."""
    kinds, values, offsets = tokens = _scan(text, {"ws"})
    tree, i = _parse_term(text, tokens, 0, lambda j, children: Tree(values[j], children))
    if kinds[i] != "eof":
        raise _syntax_error("trailing input after tree", text, offsets[i])
    if alphabet is not None:
        check_ground_over(tree, alphabet)
    return tree


def _syntax_error(msg: str, text: str, pos: int) -> TtcSyntaxError:
    """The error at offset pos of text, located by line and column."""
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return TtcSyntaxError(msg, line, col)

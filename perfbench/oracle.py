"""Independent reference semantics for the output checks.

Nothing here imports ttc. Trees are nested tuples ``(label, children)`` and
render to the same canonical text as ttc's trees (``f(a,b)``, no spaces), so
results can be compared by text. The checks use:

* ``all_trees``: every tree over a ranked alphabet up to a size;
* ``rewrite``: brute-force rewriting of sentential forms ``q(node)`` with a
  machine's rules, the textbook semantics of a top-down transducer;
* the closed forms of the worked pair and of the quadratic chain.
"""

from __future__ import annotations

import re

from workspaces import NAME_RE

_TOKEN_RE = re.compile(r"\s*(?:(%s)|([(),]))" % NAME_RE.pattern)


def text(tree) -> str:
    label, kids = tree
    return "%s(%s)" % (label, ",".join(text(k) for k in kids)) if kids else label


def size(tree) -> int:
    return 1 + sum(size(k) for k in tree[1])


def order_key(tree):
    """ttc's canonical order: by size, then by text."""
    return (size(tree), text(tree))


def parse(src: str):
    """Parse ``NAME`` or ``NAME(tree, ...)`` into a nested tuple."""
    tokens = []
    pos = 0
    src = src.strip()
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ValueError("cannot parse tree text at %d: %r" % (pos, src))
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    out, end = _parse_at(tokens, 0)
    if end != len(tokens):
        raise ValueError("trailing input in tree text %r" % src)
    return out


def _parse_at(tokens, i):
    label = tokens[i]
    i += 1
    kids = []
    if i < len(tokens) and tokens[i] == "(":
        while True:
            kid, i = _parse_at(tokens, i + 1)
            kids.append(kid)
            if tokens[i] == ")":
                return (label, tuple(kids)), i + 1
            if tokens[i] != ",":
                raise ValueError("expected ',' or ')'")
    return (label, tuple(kids)), i


def parse_alphabet(src: str) -> dict[str, int]:
    out = {}
    for part in src.split(","):
        sym, rank = part.split(":")
        out[sym.strip()] = int(rank)
    return out


def all_trees(alphabet: dict[str, int], max_size: int) -> list:
    """Every tree over the alphabet with at most max_size nodes, in ttc's
    canonical (size, text) order."""
    by_size = {}
    for n in range(1, max_size + 1):
        trees = []
        for sym, k in sorted(alphabet.items()):
            if k == 0:
                if n == 1:
                    trees.append((sym, ()))
                continue
            for split in _splits(n - 1, k):
                for kids in _product([by_size[s] for s in split]):
                    trees.append((sym, kids))
        by_size[n] = trees
    return sorted((t for n in by_size for t in by_size[n]), key=order_key)


def _splits(total, k):
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _splits(total - first, k - 1):
            yield (first,) + rest


def _product(pools):
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _product(pools[1:]):
            yield (head,) + rest


# -- brute-force rewriting -------------------------------------------------

# In a sentential form, a pending state application q(v) is the leaf
# ("$", (state, input subtree)); everything else is output.


class Machine:
    """A machine spec (see workspaces.py) as rewrite rules."""

    def __init__(self, spec: dict):
        self.states = set(s for s, _, _ in spec["rules"]) | {spec["initial"]}
        self.initial = spec["initial"]
        self.rules = {}
        for state, lhs, rhss in spec["rules"]:
            sym, vars_ = parse(lhs)
            index = {v[0]: i for i, v in enumerate(vars_)}
            for rhs in rhss:
                self.rules.setdefault((state, sym), []).append(self._template(parse(rhs), index))

    def _template(self, node, index):
        label, kids = node
        if label in self.states:
            return ("$", (label, index[kids[0][0]]))
        return (label, tuple(self._template(k, index) for k in kids))


def _instantiate(template, children):
    label, kids = template
    if label == "$":
        state, i = kids
        return ("$", (state, children[i]))
    return (label, tuple(_instantiate(k, children) for k in kids))


def _first_marker(form, path=()):
    label, kids = form
    if label == "$":
        return path
    for i, k in enumerate(kids):
        found = _first_marker(k, path + (i,))
        if found is not None:
            return found
    return None


def _get(form, path):
    for i in path:
        form = form[1][i]
    return form


def _put(form, path, new):
    if not path:
        return new
    label, kids = form
    i = path[0]
    return (label, kids[:i] + (_put(kids[i], path[1:], new),) + kids[i + 1:])


def rewrite(machine: Machine, tree) -> set[str]:
    """Texts of every ground tree derivable from initial(tree), found by
    rewriting the leftmost pending state application in every possible way."""
    done = set()
    seen = set()
    todo = [("$", (machine.initial, tree))]
    while todo:
        form = todo.pop()
        path = _first_marker(form)
        if path is None:
            done.add(text(form))
            continue
        state, node = _get(form, path)[1]
        sym, children = node
        for template in machine.rules.get((state, sym), ()):
            new = _put(form, path, _instantiate(template, children))
            if new not in seen:
                seen.add(new)
                todo.append(new)
    return done


def chain_rewrite(machines: list[Machine], tree) -> set[str]:
    """Outputs of the composition, stage by stage, by brute-force rewriting."""
    current = {text(tree)}
    for m in machines:
        nxt = set()
        for t in current:
            nxt |= rewrite(m, parse(t))
        current = nxt
    return current


# -- closed forms -----------------------------------------------------------


def worked_closed_form(tree):
    """Output text of the worked pair on an input, or None off its domain:
    f(s1,s2) -> f(s1,s1) if the leftmost leaf of s2 is e, d if s2 = d."""
    label, kids = tree
    if label != "f":
        return None
    s1, s2 = kids
    if s2 == ("d", ()):
        return "d"
    leaf = s2
    while leaf[1]:
        leaf = leaf[1][0]
    if leaf[0] == "e":
        return text(("f", (s1, s1)))
    return None


def quadratic_closed_form(n: int) -> str:
    """Text of Q(n): Q(0) = e, Q(n) = f(a^(n-1)(e), Q(n-1))."""
    out = "e"
    for i in range(1, n + 1):
        out = "f(%s,%s)" % ("a(" * (i - 1) + "e" + ")" * (i - 1), out)
    return out


def quadratic_size(n: int) -> int:
    """Node count of Q(n): 1 + sum over i = 1..n of (1 + i)."""
    return (n * n + 3 * n) // 2 + 1

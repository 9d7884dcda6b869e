import random

import pytest
from hypothesis import given, strategies as st

from ttc.errors import AlphabetMismatch, InvalidAddress, TtcSyntaxError, ValidationError
from ttc.trees import (
    AnnotatedSymbol,
    NodeAddress,
    RankedAlphabet,
    StateOverNode,
    StateOverVariable,
    Tree,
    ValidationWarning,
    parse_tree,
    subtree_at,
)


def addr(text):
    """The address written as dotted steps, or "ε" for the root."""
    return NodeAddress(() if text == "ε" else tuple(int(part) for part in text.split(".")))


def t(text):
    return parse_tree(text)


class TestSubtreeAt:
    def test_inner_leaf(self):
        assert subtree_at(t("f(a,f(a,b))"), addr("2.1")) == t("a")

    def test_root(self):
        tree = t("f(a,b)")
        assert subtree_at(tree, addr("ε")) is tree

    def test_from_worked_output(self):
        assert subtree_at(t("f(a(e),f(e,e))"), addr("1")) == t("a(e)")

    def test_invalid(self):
        with pytest.raises(InvalidAddress):
            subtree_at(t("f(a,b)"), addr("3"))
        with pytest.raises(InvalidAddress):
            subtree_at(t("f(a,b)"), addr("1.1"))


# random tree material for the address invariants
symbols = {"f": 2, "a": 1, "b": 0, "c": 0}


def trees(max_depth=4):
    def build(depth):
        if depth == 0:
            return st.sampled_from([Tree("b"), Tree("c")])
        return st.one_of(
            st.sampled_from([Tree("b"), Tree("c")]),
            st.builds(lambda x: Tree("a", (x,)), build(depth - 1)),
            st.builds(lambda x, y: Tree("f", (x, y)), build(depth - 1), build(depth - 1)),
        )

    return build(max_depth)


def addresses(tree, path=()):
    yield NodeAddress(path)
    for i, child in enumerate(tree.children, start=1):
        yield from addresses(child, path + (i,))


@given(trees())
def test_every_node_has_subtree(tree):
    for v in addresses(tree):
        sub = subtree_at(tree, v)
        assert sub.size <= tree.size


# random shapes (label, children) for the constructor, against a recursive
# reference rendering
LABELS = ["f", "a", "e", AnnotatedSymbol("g", ("l1", "l2"))]


def random_shape(rng, depth):
    width = 0 if depth == 0 else rng.randint(0, 3)
    return rng.choice(LABELS), [random_shape(rng, depth - 1) for _ in range(width)]


def render(shape):
    label, kids = shape
    return "%s(%s)" % (label, ",".join(render(k) for k in kids)) if kids else str(label)


def node_count(shape):
    return 1 + sum(node_count(k) for k in shape[1])


def build(shape, rng):
    """The Tree of a shape, children passed as a list, a tuple, an iterator
    or a generator at random."""
    label, kids = shape
    built = [build(k, rng) for k in kids]
    container = rng.choice([list, tuple, iter, lambda xs: (x for x in xs)])
    return Tree(label, container(built))


class TestTreeConstructor:
    def test_text_and_size_match_a_recursive_rendering(self):
        rng = random.Random(8)
        for _ in range(300):
            shape = random_shape(rng, rng.randint(0, 5))
            tree = build(shape, rng)
            assert tree.text == render(shape)
            assert tree.size == node_count(shape)

    @pytest.mark.parametrize(
        "marker", [StateOverVariable("q", 1), StateOverNode("q", NodeAddress((1,)))]
    )
    def test_marker_with_children(self, marker):
        assert Tree(marker).text == str(marker)
        assert Tree(marker, []).size == 1
        for children in ([Tree("e")], (Tree("e"),), (c for c in [Tree("e")])):
            with pytest.raises(ValidationError):
                Tree(marker, children)


class TestParsing:
    def test_nullary_renders_bare(self):
        assert t("a(e)").text == "a(e)"
        assert t("e").text == "e"

    def test_whitespace_insensitive(self):
        assert t(" f( a , b ) ") == t("f(a,b)")

    def test_primes_in_names(self):
        assert t("e'").label == "e'"

    def test_reject_garbage(self):
        for bad in ("", "f(", "f(a,)", "f(a))", "f a"):
            with pytest.raises(TtcSyntaxError):
                parse_tree(bad)

    def test_alphabet_validation(self):
        alpha = RankedAlphabet({"f": 2, "a": 0})
        parse_tree("f(a,a)", alpha)
        with pytest.raises(AlphabetMismatch):
            parse_tree("f(a)", alpha)
        with pytest.raises(AlphabetMismatch):
            parse_tree("g(a,a)", alpha)

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("", "expected a symbol name", 1, 1),
            ("   ", "expected a symbol name", 1, 4),
            ("f(", "expected a symbol name", 1, 3),
            ("f(a,)", "expected a symbol name", 1, 5),
            ("f(a))", "trailing input after tree", 1, 5),
            ("f a", "trailing input after tree", 1, 3),
            ("e # x", "trailing input after tree", 1, 3),
            ("f(a\tb)", "expected ')' or ','", 1, 5),
            ("f(a,\n  b\n  c)", "expected ')' or ','", 3, 3),
            ("f(a, b", "expected ')' or ','", 1, 7),
            ("f(\u00e9)", "expected a symbol name", 1, 3),
            ("f(a -> b)", "expected ')' or ','", 1, 5),
            ("1(a)", "expected a symbol name", 1, 1),
            ("f(a,  \n", "expected a symbol name", 2, 1),
            ("f(a)\n  g", "trailing input after tree", 2, 3),
        ],
    )
    def test_error_location(self, text, message, line, column):
        with pytest.raises(TtcSyntaxError) as err:
            parse_tree(text)
        assert (str(err.value), err.value.line, err.value.column) == (
            "line %d, column %d: %s" % (line, column, message),
            line,
            column,
        )

    def test_any_depth_parses(self):
        spine = parse_tree("a(" * 3000 + "e" + ")" * 3000, RankedAlphabet({"a": 1, "e": 0}))
        assert spine.size == 3001

    def test_first_fault_in_the_text_is_reported(self):
        # g (under the first child) precedes h (the second child) in the text
        alpha = RankedAlphabet({"f": 2, "a": 1, "e": 0})
        with pytest.raises(AlphabetMismatch, match="^symbol g is not in the input alphabet$"):
            parse_tree("f(a(g), h)", alpha)
        with pytest.raises(AlphabetMismatch, match="^symbol a has rank 1 but 2 children$"):
            parse_tree("f(a(e, e), h)", alpha)


class TestRankedAlphabet:
    def test_warns_without_nullary(self):
        with pytest.warns(ValidationWarning):
            RankedAlphabet({"f": 2})

    def test_no_warning_with_nullary(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RankedAlphabet({"f": 2, "e": 0})

    def test_equality_ignores_order(self):
        assert RankedAlphabet({"a": 1, "e": 0}) == RankedAlphabet({"e": 0, "a": 1})

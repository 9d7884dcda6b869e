import importlib
import pathlib
import sys

import pytest

from ttc import Rule, StateId, Transducer, decision, parse_workspace
from ttc.machines import _Classes, _domain_sizes, _domain_trees
from ttc.trees import RankedAlphabet, Tree

DATA = pathlib.Path(__file__).parent / "data"
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

FIXTURE_TEXT = (DATA / "fixtures.ttc").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def workspace():
    return parse_workspace(FIXTURE_TEXT)


@pytest.fixture(scope="session")
def quadratic(workspace):
    return workspace.machines["quadratic"]


@pytest.fixture(scope="session")
def copy_pair(workspace):
    return workspace.machines["copy_t1"], workspace.machines["copy_t2"]


@pytest.fixture(scope="session")
def del_pair(workspace):
    return workspace.machines["del_t1"], workspace.machines["del_t2"]


@pytest.fixture(scope="session")
def worked_pair(workspace):
    return workspace.machines["ex4_t1"], workspace.machines["ex4_t2"]


@pytest.fixture(scope="session")
def copy_chain(workspace):
    return workspace.chains["copying"]


@pytest.fixture(scope="session")
def del_chain(workspace):
    return workspace.chains["deleting"]


@pytest.fixture(scope="session")
def worked_chain(workspace):
    return workspace.chains["worked"]


@pytest.fixture(scope="session")
def copy_t2_extra(copy_pair):
    """The copying second component with one more e3 rule (used by the
    three-stage decision fixture)."""
    _, t2 = copy_pair
    out = RankedAlphabet(dict(t2.output_alphabet.items()) | {"e''": 0})
    q2pp = StateId.base("q2''")
    rules = list(t2.rules) + [Rule(q2pp, "e3", 0, Tree("e''"))]
    return Transducer("copy_t2_extra", t2.input_alphabet, out, rules, t2.initial, states=t2.states)


@pytest.fixture
def no_probe(monkeypatch):
    """`decide_functionality` without its check of a chain on itself
    (`decision._refute`): every chain goes through its constructions."""
    monkeypatch.setattr(decision, "_refute", lambda chain, max_size: None)


def domain_of(machine, state, max_size):
    """dom(state) of a plain transducer up to max_size, in canonical order, by
    the enumeration the check uses."""
    cl = _Classes(machine, None)
    return [s for domain in _domain_sizes(cl, state.name, max_size) for s in _domain_trees(cl, domain)]


def t(text):
    from ttc.trees import parse_tree

    return parse_tree(text)


VETO_PAIR = """
transducer t1 {
  input { a:1, e:0 }
  output { f:1, e:0 }
  initial q
  rules { q(a(x1)) -> f(q(x1)); q(e) -> e; }
}
transducer t2 {
  input { f:1, e:0 }
  output { g:1, h:1, e:0 }
  initial p
  rules { p(f(x1)) -> g(p(x1)) | h(r(x1)); p(e) -> e; r(f(x1)) -> h(r(x1)); r(e) -> e; }
}
"""


@pytest.fixture(scope="session")
def veto_pair():
    """A pair whose triple product vetoes two pairs: hat may put {p} or {r}
    under f, and t2 at p has an f rule that calls p and one that calls r, so
    N meets ((q,{p}), r) and ((q,{r}), p)."""
    ws = parse_workspace(VETO_PAIR)
    return ws.machines["t1"], ws.machines["t2"]


DOUBLED_ROTATION = """
transducer t1 {
  input { g:2, h:1, e:0, d:0 }
  output { g:2, h:1, e:0, d:0 }
  initial q
  rules {
    q(g(x1,x2)) -> g(q(x1),q(x2)) | g(q(x2),q(x1));
    q(h(x1)) -> h(q(x1)) | g(q(x1),q(x1));
    q(e) -> e;
    q(d) -> d | e;
  }
}
transducer t2 {
  input { g:2, h:1, e:0, d:0 }
  output { g:2, h:1, e:0, d:0 }
  initial c0
  rules { %s c0(d) -> d; }
}
"""


@pytest.fixture(scope="session")
def doubled_rotation():
    """k -> (t1, t2): the rotation pair with a swapped g rule in t1, and
    with both orders of every g rule of t2, whose states c0..c(k-1) are
    rotated by g (i -> i+1) and by h (i -> i+2), mod k.  Its domain
    automata blow up with k."""

    def make(k):
        rules = []
        for i in range(k):
            c, c1, c2 = "c%d" % i, "c%d" % ((i + 1) % k), "c%d" % ((i + 2) % k)
            rules.append("%s(g(x1,x2)) -> g(%s(x1),%s(x2)) | g(%s(x1),%s(x2));" % (c, c, c1, c1, c))
            rules.append("%s(h(x1)) -> h(%s(x1)); %s(e) -> e;" % (c, c2, c))
        ws = parse_workspace(DOUBLED_ROTATION % " ".join(rules))
        return ws.machines["t1"], ws.machines["t2"]

    return make


def benchmark_modules():
    """The benchmark's `workloads` and `workspaces` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads"), importlib.import_module("workspaces")
    finally:
        sys.path.remove(str(PERFBENCH))


def rotation_chains_text(ks) -> str:
    """A workspace of the benchmark's rotation pair t1, t2 (k = 2) and, for
    each k in ks, the chain `t1x<k>`: k copies of t1, then t2."""
    _, bench = benchmark_modules()
    text = bench.render_transducer("t1", bench.ROT_T1) + bench.render_transducer("t2", bench.rotation_t2(2))
    return text + "".join("chain t1x%d { %s, t2 }\n" % (k, ", ".join(["t1"] * k)) for k in ks)

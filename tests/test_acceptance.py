"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here: exact set equalities for the fixture
criteria, zero violations for the bounded suites (200 seeded pairs, 50
seeded chains), and the stated runtime budgets.  Verdicts are bound-relative
throughout; no unbounded claim is tested.
"""

import time

import pytest

from ttc import (
    CompositionChain,
    build_hat_t1,
    build_m,
    chain_outputs,
    check_functional_bounded,
    decide_functionality,
    decompose_la,
    domain_automaton,
    p_construction,
    parse_workspace,
)
from ttc.decision import derivations
from ttc.generate import random_chain3, random_pair
from ttc.render import serialize_machine
from ttc.trees import parse_tree

from . import pair_properties
from .oracles import all_trees, identity_automaton, machines_equal, rewrite_translate, translate_la_eager
from .test_constructions import (
    A_EXPECTED,
    AHAT_EXPECTED,
    HAT_EXPECTED,
    M_EXPECTED,
    N_EXPECTED,
    product_n,
    rule_strings,
)

t = parse_tree

PAIR_SEEDS = range(200)
CHAIN_SEEDS = range(50)


@pytest.fixture
def announce(capsys):
    def run(number, description, body):
        try:
            body()
        except BaseException:
            with capsys.disabled():
                print("ACCEPTANCE %d FAIL: %s" % (number, description))
            raise
        with capsys.disabled():
            print("ACCEPTANCE %d PASS: %s" % (number, description))

    return run


def test_criterion_1_quadratic_fixture(announce, quadratic):
    def body():
        start = time.perf_counter()
        assert quadratic.translate(t("a(a(e))")) == frozenset((t("f(a(e),f(e,e))"),))
        for n in range(2, 9):
            tree = t("a(" * (n - 1) + "e" + ")" * (n - 1))
            assert tree.size == n
            outs = quadratic.translate(tree)
            assert len(outs) == 1
            (out,) = outs
            assert out.size == (n * n + n) // 2, (n, out.size)
        assert time.perf_counter() - start < 1.0

    announce(1, "quadratic fixture: exact output and (n^2+n)/2 growth under 1s", body)


def test_criterion_2_copying_fixture(announce, copy_pair, copy_chain):
    def body():
        t1, t2 = copy_pair
        assert chain_outputs(copy_chain, t("a(e)")) == frozenset((t("f(e,e)"),))
        naive, _ = p_construction(t1, t2)
        assert naive.translate(t("a(e)")) == frozenset((t("f(e,e)"), t("f(e,e')")))
        hat = build_hat_t1(t1, t2)
        assert not any("e3" in r.rhs.text for r in hat.rules)
        assert {r.rhs.text for r in hat.rules if r.symbol == "e"} == {"e1", "e2"}
        m, _ = build_m(t1, t2)
        assert m.translate_la(t("a(e)")) == frozenset((t("f(e,e)"),))

    announce(2, "copying fixture: chain, naive product, e3 exclusion, M", body)


def test_criterion_3_deleting_fixture(announce, del_pair, del_chain):
    def body():
        t1, t2 = del_pair
        naive, _ = p_construction(t1, t2)
        assert naive.translate(t("a(e,e)")) == frozenset((t("e1"), t("e2")))
        m, _ = build_m(t1, t2)
        for s in all_trees(t1.input_alphabet, 5):
            assert chain_outputs(del_chain, s) == frozenset()
            assert m.translate_la(s) == frozenset()

    announce(3, "deleting fixture: naive product live, chain and M empty to size 5", body)


def test_criterion_4_worked_golden_listings(announce, worked_pair):
    def body():
        t1, t2 = worked_pair
        assert rule_strings(domain_automaton(t2)) == A_EXPECTED
        hat = build_hat_t1(t1, t2)
        assert rule_strings(hat) == HAT_EXPECTED
        assert rule_strings(product_n(t1, t2)) == N_EXPECTED
        m, _ = build_m(t1, t2)
        assert rule_strings(m.la) == AHAT_EXPECTED
        assert rule_strings(m.base) == M_EXPECTED

    announce(4, "worked pair: A, hat, N, look-ahead automaton, M match the listings", body)


def test_criterion_5_bounded_property_suite(announce, copy_pair, del_pair, worked_pair):
    def body():
        start = time.perf_counter()
        for pair in (copy_pair, del_pair, worked_pair):
            pair_properties.check_pair(*pair, size=5)
        for seed in PAIR_SEEDS:
            t1, t2 = random_pair(seed)
            pair_properties.check_pair(t1, t2, size=5)
        assert time.perf_counter() - start < 120.0

    announce(5, "bounded property suite: fixtures plus 200 seeded pairs, zero violations", body)


def test_criterion_6_oracle_equivalence(announce, copy_pair, del_pair, worked_pair):
    def body():
        for seed in PAIR_SEEDS:
            for machine in random_pair(seed):
                for s in all_trees(machine.input_alphabet, 5):
                    assert machine.translate(s) == frozenset(rewrite_translate(machine, s))
        for pair in [(copy_pair), (del_pair), (worked_pair)] + [random_pair(s) for s in PAIR_SEEDS]:
            m, _ = build_m(*pair)
            for s in all_trees(m.input_alphabet, 4):
                assert m.translate_la(s) == translate_la_eager(m, s)

    announce(6, "oracle equivalence: rewrite oracle at size 5, lazy vs eager at size 4", body)


def test_criterion_7_chain_reduction(announce, copy_pair, del_pair, worked_pair, copy_t2_extra):
    def body():
        fixture_chains = [
            CompositionChain((identity_automaton(p[0].input_alphabet, name="id0"), *p))
            for p in (copy_pair, del_pair, worked_pair)
        ]
        fixture_chains.append(
            CompositionChain(
                (identity_automaton(copy_pair[0].input_alphabet, name="id0"), copy_pair[0], copy_t2_extra)
            )
        )
        chains = fixture_chains + [random_chain3(seed) for seed in CHAIN_SEEDS]
        for chain in chains:
            via_m, _ = decide_functionality(chain, 4)
            direct = check_functional_bounded(chain, 4)
            assert via_m.status == direct.status, chain.stages[0].name
            m, _ = build_m(chain.stages[-2], chain.stages[-1])
            relabeling, reader = decompose_la(m)
            for s in all_trees(m.input_alphabet, 4):
                composed = set()
                for mid in relabeling.translate(s):
                    composed |= reader.translate(mid)
                assert frozenset(composed) == m.translate_la(s), s.text

    announce(7, "chain reduction: verdicts agree at bound 4, decomposition contract holds", body)


def test_criterion_8_cli_round_trip_and_trace(announce, workspace, quadratic):
    def body():
        # parse -> serialize -> parse is a fixpoint on every fixture machine
        text = "\n".join(serialize_machine(m, name=n) for n, m in workspace.machines.items())
        reparsed = parse_workspace(text)
        for name, machine in workspace.machines.items():
            assert machines_equal(machine, reparsed.machines[name]), name
        again = "\n".join(serialize_machine(reparsed.machines[n], name=n) for n in workspace.machines)
        assert again == text
        # the derivation enumeration reproduces the worked 6-step rule sequence
        target = (1, 1, 4, 3, 4, 2)
        for steps, final in derivations(quadratic, t("a(a(e))")):
            if tuple(s.rule_index for s in steps) == target:
                assert final == t("f(a(e),f(e,e))")
                assert len(steps) == 6
                break
        else:
            raise AssertionError("rule sequence 1,1,4,3,4,2 not reproduced")

    announce(8, "round-trip fixpoint on fixtures; trace reproduces rule sequence 1,1,4,3,4,2", body)

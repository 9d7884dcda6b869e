"""Bounded property suite for a two-fold composition pair.

Each helper asserts one contract of the construction pipeline on every
ground input up to a size bound; `check_pair` runs them all and is shared
by the fixture, random-pair, and acceptance suites.  Output sets are capped
so pathological copying pairs abort with ResourceLimit instead of exhausting
memory.
"""

from ttc import (
    StateId,
    build_hat_t1,
    build_m,
    chain_outputs,
    check_functional_bounded,
    domain_automaton,
    enumerate_trees,
    p_construction,
)
from ttc.constructions import CompositionChain
from ttc.machines import reachable

from .oracles import dom_member

CAP = 10**6


def domain_automaton_tracks_intersections(t2, size):
    """dom of a set state is the intersection of its members' domains."""
    aut = domain_automaton(t2)
    states = reachable((aut.initial,), aut.rules).values()
    trees = enumerate_trees(t2.input_alphabet, size)
    for state in sorted(states):
        if not state.parts:
            continue
        for s in trees:
            via_automaton = dom_member(aut, state, s)
            via_members = all(dom_member(t2, q, s) for q in state.parts)
            assert via_automaton == via_members, (state.name, s.text)


def restricted_outputs_stay_in_member_domains(t1, t2, size):
    """Trees produced by (q,S) with S nonempty lie in every member's domain."""
    hat = build_hat_t1(t1, t2)
    trees = enumerate_trees(t1.input_alphabet, size)
    for state in sorted(hat.states):
        members = state.parts[1].parts
        if not members:
            continue
        for s in trees:
            for out in hat.evaluate(state, s, cap=CAP):
                assert all(dom_member(t2, q2, out) for q2 in members), (
                    state.name,
                    s.text,
                    out.text,
                )


def restriction_preserves_composition(t1, t2, size):
    """Restricting the first component does not change the composition."""
    hat = build_hat_t1(t1, t2)
    for s in enumerate_trees(t1.input_alphabet, size):
        lhs = chain_outputs(CompositionChain((t1, t2)), s)
        rhs = chain_outputs(CompositionChain((hat, t2)), s)
        assert lhs == rhs, s.text


def chain_contained_in_lookahead_and_naive_product(t1, t2, size):
    """The chain is contained in the look-ahead machine and the naive product."""
    m, _ = build_m(t1, t2)
    naive, _ = p_construction(t1, t2)
    for s in enumerate_trees(t1.input_alphabet, size):
        chain = chain_outputs(CompositionChain((t1, t2)), s)
        assert chain <= m.translate_la(s, cap=CAP), s.text
        assert chain <= naive.translate(s, cap=CAP), s.text


def domain_equalities(t1, t2, size):
    """dom(M) equals the chain domain, and per state dom((q,S,q')) = dom((q,S))."""
    hat = build_hat_t1(t1, t2)
    m, _ = build_m(t1, t2)
    for s in enumerate_trees(t1.input_alphabet, size):
        in_chain = bool(chain_outputs(CompositionChain((t1, t2)), s))
        assert dom_member(m, m.base.initial, s) == in_chain, s.text
        for triple in sorted(m.base.states):
            pair = StateId.pair(triple.parts[0], triple.parts[1])
            assert dom_member(m, triple, s) == dom_member(hat, pair, s), (
                triple.name,
                s.text,
            )


def verdict_agreement(t1, t2, bound):
    """M is functional up to the bound exactly when the chain is; when it is,
    M computes the chain on every checked input."""
    m, _ = build_m(t1, t2)
    chain = CompositionChain((t1, t2))
    via_m = check_functional_bounded(m, bound)
    direct = check_functional_bounded(chain, bound)
    assert via_m.status == direct.status, (via_m, direct)
    if direct.functional:
        for s in enumerate_trees(t1.input_alphabet, bound):
            assert m.translate_la(s, cap=CAP) == chain_outputs(chain, s), s.text
    return via_m, direct


def singleton_outputs_force_equal_second_stage(t1, t2, size):
    """When the chain output on s is a singleton {r}, every pair of distinct
    first-stage outputs inside dom(T2) translates to exactly {r}."""
    hat = build_hat_t1(t1, t2)
    chain = CompositionChain((t1, t2))
    for s in enumerate_trees(t1.input_alphabet, size):
        outs = chain_outputs(chain, s)
        if len(outs) != 1:
            continue
        (r,) = outs
        mids = [
            t
            for t in hat.translate(s, cap=CAP)
            if dom_member(t2, t2.initial, t)
        ]
        for mid in mids:
            assert t2.translate(mid, cap=CAP) == frozenset((r,)), (s.text, mid.text)


def check_pair(t1, t2, size=5, verdict_bound=None):
    domain_automaton_tracks_intersections(t2, size)
    restricted_outputs_stay_in_member_domains(t1, t2, size)
    restriction_preserves_composition(t1, t2, size)
    chain_contained_in_lookahead_and_naive_product(t1, t2, size)
    domain_equalities(t1, t2, size)
    verdict_agreement(t1, t2, verdict_bound or size)

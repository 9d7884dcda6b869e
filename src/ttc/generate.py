"""Seeded random machines for the property-test harness.

Small transducers (few states, few rules, alphabets of rank <= 2) with a
bias toward productive states, so the bounded property suites exercise both
inhabited and empty domains.  All generation is deterministic in the seed.
"""

from __future__ import annotations

import random

from .constructions import CompositionChain
from .machines import Rule, StateId, Transducer
from .trees import RankedAlphabet, StateOverVariable, Tree


def random_alphabet(rng: random.Random, prefix: str) -> RankedAlphabet:
    """One to three symbols of rank at most 2, one of them of rank 0."""
    ranks = [0] + [rng.randint(0, 2) for _ in range(rng.randint(1, 3) - 1)]
    rng.shuffle(ranks)
    return RankedAlphabet({"%s%d" % (prefix, i): r for i, r in enumerate(ranks)})


def _random_rhs(rng, output_alphabet, states, k, depth):
    """Random tree over the output alphabet with state markers at the leaves."""
    syms = list(output_alphabet.items())
    nullary = [s for s, r in syms if r == 0]
    if k and rng.random() < (0.55 if depth > 0 else 0.7):
        return Tree(StateOverVariable(rng.choice(states), rng.randint(1, k)))
    if depth == 0 or rng.random() < 0.35:
        if nullary and (not k or rng.random() < 0.7):
            return Tree(rng.choice(nullary))
        if k:
            return Tree(StateOverVariable(rng.choice(states), rng.randint(1, k)))
        return Tree(rng.choice(nullary))
    sym, rank = rng.choice(syms)
    return Tree(sym, tuple(_random_rhs(rng, output_alphabet, states, k, depth - 1) for _ in range(rank)))


def random_transducer(
    rng: random.Random,
    name: str,
    input_alphabet: RankedAlphabet,
    output_alphabet: RankedAlphabet,
    max_states: int = 3,
    max_rules: int = 6,
) -> Transducer:
    n_states = rng.randint(1, max_states)
    states = [StateId.base("q%d" % i) for i in range(n_states)]
    in_syms = list(input_alphabet.items())
    nullary_in = [s for s, r in in_syms if r == 0]
    rules: dict[Rule, None] = {}  # a rule drawn twice is listed once
    for state in states:
        # ground a random share of the states so domains are often inhabited
        if rng.random() < 0.85:
            sym = rng.choice(nullary_in)
            rules[Rule(state, sym, 0, _random_rhs(rng, output_alphabet, states, 0, 1))] = None
    while len(rules) < rng.randint(n_states, max_rules):
        state = rng.choice(states)
        sym, k = rng.choice(in_syms)
        rules[Rule(state, sym, k, _random_rhs(rng, output_alphabet, states, k, 2))] = None
    return Transducer(name, input_alphabet, output_alphabet, rules, states[0], states=states)


def random_pair(seed: int) -> tuple[Transducer, Transducer]:
    """An alphabet-compatible pair (T1, T2) for two-fold composition tests."""
    rng = random.Random(seed)
    sigma = random_alphabet(rng, "a")
    middle = random_alphabet(rng, "m")
    delta = random_alphabet(rng, "b")
    t1 = random_transducer(rng, "T1s%d" % seed, sigma, middle)
    t2 = random_transducer(rng, "T2s%d" % seed, middle, delta)
    return t1, t2


def random_chain3(seed: int) -> CompositionChain:
    """A three-stage chain, kept small so chain reduction stays desk-sized."""
    rng = random.Random(seed)
    a0 = random_alphabet(rng, "a")
    a1 = random_alphabet(rng, "m")
    a2 = random_alphabet(rng, "n")
    a3 = random_alphabet(rng, "b")
    return CompositionChain(
        (
            random_transducer(rng, "C1s%d" % seed, a0, a1, 2, 5),
            random_transducer(rng, "C2s%d" % seed, a1, a2, 2, 5),
            random_transducer(rng, "C3s%d" % seed, a2, a3, 2, 5),
        )
    )

"""Seeded random-machine property suite (the acceptance module reruns the
same checks at the full advertised counts)."""

import os
import random
import subprocess
import sys

import pytest

from ttc import (
    build_m,
    chain_outputs,
    check_functional_bounded,
    decide_functionality,
    decompose_la,
)
from ttc.generate import random_alphabet, random_chain3, random_pair, random_transducer

from .conftest import domain_of
from . import pair_properties
from ttc.machines import _Classes, _label

from .oracles import (
    all_trees,
    dom_member,
    rewrite_translate,
    set_productive,
    staged_compose,
    translate_la_eager,
    wrap_trivial_lookahead,
)

PAIR_SEEDS = range(60)
CHAIN_SEEDS = range(20)


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_pair_property_suite(seed):
    t1, t2 = random_pair(seed)
    pair_properties.check_pair(t1, t2, size=4, verdict_bound=4)


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_translate_matches_rewrite_oracle(seed):
    for machine in random_pair(seed):
        for s in all_trees(machine.input_alphabet, 5):
            assert machine.translate(s) == frozenset(rewrite_translate(machine, s)), s.text


def larger_pair(seed):
    """`random_pair`'s draws, with up to 4 states and 8 rules a machine."""
    rng = random.Random(seed)
    sigma, middle, delta = [random_alphabet(rng, prefix) for prefix in "amb"]
    t1 = random_transducer(rng, "T1s%d" % seed, sigma, middle, 4, 8)
    t2 = random_transducer(rng, "T2s%d" % seed, middle, delta, 4, 8)
    return t1, t2


@pytest.mark.parametrize("seed", range(30))
def test_translate_matches_oracle_at_larger_bounds(seed):
    """Same agreement with up to 4 states and 8 rules on inputs of size 6."""
    for machine in larger_pair(seed + 10_000):
        for s in all_trees(machine.input_alphabet, 6):
            assert machine.translate(s) == frozenset(rewrite_translate(machine, s)), s.text


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_lazy_lookahead_matches_eager(seed):
    t1, t2 = random_pair(seed)
    m, _ = build_m(t1, t2)
    for s in all_trees(m.input_alphabet, 4):
        assert m.translate_la(s) == translate_la_eager(m, s), s.text


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_dom_member_iff_translation_nonempty(seed):
    for machine in random_pair(seed):
        for s in all_trees(machine.input_alphabet, 4):
            for q in sorted(machine.states):
                assert dom_member(machine, q, s) == bool(rewrite_translate(machine, s, q))


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_trivial_lookahead_matches_plain(seed):
    """Plain and look-ahead semantics share one evaluator and one subtree
    class; a universal look-ahead guard must change neither the outputs nor
    the states with exactly one output."""

    def one(base, la, s):
        cl = _Classes(base, la)
        return cl.classes[_label(cl, s)][1]

    for machine in random_pair(seed):
        wrapped = wrap_trivial_lookahead(machine)
        kept = {q.name for q in wrapped.base.states}  # the trim drops unreachable states
        for s in all_trees(machine.input_alphabet, 5):
            assert wrapped.translate_la(s) == machine.translate(s), s.text
            assert one(wrapped.base, wrapped.la, s) == one(machine, None, s) & kept, s.text


@pytest.mark.parametrize("seed", PAIR_SEEDS)
def test_dom_empty_iff_enumeration_empty(seed):
    for machine in random_pair(seed):
        for q in sorted(machine.states):
            assert (not set_productive(machine, {q})) == (domain_of(machine, q, 6) == [])


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_chain_outputs_match_staged_oracle(seed):
    chain = random_chain3(seed)
    for s in all_trees(chain.stages[0].input_alphabet, 4):
        assert chain_outputs(chain, s) == frozenset(staged_compose(chain.stages, s))


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_decide_agrees_with_direct_check(seed):
    chain = random_chain3(seed)
    via_m, _ = decide_functionality(chain, 4)
    direct = check_functional_bounded(chain, 4)
    assert via_m.status == direct.status


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_one_reduction_step_preserves_verdicts(seed):
    from ttc import reduce_chain

    chain = random_chain3(seed)
    reduced, _ = reduce_chain(chain)
    assert len(reduced) == len(chain) - 1
    before = check_functional_bounded(chain, 4)
    after = check_functional_bounded(reduced, 4)
    assert before.status == after.status


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_decompose_contract_on_built_machines(seed):
    chain = random_chain3(seed)
    m, _ = build_m(chain.stages[1], chain.stages[2])
    relabeling, reader = decompose_la(m)
    for s in all_trees(m.input_alphabet, 4):
        composed = set()
        for mid in relabeling.translate(s):
            composed |= reader.translate(mid)
        assert frozenset(composed) == m.translate_la(s), s.text


_DETERMINISM_SNIPPET = """
import sys
sys.path.insert(0, %r)
from ttc import build_m, parse_workspace, decide_functionality
from ttc.generate import random_pair
from ttc.render import serialize_machine, to_json, verdict_json
ws = parse_workspace(open(%r).read())
m, _ = build_m(ws.machines["ex4_t1"], ws.machines["ex4_t2"])
sys.stdout.write(serialize_machine(m, name="m"))
m, _ = build_m(*random_pair(26))
sys.stdout.write(serialize_machine(m, name="m26"))
verdict, _ = decide_functionality(ws.chains["worked"], 4)
sys.stdout.write(to_json(verdict_json(verdict)))
"""


def test_constructions_are_hash_seed_independent(tmp_path):
    """Byte-for-byte identical serialization under different hash seeds."""
    src = str(pathlib_src())
    fixture = os.path.join(os.path.dirname(__file__), "data", "fixtures.ttc")
    snippet = _DETERMINISM_SNIPPET % (src, fixture)
    outputs = set()
    for seed in ("0", "12345", "random"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        got = subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, check=True
        )
        outputs.add(got.stdout)
    assert len(outputs) == 1


def pathlib_src():
    import pathlib

    return pathlib.Path(__file__).resolve().parents[1] / "src"

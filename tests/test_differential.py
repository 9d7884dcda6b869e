"""A pinned differential: SHA-256 digests of the constructions' listings and
of the check's verdicts on seeded random machines.

A change meant to keep behaviour (a refactor, a speedup) must leave every
digest as it is.  A change that alters a listing, a report or a verdict on
purpose re-pins the digest it moves, and says in CHANGES.md why the new
records are the right ones.  On a mismatch, the group's name says which
construction moved; a diff of its records against the parent commit's says
where.
"""

import hashlib

import pytest

from ttc import CompositionChain, LookaheadTransducer
from ttc.constructions import (
    build_hat_t1,
    build_m,
    decompose_la,
    domain_automaton,
    p_construction,
    reduce_chain,
)
from ttc.decision import decide_functionality
from ttc.generate import random_chain3, random_pair
from ttc.render import serialize_chain, serialize_machine, serialize_transducer

PAIRS = range(60)
CHAINS = range(60)
DECIDED_PAIRS = range(100)
DECIDED_CHAINS = range(60)

PINNED = {
    "generator": "4bc5b5d1f6cdae1773180b9f4e015e0d5ebc13ca62a96022d057b0fcd932152c",
    "domain_automaton": "8e3167daf8fb69279becb4b469ce93e83b1142a3c92cc483b937d12e98ec4f3e",
    "hat": "42c213af176e60771fb897c92d92b8dc131604a0337ce0924ef1f892d6b84a7d",
    "p_construction": "11ec96044ca90b3d41b573fc8a14e1ee74b01286a9a85ee5bc93923284f8afaf",
    "build_m": "33da26dc316ce9eb77c43b21f0491cef855fe9af0e401d96c9316da057fd3c8f",
    "decompose_la": "f7e1aa1c2ac5fb7a6a00f9c81efdeabadd2c1368f093d24af3282153fcaaa52b",
    "reduce_chain": "216946d54dfdc50a2308afd46779465fa1372d3f89855f2cdb7cfa7d8b737c28",
    "decide": "39a8c6524688a6c671c993c0ef4620cf7750a5f59f2b7abd50a5309e5f3d2f11",
    "decide_chain": "414ac3c78f901bbbd57d958b4ca8525fec9cef01a97a1f7eaf09f0f2eeaaa490",
}


def _machine_text(machine) -> str:
    """A listing of any machine: M over hat, whose look-ahead machine is not
    an automaton, lists its base rules with their annotations."""
    if isinstance(machine, LookaheadTransducer) and not machine.la.automaton:
        rules = "".join("%s\n" % r for r in machine.base.rules)
        return serialize_transducer(machine.base) + rules + serialize_transducer(machine.la)
    return serialize_machine(machine)


def _report_text(report) -> str:
    """Everything a report holds except its time."""
    stats = sorted((k, v) for k, v in report.stats.items() if k != "elapsed_ms")
    provenance = sorted((s.name, desc) for s, desc in report.provenance.items())
    return "%s %s %d %d %r %r\n%s" % (
        report.label,
        report.machine.name,
        report.states_before,
        report.states_after,
        stats,
        provenance,
        _machine_text(report.machine),
    )


def _records():
    """Each group's records, in a fixed order."""
    groups = {name: [] for name in PINNED}
    for seed in PAIRS:
        t1, t2 = random_pair(seed)
        groups["generator"] += [serialize_machine(t1), serialize_machine(t2)]
        groups["domain_automaton"].append(serialize_machine(domain_automaton(t2)))
        groups["hat"].append(serialize_machine(build_hat_t1(t1, t2)))
        product, sources = p_construction(t1, t2)
        groups["p_construction"].append(serialize_machine(product))
        groups["p_construction"] += ["%s <= %s" % (r, src) for r, src in sources]
        m, reports = build_m(t1, t2)
        groups["build_m"] += [serialize_machine(m)] + [_report_text(r) for r in reports]
        groups["decompose_la"] += [serialize_machine(t) for t in decompose_la(m)]
    for seed in CHAINS:
        chain = random_chain3(seed)
        groups["generator"].append(serialize_chain(chain))
        reduced, reports = reduce_chain(chain)
        groups["reduce_chain"] += [serialize_chain(reduced)] + [_report_text(r) for r in reports]
    for seed in DECIDED_PAIRS:
        groups["decide"] += _decided(CompositionChain(random_pair(seed)), 6)
    for seed in DECIDED_CHAINS:
        groups["decide_chain"] += _decided(random_chain3(seed), 5)
    return groups


def _decided(chain, bound) -> list[str]:
    """The verdict at the bound, without times, then each report."""
    verdict, reports = decide_functionality(chain, bound)
    ce = verdict.counterexample
    ce = None if ce is None else (ce.input.text, [o.text for o in ce.outputs])
    return ["%s %r %s" % (verdict.status, sorted(verdict.stats.items()), ce)] + [_report_text(r) for r in reports]


@pytest.fixture(scope="module")
def digests():
    return {
        name: hashlib.sha256("\x00".join(records).encode("utf-8")).hexdigest()
        for name, records in _records().items()
    }


@pytest.mark.parametrize("group", list(PINNED))
def test_records_match_their_pinned_digest(digests, group):
    assert digests[group] == PINNED[group]

"""Workspace texts of the three workloads, generated from a seed.

This module imports nothing from ttc, so the set-up probe can generate its
text before it starts the clock on ``import ttc``.

A machine is written here as a spec: alphabets, an initial state and rules
``(state, lhs, [rhs, ...])`` that use logical state names. The seed picks a
renaming of every state to a name of one fixed length and an order of the
rules inside each machine. Every seed therefore gives a different text with
exactly the same amount of work, so runs with different seeds are
comparable, and the output checks (which do not mention states) hold for
every seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

# -- the paper's worked pair ------------------------------------------------

WORKED_BOUND = 11

EX4_T1 = {
    "input": "f:2, e:0, d:0",
    "output": "f:2, f':2, e:0, d:0",
    "initial": "q0",
    "rules": [
        ("q0", "f(x1,x2)", ["f(q1(x1),q2(x2))", "q3(x2)"]),
        ("q1", "f(x1,x2)", ["f(q1(x1),q1(x2))", "f'(q1(x1),q1(x2))"]),
        ("q1", "e", ["e"]),
        ("q1", "d", ["d"]),
        ("q2", "f(x1,x2)", ["f(q2(x1),q1(x2))", "f'(q2(x1),q1(x2))"]),
        ("q2", "e", ["e"]),
        ("q3", "d", ["d"]),
    ],
}

EX4_T2 = {
    "input": "f:2, f':2, e:0, d:0",
    "output": "f:2, f':2, e:0, d:0",
    "initial": "p0",
    "rules": [
        ("p0", "f(x1,x2)", ["f(p1(x1),p2(x1))"]),
        ("p0", "d", ["d"]),
        ("p1", "f(x1,x2)", ["f(p1(x1),p1(x2))"]),
        ("p1", "f'(x1,x2)", ["f'(p1(x1),p2(x2))"]),
        ("p1", "e", ["e"]),
        ("p1", "d", ["d"]),
        ("p2", "f(x1,x2)", ["f(p2(x1),p2(x2))"]),
        ("p2", "e", ["e"]),
        ("p2", "d", ["d"]),
    ],
}

# -- the quadratic transducer and the identity automaton on its outputs -----

QUADRATIC_N = 160

QUADRATIC = {
    "input": "a:1, e:0",
    "output": "f:2, a:1, e:0",
    "initial": "q0",
    "rules": [
        ("q0", "a(x1)", ["f(q(x1),q0(x1))"]),
        ("q0", "e", ["e"]),
        ("q", "a(x1)", ["a(q(x1))"]),
        ("q", "e", ["e"]),
    ],
}

QUAD_OUT_ID = {
    "input": "f:2, a:1, e:0",
    "output": "f:2, a:1, e:0",
    "initial": "u",
    "rules": [
        ("u", "f(x1,x2)", ["f(u(x1),u(x2))"]),
        ("u", "a(x1)", ["a(u(x1))"]),
        ("u", "e", ["e"]),
    ],
}

# -- the rotation family ----------------------------------------------------

ROT_ALPHABET = "g:2, h:1, e:0, d:0"

ROT_T1 = {
    "input": ROT_ALPHABET,
    "output": ROT_ALPHABET,
    "initial": "q",
    "rules": [
        ("q", "g(x1,x2)", ["g(q(x1),q(x2))"]),
        ("q", "h(x1)", ["h(q(x1))", "g(q(x1),q(x1))"]),
        ("q", "e", ["e"]),
        ("q", "d", ["d", "e"]),
    ],
}


def rotation_t2(k: int) -> dict:
    """T2_k: k states c_i rotated by g (i -> i+1) and by h (i -> i+2), mod k."""
    rules = []
    for i in range(k):
        c, c1, c2 = "c%d" % i, "c%d" % ((i + 1) % k), "c%d" % ((i + 2) % k)
        rules.append((c, "g(x1,x2)", ["g(%s(x1),%s(x2))" % (c, c1)]))
        rules.append((c, "h(x1)", ["h(%s(x1))" % c2]))
        rules.append((c, "e", ["e"]))
    rules.append(("c0", "d", ["d"]))
    return {"input": ROT_ALPHABET, "output": ROT_ALPHABET, "initial": "c0", "rules": rules}


@dataclass(frozen=True)
class Member:
    """One checked chain of the rotation family."""

    stages: tuple[str, ...]  # machine names, left to right
    k: int
    bound: int


# Fixed members, checked in this order on every operation. Between them the
# constructions (k=6 and the 3-stage chain) and the domain enumeration (k=3,
# bound 4) do most of the work.
ROTATION_MEMBERS = (
    Member(("t1", "t2"), 6, 3),
    Member(("t1", "t2"), 3, 4),
    Member(("t1", "t1", "t2"), 2, 3),
)


# -- rendering ----------------------------------------------------------------


def spec_states(spec: dict) -> list[str]:
    states = [spec["initial"]]
    for state, _, _ in spec["rules"]:
        if state not in states:
            states.append(state)
    return states


def rename(text: str, names: dict[str, str]) -> str:
    return NAME_RE.sub(lambda m: names.get(m.group(0), m.group(0)), text)


def seeded_spec(spec: dict, rng: random.Random, prefix: str) -> dict:
    """The spec with states renamed to ``<prefix><2 digits>`` and rules shuffled."""
    states = spec_states(spec)
    numbers = rng.sample(range(10, 100), len(states))
    names = {s: "%s%d" % (prefix, n) for s, n in zip(states, numbers)}
    rules = [(names[s], lhs, [rename(r, names) for r in rhss]) for s, lhs, rhss in spec["rules"]]
    rng.shuffle(rules)
    return {"input": spec["input"], "output": spec["output"], "initial": names[spec["initial"]], "rules": rules}


def render_transducer(name: str, spec: dict) -> str:
    lines = ["transducer %s {" % name]
    lines.append("  input { %s }" % spec["input"])
    lines.append("  output { %s }" % spec["output"])
    lines.append("  initial %s" % spec["initial"])
    lines.append("  rules {")
    for state, lhs, rhss in spec["rules"]:
        lines.append("    %s(%s) -> %s;" % (state, lhs, " | ".join(rhss)))
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workspace:
    """One workspace text plus the specs it was rendered from."""

    text: str
    specs: dict  # machine name -> seeded spec
    chain: str  # name of the chain an operation uses
    stages: tuple[str, ...]
    bound: int  # size bound of a check; the input size n of a run


def _workspace(specs: dict, stages: tuple[str, ...], bound: int) -> Workspace:
    text = "".join(render_transducer(name, spec) for name, spec in specs.items())
    text += "chain bench { %s }\n" % ", ".join(stages)
    return Workspace(text, specs, "bench", stages, bound)


def worked(seed: int) -> list[Workspace]:
    rng = random.Random(seed)
    specs = {"ex4_t1": seeded_spec(EX4_T1, rng, "q"), "ex4_t2": seeded_spec(EX4_T2, rng, "p")}
    return [_workspace(specs, ("ex4_t1", "ex4_t2"), WORKED_BOUND)]


def quadratic(seed: int, n: int = QUADRATIC_N) -> list[Workspace]:
    rng = random.Random(seed)
    specs = {"quadratic": seeded_spec(QUADRATIC, rng, "q"), "quad_out_id": seeded_spec(QUAD_OUT_ID, rng, "u")}
    return [_workspace(specs, ("quadratic", "quad_out_id"), n)]


def rotation(seed: int, members=ROTATION_MEMBERS) -> list[Workspace]:
    rng = random.Random(seed)
    out = []
    for member in members:
        specs = {"t1": seeded_spec(ROT_T1, rng, "q"), "t2": seeded_spec(rotation_t2(member.k), rng, "c")}
        out.append(_workspace(specs, member.stages, member.bound))
    return out


WORKLOADS = {
    "worked-check": worked,
    "rotation-check": rotation,
    "quadratic-chain": quadratic,
}


def spine(n: int) -> str:
    """The input a^n(e) of the quadratic workload, as text."""
    return "a(" * n + "e" + ")" * n

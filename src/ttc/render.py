"""Renderers: definition-language text, JSON, and DOT for machines, traces,
build reports, and verdicts.

Constructed machines may carry structured state ids ("(q,{p0})") and
annotated symbols that are not legal names in the definition language; the
text serializer then renames them canonically (s0, s1, ... in name order,
skipping the machine's symbols / a name made from the symbol) and records
the mapping in comments, so serialized output always reparses.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import count, groupby
from operator import attrgetter

from .constructions import BuildReport, CompositionChain
from .decision import DerivationTrace, Verdict
from .errors import ValidationError
from .machines import LookaheadTransducer, Rule, StateId, Transducer
from .trees import MARKER_TYPES, NAME_RE, VAR_RE, AnnotatedSymbol, StateOverVariable, Tree, sort_trees, subtree_at


def _safe(name) -> bool:
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None and not VAR_RE.fullmatch(name)


def _sanitized(text: str) -> str:
    """text with each run of non-name characters and '_' made one '_', then trimmed of '_'."""
    return re.sub(r"[^A-Za-z0-9']+", "_", text).strip("_")


def _safe_name(name: str) -> str:
    if _safe(name):
        return name
    cleaned = _sanitized(name)
    if not cleaned or not re.match(r"[A-Za-z_]", cleaned):
        cleaned = "m_" + cleaned
    return cleaned


def _state_map(machines) -> dict[StateId, str]:
    states = sorted({s for m in machines for s in m.states}, key=lambda s: s.name)
    if all(_safe(s.name) for s in states):
        return {s: s.name for s in states}
    symbols = {sym for m in machines for alpha in (m.input_alphabet, m.output_alphabet) for sym in alpha}
    fresh = ("s%d" % i for i in count())
    return {s: next(name for name in fresh if name not in symbols) for s in states}


def _symbol_map(machines) -> dict[object, str]:
    symbols = dict.fromkeys(
        sym for m in machines for alpha in (m.input_alphabet, m.output_alphabet) for sym in alpha
    )
    return {sym: sym if _safe(sym) else _content_name(sym) for sym in symbols}


def _content_name(sym) -> str:
    """Deterministic name derived from the symbol itself, so the same symbol
    renders identically in every block (chains stay alphabet-compatible)."""
    text = str(sym)
    body = _sanitized(text)[:24]
    digest = hashlib.sha1(text.encode("utf-8")).hexdigest()[:6]
    if not body or not re.match(r"[A-Za-z_]", body):
        body = "c"
    return "%s_%s" % (body, digest)


def _term_text(tree: Tree, marker, symbol, sep: str) -> str:
    """tree as text, written with an explicit stack of subtrees and closing
    text, so any depth renders: a marker leaf as marker(label), any other
    node as symbol(label), with its children's texts joined by sep in
    parentheses."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        lab = node.label
        if isinstance(lab, MARKER_TYPES):
            out.append(marker(lab))
        elif not node.children:
            out.append(symbol(lab))
        else:
            out.append("%s(" % symbol(lab))
            kids = node.children
            stack.append(")")
            for c in reversed(kids[1:]):
                stack += (c, sep)
            stack.append(kids[0])
    return "".join(out)


def _render_rhs(tree: Tree, states, symbols) -> str:
    """A right-hand side in the definition language."""
    return _term_text(tree, lambda lab: "%s(x%d)" % (states[lab.state], lab.index), symbols.__getitem__, ", ")


def _rule_lines(rules, states, symbols, la_states=None) -> list[str]:
    """A rules block: one line per run of rules with the same left-hand
    side, their right-hand sides joined by `|`.  The variables carry their
    look-ahead annotations only given the look-ahead states' names."""
    lines = ["  rules {"]
    for (q, symbol, lookahead), group in groupby(rules, key=attrgetter("state", "symbol", "lookahead")):
        group = list(group)
        args = ["x%d" % i for i in range(1, group[0].variables + 1)]
        if la_states is not None:
            args = ["%s:%s" % (x, la_states[l]) for x, l in zip(args, lookahead)]
        head = "%s(%s)" % (symbols[symbol], ", ".join(args)) if args else symbols[symbol]
        rhss = " | ".join(_render_rhs(r.rhs, states, symbols) for r in group)
        lines.append("    %s(%s) -> %s;" % (states[q], head, rhss))
    lines.append("  }")
    return lines


def _render_alphabet(alpha, symbols) -> str:
    return "{ %s }" % ", ".join("%s:%d" % (symbols[s], r) for s, r in alpha.items())


def _mapping_comments(mapping, kind) -> list[str]:
    lines = []
    for orig, renamed in mapping.items():
        label = orig.name if isinstance(orig, StateId) else str(orig)
        if label != renamed:
            lines.append("# %s %s = %s" % (kind, renamed, label))
    return lines


def _transducer_block(t: Transducer, name, states, symbols) -> str:
    lines = _mapping_comments(states, "state") + _mapping_comments(symbols, "symbol")
    lines.append("transducer %s {" % name)
    lines.append("  input %s" % _render_alphabet(t.input_alphabet, symbols))
    lines.append("  output %s" % _render_alphabet(t.output_alphabet, symbols))
    lines.append("  initial %s" % states[t.initial])
    undeclared = t.states - {t.initial} - {r.state for r in t.rules}
    if undeclared:
        lines.append("  states { %s }" % ", ".join(sorted(states[s] for s in undeclared)))
    lines += _rule_lines(t.rules, states, symbols)
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_transducer(t: Transducer, name: str | None = None) -> str:
    return _transducer_block(t, _safe_name(name or t.name), _state_map([t]), _symbol_map([t]))


def serialize_lookahead(m: LookaheadTransducer, name: str | None = None) -> str:
    """Three blocks: the base as a plain transducer (without annotations, it
    only declares states and alphabets), the look-ahead automaton, and the
    lookahead block holding the annotated rules."""
    if not m.la.automaton:
        raise ValidationError("only a look-ahead automaton has a listing, as build_m's M has")
    name = _safe_name(name or m.name)
    base_states = _state_map([m.base])
    la_states = _state_map([m.la])
    symbols = _symbol_map([m.base])
    out = [
        _transducer_block(m.base, "%s_base" % name, base_states, symbols),
        _transducer_block(m.la, "%s_la" % name, la_states, _symbol_map([m.la])),
    ]
    lines = ["lookahead %s {" % name, "  base %s_base" % name, "  la %s_la" % name]
    lines += _rule_lines(m.base.rules, base_states, symbols, la_states)
    lines.append("}")
    out.append("\n".join(lines) + "\n")
    return "\n".join(out)


def serialize_machine(machine, name: str | None = None) -> str:
    if isinstance(machine, LookaheadTransducer):
        return serialize_lookahead(machine, name)
    return serialize_transducer(machine, name)


def serialize_chain(chain: CompositionChain, name: str = "chain") -> str:
    blocks = [serialize_transducer(t, name="%s_%d" % (name, i)) for i, t in enumerate(chain.stages, 1)]
    blocks.append("chain %s { %s }\n" % (name, ", ".join("%s_%d" % (name, i) for i in range(1, len(chain.stages) + 1))))
    return "\n".join(blocks)


# -- JSON ---------------------------------------------------------------------


def tree_json(tree: Tree):
    """tree as nested dicts, filled top down with an explicit stack, so any
    depth converts."""

    def node_json(node):
        lab = node.label
        if isinstance(lab, StateOverVariable):
            return {"state": lab.state.name, "variable": lab.index}
        return {"symbol": symbol_json(lab), "children": []}

    root = node_json(tree)
    stack = [(tree, root)]
    while stack:
        node, doc = stack.pop()
        for c in node.children:
            kid = node_json(c)
            doc["children"].append(kid)
            stack.append((c, kid))
    return root


def symbol_json(sym):
    if isinstance(sym, AnnotatedSymbol):
        return {"name": sym.name, "annotations": [str(a) for a in sym.annotations]}
    return sym


def rule_json(rule: Rule):
    out = {
        "state": rule.state.name,
        "symbol": symbol_json(rule.symbol),
        "variables": rule.variables,
        "rhs": tree_json(rule.rhs),
    }
    if rule.lookahead is not None:
        out["lookahead"] = [l.name for l in rule.lookahead]
    return out


def alphabet_json(alpha):
    return [{"symbol": symbol_json(s), "rank": r} for s, r in alpha.items()]


def transducer_json(t: Transducer):
    return {
        "kind": "transducer",
        "name": t.name,
        "input": alphabet_json(t.input_alphabet),
        "output": alphabet_json(t.output_alphabet),
        "initial": t.initial.name,
        "states": sorted(s.name for s in t.states),
        "rules": [rule_json(r) for r in t.rules],
    }


def machine_json(machine):
    if isinstance(machine, LookaheadTransducer):
        base = transducer_json(machine.base)
        base["kind"] = "lookahead-transducer"
        base["la"] = transducer_json(machine.la)
        return base
    return transducer_json(machine)


def verdict_json(verdict: Verdict):
    ce = None
    if verdict.counterexample is not None:
        ce = {
            "input": verdict.counterexample.input.text,
            "outputs": [o.text for o in verdict.counterexample.outputs],
        }
    return {
        "status": verdict.status,
        "bound": verdict.bound,
        "counterexample": ce,
        "stats": verdict.stats,
    }


def report_json(report: BuildReport):
    return {
        "label": report.label,
        "machine": report.name,
        "states_before": report.states_before,
        "states_after": report.states_after,
        "provenance": {s.name: desc for s, desc in sorted(report.provenance.items(), key=lambda kv: kv[0].name)},
        "stats": report.stats,
    }


def trace_json(trace: DerivationTrace):
    return {
        "machine": trace.machine.name,
        "input": trace.input.text,
        "complete": trace.complete,
        "final": trace.final.text,
        "steps": [
            {"node": str(s.node), "rule": s.rule_index, "form": s.form.text}
            for s in trace.steps
        ],
    }


def to_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) and a newline, for string
    keys, written with an explicit stack of values and text, so any depth of
    nesting writes: the standard encoder recurses once per level."""
    out = []
    stack = [(obj, "")]  # (value, its indent), or (text, None)
    while stack:
        value, pad = stack.pop()
        if pad is None:
            out.append(value)
            continue
        if isinstance(value, dict) and value:
            items = [(json.dumps(k) + ": ", v) for k, v in sorted(value.items())]
            brackets = "{}"
        elif isinstance(value, (list, tuple)) and value:
            items = [("", v) for v in value]
            brackets = "[]"
        else:
            out.append(json.dumps(value))
            continue
        inner = pad + "  "
        out.append(brackets[0])
        stack.append(("\n" + pad + brackets[1], None))
        for i in reversed(range(len(items))):
            key, v = items[i]
            stack += ((v, inner), ("%s\n%s%s" % ("," if i else "", inner, key), None))
    return "".join(out) + "\n"


# -- DOT ----------------------------------------------------------------------


def _quote(s: str) -> str:
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def machine_dot(machine) -> str:
    base = machine.base if isinstance(machine, LookaheadTransducer) else machine
    lines = ["digraph machine {", "  rankdir=LR;"]
    for s in sorted(base.states, key=lambda s: s.name):
        shape = "doubleoctagon" if s == base.initial else "ellipse"
        lines.append("  %s [shape=%s];" % (_quote(s.name), shape))
    for i, rule in enumerate(base.rules, start=1):
        targets = sorted({q for req in rule.child_states for q in req}, key=lambda s: s.name)
        label = "%d: %s" % (i, rule.lhs_text())
        if not targets:
            lines.append("  %s -> %s [label=%s, style=dotted];" % (_quote(rule.state.name), _quote(str(rule.rhs)), _quote(label)))
        for q in targets:
            lines.append("  %s -> %s [label=%s];" % (_quote(rule.state.name), _quote(q.name), _quote(label)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_form(form: Tree, source: Tree) -> str:
    """Render a sentential form with each marker showing its input subtree."""
    return _term_text(form, lambda lab: "%s(%s)" % (lab.state, subtree_at(source, lab.node).text), str, ",")


def trace_dot(trace: DerivationTrace) -> str:
    """The derivation chain: sentential forms as nodes, rule applications as edges."""
    lines = ["digraph derivation {", "  rankdir=LR;", "  node [shape=box];"]
    forms = ["%s(%s)" % (trace.machine.initial, trace.input.text)]
    for step in trace.steps:
        forms.append(render_form(step.form, trace.input))
    for i, form in enumerate(forms):
        lines.append("  n%d [label=%s];" % (i, _quote(form)))
    for i, step in enumerate(trace.steps):
        lines.append("  n%d -> n%d [label=%s];" % (i, i + 1, _quote("%d @ %s" % (step.rule_index, step.node))))
    lines.append("}")
    return "\n".join(lines) + "\n"


def verdict_dot(verdict: Verdict) -> str:
    lines = ["digraph verdict {", "  node [shape=box];"]
    lines.append("  status [label=%s];" % _quote("%s (bound %d)" % (verdict.status, verdict.bound)))
    if verdict.counterexample is not None:
        lines.append("  input [label=%s];" % _quote(verdict.counterexample.input.text))
        for i, out in enumerate(verdict.counterexample.outputs):
            lines.append("  out%d [label=%s];" % (i, _quote(out.text)))
            lines.append("  input -> out%d;" % i)
    lines.append("}")
    return "\n".join(lines) + "\n"


def verdict_text(verdict: Verdict) -> str:
    lines = ["%s (bound %d)" % (verdict.status, verdict.bound)]
    if verdict.counterexample is not None:
        lines.append("counterexample input: %s" % verdict.counterexample.input.text)
        for out in verdict.counterexample.outputs:
            lines.append("  output: %s" % out.text)
    lines.append(
        "inputs checked: %d, outputs computed: %d"
        % (verdict.stats.get("inputs_checked", 0), verdict.stats.get("outputs_computed", 0))
    )
    return "\n".join(lines) + "\n"


def trace_text(trace: DerivationTrace) -> str:
    lines = ["%s(%s)" % (trace.machine.initial, trace.input.text)]
    for step in trace.steps:
        lines.append(
            "  =%d@%s=> %s" % (step.rule_index, step.node, render_form(step.form, trace.input))
        )
    lines.append("complete" if trace.complete else "stuck")
    return "\n".join(lines) + "\n"


def report_text(report: BuildReport) -> str:
    return "%s: %s, states %d -> %d (%.3f ms)\n" % (
        report.label,
        report.name,
        report.states_before,
        report.states_after,
        report.stats.get("elapsed_ms", 0.0),
    )


def outputs_text(trees) -> str:
    ordered = sort_trees(trees)
    if not ordered:
        return "(empty)\n"
    return "\n".join(t.text for t in ordered) + "\n"

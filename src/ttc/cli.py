"""Command-line interface.

Workspace files (.ttc) define machines and chains; one command runs per
process.  Exit status: 0 on success, 1 when a functionality check returns
not-functional, 2 on any error, including a usage error and an unexpected
exception such as RecursionError on a very deep input.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from functools import partial

from . import render
from .constructions import (
    CompositionChain,
    build_hat_t1,
    build_m,
    compose_linear_nondeleting,
    decompose_la,
    domain_automaton,
    p_construction,
    reduce_chain,
)
from .decision import chain_outputs, check_functional_bounded, decide_functionality, trace_derivation
from .errors import TtcError, TtcSyntaxError
from .machines import LookaheadTransducer, Transducer
from .textform import Workspace, parse_workspace
from .trees import parse_tree, sort_trees


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttc",
        description="Top-down tree transducer compositions: constructions, checks, traces.",
    )
    parser.add_argument(
        "-w",
        "--workspace",
        action="append",
        default=[],
        metavar="FILE",
        help="definition file (.ttc); repeatable, later files see earlier names",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="add seeded random machines rnd_t1/rnd_t2 and chains rnd_pair/rnd_chain3 "
        "to the workspace (property-test harness)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, target=None, pair=False, inp=False, formats=("text", "json", "dot")):
        """p's options; target is "machine", "chain", or "either" for exactly one of the two."""
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH", help="write the result to PATH instead of stdout")
        if target == "either":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--machine", metavar="NAME")
            group.add_argument("--chain", metavar="NAME")
        elif target:
            p.add_argument("--" + target, metavar="NAME", required=True)
        if pair:
            p.add_argument("--t1", required=True)
            p.add_argument("--t2", required=True)
        if inp:
            p.add_argument("--input", metavar="TREE", required=True)
        return p

    common(sub.add_parser("run", help="translate an input tree"), "either", inp=True, formats=("text", "json"))
    common(sub.add_parser("domaut", help="domain automaton of a transducer"), "machine")
    common(sub.add_parser("hat", help="domain-restricted first component"), pair=True)
    common(sub.add_parser("product", help="p-construction of two transducers"), pair=True)
    common(sub.add_parser("build-m", help="look-ahead transducer for a pair"), pair=True)
    common(sub.add_parser("decompose-la", help="split a look-ahead transducer into relabeling and reader"), "machine")
    common(sub.add_parser("fuse", help="fuse with a linear nondeleting second component"), pair=True)
    common(sub.add_parser("reduce", help="shorten a chain by one stage"), "chain")
    p = common(sub.add_parser("check", help="bounded functionality check"), "either")
    p.add_argument("--max-size", type=int, default=5, metavar="N")
    p = common(sub.add_parser("trace", help="one derivation of an input"), "machine", inp=True)
    p.add_argument("--branch", type=int, default=0, metavar="I")
    return parser


def _parsed(source: str, parse, *args):
    """parse(*args), with a syntax error naming its source."""
    try:
        return parse(*args)
    except TtcSyntaxError as exc:
        raise TtcError("%s: %s" % (source, exc)) from None


def _plain(command: str, *machines):
    """machines, each of which must be a plain transducer for command."""
    if not all(isinstance(m, Transducer) for m in machines):
        raise TtcError("%s needs %s" % (command, "plain transducers" if len(machines) > 1 else "a plain transducer"))
    return machines


def _views(result, text=render.serialize_machine, doc=render.machine_json, dot=render.machine_dot):
    """result's text, document and graphs, a machine's by default, each rendered when called."""
    return tuple(partial(f, result) for f in (text, doc, dot))


def _result(command: str, args, workspace: Workspace):
    """(exit status, build reports, (text, document, graphs)) of one command,
    each of the last three built when called."""
    if command == "run":
        # checked against the alphabet by the entry point below
        tree = _parsed("--input", parse_tree, args.input)
        if args.chain:
            outs = chain_outputs(workspace.chain(args.chain), tree)
        else:
            machine = workspace.machine(args.machine)
            outs = machine.translate_la(tree) if isinstance(machine, LookaheadTransducer) else machine.translate(tree)
        return 0, [], (
            lambda: render.outputs_text(outs),
            lambda: {"input": tree.text, "outputs": [t.text for t in sort_trees(outs)]},
            None,  # run has no DOT format
        )

    if command == "domaut":
        (machine,) = _plain(command, workspace.machine(args.machine))
        return 0, [], _views(domain_automaton(machine))

    if command in ("hat", "product", "fuse", "build-m"):
        t1, t2 = _plain(command, workspace.machine(args.t1), workspace.machine(args.t2))
        if command == "hat":
            return 0, [], _views(build_hat_t1(t1, t2))
        if command == "product":
            return 0, [], _views(p_construction(t1, t2)[0])
        if command == "fuse":
            return 0, [], _views(compose_linear_nondeleting(t1, t2))
        m, reports = build_m(t1, t2)
        return 0, reports, _views(m)

    if command == "decompose-la":
        machine = workspace.machine(args.machine)
        if not isinstance(machine, LookaheadTransducer):
            raise TtcError("decompose-la needs a look-ahead transducer")
        parts = decompose_la(machine)
        return 0, [], (
            lambda: "\n".join(map(render.serialize_machine, parts)),
            lambda: dict(zip(("relabeling", "reader"), map(render.machine_json, parts))),
            lambda: "\n".join(map(render.machine_dot, parts)),
        )

    if command == "reduce":
        reduced, reports = reduce_chain(workspace.chain(args.chain))
        return 0, reports, (
            lambda: render.serialize_chain(reduced, name="reduced"),
            lambda: {"stages": [render.machine_json(t) for t in reduced.stages]},
            lambda: "\n".join(map(render.machine_dot, reduced.stages)),
        )

    if command == "check":
        if args.chain:
            verdict, reports = decide_functionality(workspace.chain(args.chain), args.max_size)
        else:
            verdict, reports = check_functional_bounded(workspace.machine(args.machine), args.max_size), []
        return 0 if verdict.functional else 1, reports, _views(verdict, render.verdict_text, render.verdict_json, render.verdict_dot)

    if command == "trace":
        (machine,) = _plain(command, workspace.machine(args.machine))
        tree = _parsed("--input", parse_tree, args.input, machine.input_alphabet)
        trace = trace_derivation(machine, tree, branch=args.branch)
        return 0, [], _views(trace, render.trace_text, render.trace_json, render.trace_dot)

    raise TtcError("unknown command %r" % command)


def dispatch(command: str, args, workspace: Workspace) -> tuple[int, str]:
    """Execute one command against a parsed workspace; returns (exit status,
    text).  One policy renders every result: text is the reports' lines,
    then the result's text; JSON is the result's document, with "reports"
    added when there are any; DOT is the graphs alone."""
    status, reports, (text, doc, dot) = _result(command, args, workspace)
    if args.format == "dot":
        return status, dot()
    if args.format == "json":
        result = doc()
        if reports:
            result["reports"] = [render.report_json(r) for r in reports]
        return status, render.to_json(result)
    return status, "".join(map(render.report_text, reports)) + text()


def _add_seeded_machines(workspace: Workspace, seed: int) -> None:
    from .generate import random_chain3, random_pair

    t1, t2 = random_pair(seed)
    chain3 = random_chain3(seed)
    machines = {"rnd_t1": t1, "rnd_t2": t2}
    machines.update(("rnd_c%d" % i, stage) for i, stage in enumerate(chain3.stages, start=1))
    chains = {"rnd_pair": CompositionChain((t1, t2)), "rnd_chain3": chain3}
    clash = [n for n in (*machines, *chains) if n in workspace.machines or n in workspace.chains]
    if clash:
        raise TtcError("--seed adds %s, which the workspace already defines" % ", ".join(map(repr, clash)))
    workspace.machines.update(machines)
    workspace.chains.update(chains)


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        workspace = Workspace()
        for path in args.workspace:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except UnicodeDecodeError as exc:  # an input error, like an unreadable file
                raise TtcError("%s is not UTF-8: %s" % (path, exc)) from None
            _parsed(path, parse_workspace, text, workspace)
        if args.seed is not None:
            _add_seeded_machines(workspace, args.seed)
        status, text = dispatch(args.command, args, workspace)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (TtcError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of the input: exit 1 is reserved for a
        # not-functional verdict, so report it as an error with its traceback
        traceback.print_exc()
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())

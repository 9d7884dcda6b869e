"""Command-line interface.

Workspace files (.ttc) define machines and chains; one command runs per
process.  Exit status: 0 on success, 1 when a functionality check returns
not-functional, 2 on any error, including an unexpected exception such as
RecursionError on a very deep input.
"""

from __future__ import annotations

import argparse
import sys
import traceback

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

    def common(p, machine=False, chain=False, inp=False, formats=("text", "json", "dot")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH", help="write the result to PATH instead of stdout")
        if machine:
            p.add_argument("--machine", metavar="NAME")
        if chain:
            p.add_argument("--chain", metavar="NAME")
        if inp:
            p.add_argument("--input", metavar="TREE", required=True)
        return p

    common(sub.add_parser("run", help="translate an input tree"), machine=True, chain=True, inp=True, formats=("text", "json"))
    common(sub.add_parser("domaut", help="domain automaton of a transducer"), machine=True)
    p = common(sub.add_parser("hat", help="domain-restricted first component"))
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p = common(sub.add_parser("product", help="p-construction of two transducers"))
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p = common(sub.add_parser("build-m", help="look-ahead transducer for a pair"))
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    common(sub.add_parser("decompose-la", help="split a look-ahead transducer into relabeling and reader"), machine=True)
    p = common(sub.add_parser("fuse", help="fuse with a linear nondeleting second component"))
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    common(sub.add_parser("reduce", help="shorten a chain by one stage"), chain=True)
    p = common(sub.add_parser("check", help="bounded functionality check"), machine=True, chain=True)
    p.add_argument("--max-size", type=int, default=5, metavar="N")
    p = common(sub.add_parser("trace", help="one derivation of an input"), machine=True, inp=True)
    p.add_argument("--branch", type=int, default=0, metavar="I")
    return parser


def _machine_output(machine, fmt):
    if fmt == "json":
        return render.to_json(render.machine_json(machine))
    if fmt == "dot":
        return render.machine_dot(machine)
    return render.serialize_machine(machine)


def _parsed(source: str, parse, *args):
    """parse(*args), with a syntax error naming its source."""
    try:
        return parse(*args)
    except TtcSyntaxError as exc:
        raise TtcError("%s: %s" % (source, exc)) from None


def _require(args, attr):
    value = getattr(args, attr, None)
    if value is None:
        raise TtcError("this command needs --%s" % attr)
    return value


def dispatch(command: str, args, workspace: Workspace) -> tuple[int, str]:
    """Execute one command against a parsed workspace; returns (exit status, text)."""
    fmt = getattr(args, "format", "text")

    if command == "run":
        # checked against the alphabet by the entry point below
        tree = _parsed("--input", parse_tree, args.input)
        if getattr(args, "chain", None):
            outs = chain_outputs(workspace.chain(args.chain), tree)
        else:
            machine = workspace.machine(_require(args, "machine"))
            outs = machine.translate_la(tree) if isinstance(machine, LookaheadTransducer) else machine.translate(tree)
        if fmt == "json":
            return 0, render.to_json({"input": tree.text, "outputs": [t.text for t in sort_trees(outs)]})
        return 0, render.outputs_text(outs)

    if command == "domaut":
        machine = workspace.machine(_require(args, "machine"))
        if not isinstance(machine, Transducer):
            raise TtcError("domaut needs a plain transducer")
        return 0, _machine_output(domain_automaton(machine), fmt)

    if command in ("hat", "product", "fuse", "build-m"):
        t1 = workspace.machine(args.t1)
        t2 = workspace.machine(args.t2)
        if not (isinstance(t1, Transducer) and isinstance(t2, Transducer)):
            raise TtcError("%s needs plain transducers" % command)
        if command == "hat":
            return 0, _machine_output(build_hat_t1(t1, t2), fmt)
        if command == "product":
            machine, _ = p_construction(t1, t2)
            return 0, _machine_output(machine, fmt)
        if command == "fuse":
            return 0, _machine_output(compose_linear_nondeleting(t1, t2), fmt)
        m, reports = build_m(t1, t2)
        if fmt == "json":
            doc = render.machine_json(m)
            doc["reports"] = [render.report_json(r) for r in reports]
            return 0, render.to_json(doc)
        if fmt == "dot":
            return 0, render.machine_dot(m)
        text = "".join(render.report_text(r) for r in reports)
        return 0, text + _machine_output(m, fmt)

    if command == "decompose-la":
        machine = workspace.machine(_require(args, "machine"))
        if not isinstance(machine, LookaheadTransducer):
            raise TtcError("decompose-la needs a look-ahead transducer")
        relabeling, reader = decompose_la(machine)
        if fmt == "json":
            return 0, render.to_json(
                {"relabeling": render.machine_json(relabeling), "reader": render.machine_json(reader)}
            )
        return 0, _machine_output(relabeling, fmt) + "\n" + _machine_output(reader, fmt)

    if command == "reduce":
        chain = workspace.chain(_require(args, "chain"))
        reduced, reports = reduce_chain(chain)
        if fmt == "json":
            return 0, render.to_json(
                {
                    "stages": [render.machine_json(t) for t in reduced.stages],
                    "reports": [render.report_json(r) for r in reports],
                }
            )
        if fmt == "dot":
            return 0, "\n".join(render.machine_dot(t) for t in reduced.stages)
        text = "".join(render.report_text(r) for r in reports)
        return 0, text + render.serialize_chain(reduced, name="reduced")

    if command == "check":
        if getattr(args, "chain", None):
            chain = workspace.chain(args.chain)
            verdict, reports = decide_functionality(chain, args.max_size)
        else:
            machine = workspace.machine(_require(args, "machine"))
            verdict = check_functional_bounded(machine, args.max_size)
            reports = []
        status = 0 if verdict.functional else 1
        if fmt == "json":
            doc = render.verdict_json(verdict)
            if reports:
                doc["reports"] = [render.report_json(r) for r in reports]
            return status, render.to_json(doc)
        if fmt == "dot":
            return status, render.verdict_dot(verdict)
        text = "".join(render.report_text(r) for r in reports)
        return status, text + render.verdict_text(verdict)

    if command == "trace":
        machine = workspace.machine(_require(args, "machine"))
        if not isinstance(machine, Transducer):
            raise TtcError("trace needs a plain transducer")
        tree = _parsed("--input", parse_tree, args.input, machine.input_alphabet)
        trace = trace_derivation(machine, tree, branch=args.branch)
        if fmt == "json":
            return 0, render.to_json(render.trace_json(trace))
        if fmt == "dot":
            return 0, render.trace_dot(trace)
        return 0, render.trace_text(trace)

    raise TtcError("unknown command %r" % command)


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
        if getattr(args, "output", None):
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

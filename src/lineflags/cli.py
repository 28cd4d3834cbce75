"""Command-line interface.

Subcommands:

* ``enum``    — list every orbit for given margins (text or JSON).
* ``hasse``   — the cover graph for given margins (DOT or JSON).
* ``compare`` — order two elements: ``<``, ``>``, ``=``, or incomparable,
  with the witnessing table position.
* ``verify``  — run the exhaustive move/order checks for given margins,
  optionally with geometric witnesses (exit 1 on failure).
* ``chain``   — a step-by-step move chain between two comparable
  elements (exit 3 when they are not comparable).

Elements are JSON objects ``{"b", "c", "m", "delta"}`` passed as a file
path, ``-`` for stdin, or an inline JSON string.  Exit codes: 0 success,
1 verification failure, 2 usage or input error, 3 not comparable.
``json`` is imported only where JSON is read or written, so the
commands that do neither start without it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .flagcore import (
    DecoratedMatrix,
    FlagError,
    TransportMatrix,
    ValidationError,
    element_from_obj,
    element_to_obj,
    render,
)
from .decorated import enumerate_orbits, rk_compare_witness, rk_first_difference
from .moves import _verified_poset, build_poset, find_chain, verify_equivalence
from .witness import identify_orbit, standard_configuration, verify_move_degeneration

__all__ = ["main"]


def _margins(text: str) -> tuple[int, ...]:
    """Comma-separated parts of ASCII digits only: ``int`` alone would
    also take signs, spaces, underscores and non-ASCII digits."""
    parts = text.split(",")
    if not all(x.isascii() and x.isdigit() for x in parts):
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    return tuple(map(int, parts))


def _load_element(arg: str) -> DecoratedMatrix:
    import json

    try:
        if arg == "-":
            text = sys.stdin.read()
        elif arg.lstrip().startswith("{"):
            text = arg
        else:
            text = Path(arg).read_text()
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, not JSON, an integer too long to convert or too deep.
        raise FlagError(str(exc)) from None
    element = element_from_obj(obj)
    if isinstance(element, TransportMatrix):
        raise ValidationError("EmptyDecoration")
    return element


def _cmd_enum(args) -> tuple[int, str]:
    elements = enumerate_orbits(args.b, args.c)
    if args.format == "json":
        import json

        return 0, json.dumps([element_to_obj(el) for el in elements], indent=2)
    return 0, "\n".join(render(el) for el in elements)


def _cmd_hasse(args) -> tuple[int, str]:
    poset = build_poset(args.b, args.c)
    if args.format == "json":
        obj = {
            "elements": [element_to_obj(el) for el in poset.elements],
            "covers": [[a, t] for (a, t) in poset.covers],
            "cover_kinds": [list(kinds) for kinds in poset.cover_kinds],
        }
        import json

        return 0, json.dumps(obj, indent=2)
    lines = ["digraph degeneration {", "  rankdir=BT;"]
    for k, el in enumerate(poset.elements):
        lines.append(f'  n{k} [label="{render(el)}"];')
    for (a, t), kinds in zip(poset.covers, poset.cover_kinds):
        label = ",".join(kinds)
        lines.append(f'  n{a} -> n{t} [label="{label}"];')
    lines.append("}")
    return 0, "\n".join(lines)


def _cmd_compare(args) -> tuple[int, str]:
    x = _load_element(args.lhs)
    y = _load_element(args.rhs)
    diff = rk_first_difference(x, y)
    if diff is None:
        return 0, "="
    fwd = rk_compare_witness(x, y)
    bwd = rk_compare_witness(y, x)
    if fwd is None or bwd is None:
        sign = "<" if fwd is None else ">"
        table, (i, j), xv, yv = diff
        return 0, f"{sign}\nstrict at {table}[{i},{j}]: {xv} vs {yv}"
    table, (i, j), xv, yv = fwd
    lines = ["incomparable", f"lhs<=rhs fails at {table}[{i},{j}]: {xv} vs {yv}"]
    table, (i, j), yv, xv = bwd
    lines.append(f"rhs<=lhs fails at {table}[{i},{j}]: {yv} vs {xv}")
    return 0, "\n".join(lines)


def _cmd_verify(args) -> tuple[int, str]:
    if args.witness:
        report, poset = _verified_poset(args.b, args.c)
    else:
        report = verify_equivalence(args.b, args.c)
    lines = [
        f"elements: {report.element_count}",
        f"covers: {report.cover_count}",
        f"move closure equals rank order: {'ok' if report.order_equivalent else 'FAIL'}",
        f"moves are covers: {'ok' if report.moves_are_covers else 'FAIL'}",
        f"covers are moves: {'ok' if report.covers_are_moves else 'FAIL'}",
        f"greedy chains reach every target: {'ok' if report.chains_ok else 'FAIL'}",
    ]
    passed = report.passed
    if args.witness:
        ident_ok = 0
        for el in poset.elements:
            config = standard_configuration(el.matrix, el.delta)
            if identify_orbit(config) == el:
                ident_ok += 1
        lines.append(f"orbit identification: {ident_ok}/{len(poset.elements)} ok")
        passed = passed and ident_ok == len(poset.elements)
        degen_ok = 0
        for (a, _), move in zip(poset.covers, poset.cover_moves):
            if verify_move_degeneration(poset.elements[a], move).passed:
                degen_ok += 1
        lines.append(f"degenerations: {degen_ok}/{len(poset.covers)} edges ok")
        passed = passed and degen_ok == len(poset.covers)
    for note in report.counterexamples:
        lines.append(f"counterexample: {note}")
    lines.append("PASS" if passed else "FAIL")
    return (0 if passed else 1), "\n".join(lines)


def _cmd_chain(args) -> tuple[int, str]:
    x = _load_element(args.lhs)
    y = _load_element(args.rhs)
    chain = find_chain(x, y)
    if chain is None:
        return 3, "not comparable"
    return 0, "\n".join(str(mv) for mv in chain)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineflags",
        description="Degeneration order on configurations of a line and two partial flags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list all orbits for given margins")
    p.add_argument("--b", type=_margins, required=True, help="row sums, e.g. 1,1,1")
    p.add_argument("--c", type=_margins, required=True, help="column sums")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("hasse", help="cover graph for given margins")
    p.add_argument("--b", type=_margins, required=True)
    p.add_argument("--c", type=_margins, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("compare", help="order two elements")
    p.add_argument("lhs", help="element: JSON file, '-' for stdin, or inline JSON")
    p.add_argument("rhs", help="element: JSON file, '-' for stdin, or inline JSON")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="exhaustive checks for given margins")
    p.add_argument("--b", type=_margins, required=True)
    p.add_argument("--c", type=_margins, required=True)
    p.add_argument(
        "--witness",
        action="store_true",
        help="also verify orbits and covers geometrically",
    )
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chain", help="move chain between two comparable elements")
    p.add_argument("lhs", help="element: JSON file, '-' for stdin, or inline JSON")
    p.add_argument("rhs", help="element: JSON file, '-' for stdin, or inline JSON")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=_cmd_chain)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code, text = args.func(args)
    except (FlagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text:
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

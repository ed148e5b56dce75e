"""Command-line front end.

Reads a JSON action description, runs the requested pipeline, and prints
a human-readable or machine-readable (--json) report.  Exit codes:
0 success, 2 invalid input or unmet precondition, 3 when --require-verdict
is set and the verdict is Unknown.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .classify import (
    UNKNOWN,
    class_group,
    min_displacement_rank,
    reflection_monoid,
    sign_group_singular_locus,
    verdict,
)
from .errors import InvalidInput, MultInvError
from .groups import DEFAULT_CLOSURE_CAP, close_group, fixed_sublattice
from .lattice import IntMatrix
from .laurent import fundamental_invariants_detailed, variable_labels
from .roots import build_root_system, find_reflections, is_reflection_group


@dataclass(frozen=True)
class ActionDescription:
    rank: int
    generators: tuple[IntMatrix, ...]
    base_override: tuple[tuple[int, ...], ...] | None
    labels: tuple[str, ...]


def load_action(doc) -> ActionDescription:
    """Validate a parsed JSON document into an ActionDescription."""
    if not isinstance(doc, dict):
        raise InvalidInput("top-level document must be a JSON object")
    rank = doc.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise InvalidInput("'rank' must be a nonnegative integer")
    raw_gens = doc.get("generators", [])
    if not isinstance(raw_gens, list):
        raise InvalidInput("'generators' must be a list of matrices")
    gens = []
    for gi, mat in enumerate(raw_gens):
        where = f"generators[{gi}]"
        if not isinstance(mat, list) or len(mat) != rank:
            raise InvalidInput(f"{where} must be a {rank}x{rank} matrix")
        for ri, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != rank:
                raise InvalidInput(f"{where}[{ri}] must have {rank} entries")
            for ci, x in enumerate(row):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InvalidInput(
                        f"{where}[{ri}][{ci}] must be an integer"
                    )
        m = IntMatrix(mat, ncols=rank)
        if m.det() not in (1, -1):
            raise InvalidInput(f"{where} has determinant {m.det()}, not +-1")
        gens.append(m)
    base = doc.get("base_override")
    if base is not None:
        base = _validate_base(base, rank)
    labels = doc.get("labels")
    if labels is None:
        labels = variable_labels(rank)
    else:
        if (
            not isinstance(labels, list)
            or len(labels) != rank
            or not all(isinstance(s, str) and s for s in labels)
        ):
            raise InvalidInput(f"'labels' must be {rank} nonempty strings")
        labels = tuple(labels)
    return ActionDescription(rank, tuple(gens), base, labels)


def _validate_base(base, rank):
    if not isinstance(base, list):
        raise InvalidInput("base override must be a list of root vectors")
    out = []
    for bi, vec in enumerate(base):
        if (
            not isinstance(vec, list)
            or len(vec) != rank
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in vec)
        ):
            raise InvalidInput(
                f"base_override[{bi}] must be an integer vector of length "
                f"{rank}"
            )
        out.append(tuple(vec))
    return tuple(out)


def _build_group(desc: ActionDescription, cap: int):
    return close_group(desc.generators, cap=cap, rank=desc.rank)


def frac_json(x) -> object:
    """Exact value for JSON: plain int when integral, 'p/q' otherwise."""
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _verdict_json(v):
    monoid = None
    if v.monoid is not None:
        monoid = {
            "units_rank": v.monoid.units_rank,
            "multipliers": list(v.monoid.positive.multipliers),
            "hilbert_basis": [list(m) for m in v.monoid.positive.hilbert_basis],
            "generator_count": v.monoid.generator_count,
        }
    return {"status": v.status, "rule": v.rule, "detail": v.detail,
            "monoid": monoid}


def _verdict_lines(v):
    lines = [f"verdict: {v.status} [{v.rule}]", f"  {v.detail}"]
    if v.monoid is not None and not v.monoid.is_group:
        basis = [list(m) for m in v.monoid.positive.hilbert_basis]
        lines.append(
            f"  units rank {v.monoid.units_rank}; generators in weight "
            f"coordinates: {basis}"
        )
    return lines


def cmd_analyze(desc: ActionDescription, cap: int):
    action = _build_group(desc, cap)
    fixed_rank = fixed_sublattice(action).rank
    effective_rank = action.rank - fixed_rank
    refls = find_reflections(action)
    height = None if action.order == 1 else min_displacement_rank(action)
    v = verdict(action, base=desc.base_override)
    report = {
        "command": "analyze",
        "rank": action.rank,
        "group_order": action.order,
        "reflection_count": len(refls),
        "is_reflection_group": is_reflection_group(action),
        "fixed_rank": fixed_rank,
        "effective_rank": effective_rank,
        "ideal_height": height,
        # rank(1 - g) is the same on the effective quotient as on the
        # lattice (see classify.verdict)
        "fixed_point_free_on_quotient": (action.order == 1
                                         or height == effective_rank),
        "verdict": _verdict_json(v),
    }
    lines = [
        f"rank:                {action.rank}",
        f"group order:         {action.order}",
        f"reflections:         {len(refls)}",
        f"reflection group:    {report['is_reflection_group']}",
        f"fixed rank:          {fixed_rank}",
        f"effective rank:      {effective_rank}",
        f"ideal height:        {'-' if height is None else height}",
        f"fixed point free:    {report['fixed_point_free_on_quotient']}"
        " (on the effective quotient)",
    ] + _verdict_lines(v)
    return report, lines, v


def _factored_label(inv, labels, weight_names):
    parts = []
    if inv.has_unit_prefix:
        factors = []
        for x, name in zip(inv.unit_prefix, labels):
            if x:
                factors.append(name if x == 1 else f"{name}^{x}")
        parts.append("*".join(factors))
    for name, power in zip(weight_names, inv.powers):
        if power == 1:
            parts.append(f"orb({name})")
        elif power:
            parts.append(f"orb({name})^{power}")
    return " * ".join(parts) if parts else "1"


def cmd_invariants(desc: ActionDescription, cap: int):
    action = _build_group(desc, cap)
    pipe = reflection_monoid(action, base=desc.base_override)
    rd = pipe.root_datum
    invs = fundamental_invariants_detailed(action, rd, pipe.weight_monoid)
    weight_names = [f"w{i + 1}" for i in range(rd.rank)]
    entries = []
    for inv in invs:
        entries.append(
            {
                "powers": list(inv.powers),
                "factored": _factored_label(inv, desc.labels, weight_names),
                "expanded": inv.polynomial.render(desc.labels),
            }
        )
    report = {
        "command": "invariants",
        "labels": list(desc.labels),
        "base": [list(a) for a in rd.base],
        "weights": [[frac_json(x) for x in w] for w in rd.fundamental_weights],
        "multipliers": list(pipe.weight_monoid.multipliers),
        "hilbert_basis": [list(m) for m in pipe.weight_monoid.hilbert_basis],
        "invariants": entries,
    }
    lines = [f"base:        {list(map(list, rd.base))}"]
    for i, w in enumerate(rd.fundamental_weights):
        lines.append(
            f"weight {weight_names[i]}:   ("
            + ", ".join(str(Fraction(x)) for x in w)
            + ")"
        )
    lines.append(f"multipliers: {list(pipe.weight_monoid.multipliers)}")
    lines.append(
        f"hilbert basis: {[list(m) for m in pipe.weight_monoid.hilbert_basis]}"
    )
    for i, e in enumerate(entries):
        lines.append(f"mu{i + 1} = {e['factored']}")
        lines.append(f"    = {e['expanded']}")
    return report, lines, None


def cmd_classgroup(desc: ActionDescription, cap: int):
    action = _build_group(desc, cap)
    cl = class_group(action)
    fg = build_root_system(action, base=desc.base_override).fundamental_group
    report = {
        "command": "classgroup",
        "class_group": {"divisors": list(cl.divisors), "description": str(cl)},
        "fundamental_group": {
            "divisors": list(fg.divisors),
            "description": str(fg),
        },
    }
    lines = [
        f"class group:       {cl}",
        f"fundamental group: {fg} (weight lattice / root lattice)",
    ]
    return report, lines, None


def cmd_hilbert_basis(desc: ActionDescription, cap: int):
    action = _build_group(desc, cap)
    pipe = reflection_monoid(action, base=desc.base_override)
    wm = pipe.weight_monoid
    report = {
        "command": "hilbert-basis",
        "multipliers": list(wm.multipliers),
        "box_points": [list(p) for p in wm.box_points],
        "hilbert_basis": [list(m) for m in wm.hilbert_basis],
        "cone_rays": [list(r) for r in wm.cone_rays],
        "units_rank": pipe.monoid.units_rank,
    }
    lines = [
        f"multipliers:   {list(wm.multipliers)}",
        f"box points:    {[list(p) for p in wm.box_points]}",
        f"hilbert basis: {[list(m) for m in wm.hilbert_basis]}",
        f"units rank:    {pipe.monoid.units_rank}",
    ]
    return report, lines, None


def cmd_verdict(desc: ActionDescription, cap: int):
    action = _build_group(desc, cap)
    v = verdict(action, base=desc.base_override)
    return {"command": "verdict", "verdict": _verdict_json(v)}, _verdict_lines(v), v


def cmd_singular_locus(desc: ActionDescription, cap: int):
    action = _build_group(desc, cap)
    rep = sign_group_singular_locus(action)
    components = [
        {"coordinates": [i + 1 for i in coords], "signs": list(signs)}
        for coords, signs in rep.minimal_primes
    ]
    report = {
        "command": "singular-locus",
        "component_count": rep.component_count,
        "component_dimension": rep.component_dimension,
        "intersection_point_count": rep.intersection_point_count,
        "components": components,
    }
    lines = [
        f"components:          {rep.component_count}",
        f"component dimension: {rep.component_dimension}",
        f"intersection points: {rep.intersection_point_count}",
    ]
    for coords, signs in rep.minimal_primes:
        gens = ", ".join(
            f"{desc.labels[i]} {'-' if s == 1 else '+'} 1"
            for i, s in zip(coords, signs)
        )
        lines.append(f"  component: ({gens})")
    return report, lines, None


COMMANDS = {
    "analyze": cmd_analyze,
    "invariants": cmd_invariants,
    "classgroup": cmd_classgroup,
    "hilbert-basis": cmd_hilbert_basis,
    "verdict": cmd_verdict,
    "singular-locus": cmd_singular_locus,
}


def render_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _read_document(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"invalid JSON in {path}: {exc}") from exc


def _parse_base_override(value):
    """Inline JSON, or a path to a file containing the JSON array."""
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        pass
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot parse base override: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multinv",
        description="Exact analysis of multiplicative invariants of finite "
        "integer matrix groups.",
    )
    parser.add_argument(
        "command",
        choices=sorted(COMMANDS),
        help="which report to produce",
    )
    parser.add_argument(
        "input",
        help="path to a JSON action description, or - for stdin",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument(
        "--base-override",
        metavar="JSON|FILE",
        help="base of simple roots, inline JSON or a file path",
    )
    parser.add_argument(
        "--group-cap",
        type=int,
        default=DEFAULT_CLOSURE_CAP,
        metavar="N",
        help="abort if the group closure exceeds N elements",
    )
    parser.add_argument(
        "--require-verdict",
        action="store_true",
        help="exit with status 3 when the verdict is Unknown",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.group_cap < 1:
            raise InvalidInput("--group-cap must be a positive integer")
        doc = _read_document(args.input)
        if args.base_override is not None:
            if not isinstance(doc, dict):
                raise InvalidInput("top-level document must be a JSON object")
            doc = dict(doc)
            doc["base_override"] = _parse_base_override(args.base_override)
        desc = load_action(doc)
        report, lines, vd = COMMANDS[args.command](desc, args.group_cap)
    except MultInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(render_json(report))
    else:
        print("\n".join(lines))
    if args.require_verdict and vd is not None and vd.status == UNKNOWN:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: analysis, orbits, spin, matrix action, rendering.

Input files are either surface JSON (see flatcore) or origami text (see
origami); the format is sniffed from the content.  All arithmetic stays
rational; floating point appears only when emitting SVG coordinates.  Each
subcommand imports only the modules it runs; analyze reads an origami off
its permutations, without the polygon model in flatcore.  Each subcommand
that reports results builds one JSON payload: `--json` prints it, and
otherwise its text is rendered from that payload alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

if TYPE_CHECKING:
    from . import flatcore, gl2
    from .origami import Origami


class CliError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_input(path: str) -> tuple[str, Union[flatcore.TranslationSurface, Origami]]:
    """Sniff the format: JSON object or array -> surface, otherwise origami text."""
    text = _read_text(path)
    if text.lstrip().startswith(("{", "[")):
        from . import flatcore

        try:
            return "surface", flatcore.surface_from_json(text)
        except json.JSONDecodeError as exc:
            raise CliError(
                f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise CliError(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
    from . import origami

    try:
        return "origami", origami.parse_origami_text(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


# Budgets on work that grows without limit: the strata of one genus, and the edges
# of one polygon, since validation tests every pair of non-adjacent edges (about 3 s
# for 3000 edges on a 2-core Xeon VM).
MAX_STRATA = 100_000
MAX_POLYGON_EDGES = 3000


def _valid_surface(loaded: tuple[str, object]) -> Optional[flatcore.TranslationSurface]:
    """The input as a polygon surface, or None after one `invalid:` line per violation."""
    from . import flatcore

    kind, surf = loaded
    if kind == "origami":
        from . import origami

        surf = origami.to_polygons(surf)  # unit squares: within the budget
    else:
        for i, pts in enumerate(surf._scaled):
            if len(pts) > MAX_POLYGON_EDGES:
                raise CliError(
                    f"budget exceeded: polygon {i} has {len(pts)} edges, "
                    f"more than {MAX_POLYGON_EDGES}"
                )
    violations = flatcore.validate(surf).violations
    for violation in violations:
        print(f"invalid: {violation}", file=sys.stderr)
    return None if violations else surf


def _emit(args: argparse.Namespace, payload: dict, text: Callable[[dict], str]) -> None:
    """Print the payload as JSON with --json, otherwise the text rendered from it."""
    print(json.dumps(payload, indent=2) if args.json else text(payload))


def cmd_analyze(args: argparse.Namespace) -> int:
    kind, value = loaded = _load_input(args.path)
    payload: dict = {"source": args.path, "kind": kind}
    origami_keys, messages = {}, []
    if kind == "origami":  # every invariant from (h, v); the tests check them on to_polygons
        from . import origami, spin, strata

        signature = origami.singularity_orders(value)
        payload["degree"] = value.d
        angles, integral = origami.cone_angle_turns(value), True
        if signature.genus >= 2:  # the period rank is the dimension of the stratum
            rank, component = strata.dimension(signature.orders), spin.classify_component(value)
        else:
            rank, component = 2, strata.components(signature.orders)[0]
        if all(m % 2 == 0 for m in signature.orders):
            origami_keys["spin_parity"] = spin.spin_parity(value)
        else:
            messages.append("spin parity undefined (odd zero order)")
        origami_keys["component"] = str(component)
    else:
        from . import flatcore

        surf = _valid_surface(loaded)
        if surf is None:
            return 1
        signature = flatcore.stratum(surf)
        angles = [cp.angle_turns for cp in flatcore.singularities(surf)]
        rank, integral = flatcore.periods(surf).rank, flatcore.is_integral(surf)
    payload.update(genus=signature.genus, stratum_orders=list(signature.orders))
    payload.update(cone_angle_turns=angles, period_rank=rank, integral=integral, **origami_keys)
    payload["messages"] = messages
    _emit(args, payload, _analyze_text)
    return 0


def _analyze_text(payload: dict) -> str:
    lines = [f"input: {payload['source']} ({payload['kind']})"]
    if "degree" in payload:
        lines.append(f"degree: {payload['degree']}")
    inner = ",".join(str(m) for m in payload["stratum_orders"])
    angles = ", ".join(f"{2 * t}pi" for t in payload["cone_angle_turns"])
    lines += [
        f"genus: {payload['genus']}",
        f"stratum: H({inner})" if inner else "stratum: H() [torus]",
        f"cone angles: {angles}",
        f"period rank: {payload['period_rank']}",
        f"integral periods: {'yes' if payload['integral'] else 'no'}",
    ]
    for key in ("spin_parity", "component"):  # origami inputs only
        if key in payload:
            lines.append(f"{key.replace('_', ' ')}: {payload[key]}")
    lines += [f"note: {msg}" for msg in payload["messages"]]
    return "\n".join(lines)


def cmd_orbit(args: argparse.Namespace) -> int:
    from . import origami

    kind, value = _load_input(args.path)
    if kind != "origami":
        raise CliError("orbit requires an origami input")
    if args.max < 1:
        raise CliError("--max must be at least 1")
    try:
        data = origami.orbit(value, max_elements=args.max)
    except RuntimeError as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "source": args.path,
        "orbit_size": len(data.elements),
        "cusp_widths": list(data.cusp_widths),
        "elements": [list(code) for code in data.elements],
        "edges": [list(edge) for edge in data.edges],
    }
    _emit(args, payload, _orbit_text)
    return 0


def _orbit_text(payload: dict) -> str:
    from .origami import format_cycles

    lines = [f"orbit size: {payload['orbit_size']}", f"cusp widths: {payload['cusp_widths']}"]
    for i, code in enumerate(payload["elements"]):  # (d, *h, *v), built valid by orbit
        h, v = code[1 : 1 + code[0]], code[1 + code[0] :]
        lines.append(f"  [{i}] h: {format_cycles(h)}  v: {format_cycles(v)}")
    return "\n".join(lines)


def cmd_spin(args: argparse.Namespace) -> int:
    from . import spin

    kind, value = _load_input(args.path)
    if kind != "origami":
        raise CliError("spin requires an origami input")
    payload = {"source": args.path, "spin_parity": spin.spin_parity(value)}
    _emit(args, payload, lambda p: f"spin parity: {p['spin_parity']}")
    return 0


def _parse_matrix(tokens: Sequence[str]) -> gl2.Mat2:
    from . import gl2
    from ._base import _as_fraction

    text = " ".join(tokens)
    places = text.split(",")  # blanks are spaces and tabs; a comma needs an entry on each side
    entries = [e for place in places for e in place.replace("\t", " ").split(" ") if e]
    if len(places) > 1 and not all(place.strip(" \t") for place in places):
        raise CliError(f"matrix has an empty place at a comma: {text!r}")
    # Entries before the count, so an error names two entries a newline joins.
    values = [_as_fraction(e, "matrix entry") for e in entries]
    if len(values) != 4:
        raise CliError(f"matrix needs 4 entries a b c d, got {len(values)}")
    return gl2.Mat2(*values)


def cmd_act(args: argparse.Namespace) -> int:
    from . import flatcore, gl2

    if args.path is None:  # `act --matrix a b c d PATH`: --matrix took the path as well
        *args.matrix, args.path = args.matrix
        try:
            _parse_matrix(args.matrix)  # before any file is read
        except (CliError, ValueError) as exc:
            raise CliError(f"{exc} (with no path before --matrix, its last token is the path)")
    surf = _valid_surface(_load_input(args.path))
    if surf is None:
        return 1
    matrix = _parse_matrix(args.matrix)
    image = gl2.apply(surf, matrix)
    blob = json.dumps(flatcore.surface_to_json(image), indent=2)
    if args.output:
        _write_text(args.output, blob + "\n")
        print(f"wrote {args.output}")
    else:
        print(blob)
    return 0


def cmd_strata(args: argparse.Namespace) -> int:
    from . import strata

    g = args.genus
    if g < 1:
        raise CliError("genus must be at least 1")
    # p(n) never decreases, so the first term over the budget settles it
    # without counting up to p(2g - 2) or building the list.
    for n, total in enumerate(strata.partition_numbers()):
        if total > MAX_STRATA:
            raise CliError(f"budget exceeded: genus {g} has more than {MAX_STRATA} strata")
        if n == 2 * g - 2:
            break
    rows = []
    for orders in strata.partitions(g):
        dim = strata.dimension(orders) if g >= 2 else 2
        comps = [str(c) for c in strata.components(orders)]
        rows.append({"orders": list(orders), "dimension": dim, "components": comps})
    payload: dict = {"genus": g, "strata": rows}
    if g >= 2:
        payload["hodge_dimension"] = strata.hodge_dimension(g)
        payload["hyperelliptic_locus_dimension"] = strata.hyperelliptic_locus_dimension(g)
    _emit(args, payload, _strata_text)
    return 0


def _strata_text(payload: dict) -> str:
    lines = [f"genus {payload['genus']}: {len(payload['strata'])} strata"]
    if "hodge_dimension" in payload:
        lines.append(
            f"ambient (curve, form) dimension: {payload['hodge_dimension']}; "
            f"hyperelliptic locus: {payload['hyperelliptic_locus_dimension']}"
        )
    for row in payload["strata"]:
        inner = ",".join(str(m) for m in row["orders"])
        lines.append(
            f"  H({inner}): dim {row['dimension']}, components {{{', '.join(row['components'])}}}"
        )
    return "\n".join(lines)


def cmd_divisor(args: argparse.Namespace) -> int:
    from . import hyperell
    from ._base import _as_fraction

    points = [_as_fraction(p.strip(), "branch point") for p in args.branch.split(",")]
    branches = hyperell.branch_set(points)  # main reports a ValueError as an error line
    form = hyperell.parse_form(args.form)
    div = hyperell.divisor_of_form(branches, form)
    if args.genus is not None and branches.genus != args.genus:
        raise CliError(
            f"{len(points)} branch points give genus {branches.genus}, not {args.genus}"
        )
    payload = {
        "genus": branches.genus,
        "form": str(form),
        "entries": [[str(place), order] for place, order in div.entries],
        "total_order": div.total_order,
        "holomorphic": div.is_effective,
    }
    _emit(args, payload, _divisor_text)
    return 0


def _divisor_text(payload: dict) -> str:
    lines = [f"genus {payload['genus']}, form {payload['form']} * dz/x"]
    lines += [f"  {place}: order {order}" for place, order in payload["entries"]]
    lines.append(f"total order: {payload['total_order']}")
    lines.append(f"holomorphic: {'yes' if payload['holomorphic'] else 'no'}")
    return "\n".join(lines)


_PALETTE = [
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
    "#f032e6", "#bcf60c", "#008080", "#9a6324", "#800000", "#808000",
    "#000075", "#fabebe", "#aaffc3", "#ffd8b1",
]


_SVG_WIDTH = 800  # pixels; the height follows the drawing's aspect ratio


def render_svg(surf: flatcore.TranslationSurface) -> str:
    """SVG drawing: paired edges share a color, cone points get dots.

    Coordinates are converted to floats here and only here, from the integer
    view: int true division is correctly rounded, as float() of a Fraction is.
    """
    from . import flatcore

    views, unit = surf._scaled, surf._scale
    xs = [x for pts in views for x, _ in pts]
    ys = [y for pts in views for _, y in pts]
    minx, maxy = min(xs), max(ys)
    margin = 30.0
    scale = (_SVG_WIDTH - 2 * margin) / (max(max(xs) - minx, unit) / unit)
    height = max(maxy - min(ys), unit) / unit * scale + 2 * margin
    if not math.isfinite(height):  # float products overflow to inf, not to an error
        raise OverflowError("drawing height is not finite")

    def to_px(p: flatcore.Point) -> tuple[float, float]:
        return margin + (p[0] - minx) / unit * scale, margin + (maxy - p[1]) / unit * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{height:.1f}" viewBox="0 0 {_SVG_WIDTH} {height:.1f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for pts in views:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(to_px, pts))
        parts.append(f'<polygon points="{coords}" fill="#f2f2f2" stroke="none"/>')

    pair_color: dict[flatcore.EdgeRef, str] = {}
    for k, (e, partner) in enumerate(surf._pairs):
        pair_color[e] = pair_color[partner] = _PALETTE[k % len(_PALETTE)]
    for e, color in pair_color.items():
        pts = views[e.polygon]
        x1, y1 = to_px(pts[e.edge])
        x2, y2 = to_px(pts[(e.edge + 1) % len(pts)])
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
    for cp in flatcore.singularities(surf):
        if cp.angle_turns <= 1:
            continue
        for p_idx, v_idx in cp.corners:
            x, y = to_px(views[p_idx][v_idx])
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_render(args: argparse.Namespace) -> int:
    surf = _valid_surface(_load_input(args.path))
    if surf is None:
        return 1
    try:
        svg = render_svg(surf)
    except OverflowError as exc:
        raise CliError(f"{args.path}: coordinates too large to draw") from exc
    out = args.output
    if out is None:
        out = os.path.splitext(args.path)[0] + ".svg"
    _write_text(out, svg + "\n")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatkit",
        description="Exact-arithmetic analysis of translation surfaces and origamis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="genus, stratum, angles, periods, spin")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("orbit", help="closure under the shear and rotation moves")
    p.add_argument("path")
    p.add_argument("--max", type=int, default=10000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("spin", help="spin parity of an origami")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spin)

    p = sub.add_parser("act", help="apply a 2x2 rational matrix")
    p.add_argument("path", nargs="?")
    p.add_argument(
        "--matrix",
        nargs="+",
        required=True,
        metavar="ENTRY",
        help='four rationals "a b c d", before or after the path; use one comma-joined token '
        "for negatives, e.g. 3/5,-4/5,4/5,3/5",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("strata", help="list strata of a genus with components")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("divisor", help="divisor of f(z) dz/x on a hyperelliptic curve")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--branch", required=True, help="comma-separated branch values")
    p.add_argument("--form", required=True, help='factored form, e.g. "3*(z-1)^2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("render", help="draw the polygons as SVG")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # as the Python signal docs advise: no traceback, exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 check passed, 1 verification failure, 2 usage or parse error,
3 mathematical precondition violation (`report.PreconditionError`) or a
run out of memory (`MemoryError`), named on one line of standard error.

A command imports the verifier modules `chenruan`, `frobenius` and `catalog`
only when it runs them, so a cold process loads the code of its own verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bvlg, polyring, statespace, symmetry
from .polyring import PolyError, parse_polynomial, weight_system
from .report import PreconditionError
from .symmetry import parse_group_elements

USAGE_ERROR = 2
MATH_ERROR = 3


def _print_json(data):
    print(json.dumps(data, sort_keys=True))


def _print_table(data: dict):
    print(f"flavor {data['flavor']}  total {data['total']}")
    for entry in data["entries"]:
        print(f"  ({entry['p']}, {entry['q']})  {entry['dim']}")


def cmd_analyze(args) -> int:
    poly = parse_polynomial(args.polynomial)
    ws = weight_system(poly)
    gmax = symmetry.gmax(poly)
    sl = symmetry.sl_subgroup(gmax)
    j = symmetry.j_element(ws)
    invertible = polyring.is_invertible(poly)
    info = {
        "polynomial": str(poly),
        "variables": list(poly.variables),
        "weights": list(ws.weights),
        "degree": ws.degree,
        "j": str(j),
        "age_j": statespace.frac_str(symmetry.age(j)),
        "gmax_order": gmax.order,
        "sl_order": sl.order,
        "sl_index": gmax.order // sl.order,
        "calabi_yau": polyring.check_cy(ws),
        "invertible": invertible,
    }
    bv_ok, bv_idx = polyring.is_bv_form(poly)
    info["bv_form"] = bv_ok
    if bv_ok:
        info["bv_index"] = bv_idx
    if invertible:
        info["atomic_blocks"] = [str(b) for b in polyring.atomic_decomposition(poly)]
        transposed = polyring.transpose(poly)
        info["transpose"] = str(transposed)
        info["self_transpose"] = transposed == poly.normalized()
    if args.json:
        _print_json(info)
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return 0


def cmd_state_space(args) -> int:
    poly = parse_polynomial(args.w)
    gens = parse_group_elements(args.gens, poly.nvars) if args.gens else []
    for g in gens:
        if not symmetry.element_in_gmax(poly, g):
            raise symmetry.GroupError(f"generator {g} is not a symmetry of {poly}")
    group = symmetry.span(poly.nvars, gens)
    space = statespace.build_state_space(poly, group, args.flavor)
    data = statespace.table_to_json(statespace.poincare_table(space), args.flavor)
    if args.json:
        _print_json(data)
    else:
        _print_table(data)
    return 0


def _build_model(args) -> bvlg.BVModel:
    w1 = parse_polynomial(args.w1)
    w2 = parse_polynomial(args.w2)
    if args.gens:
        gens = parse_group_elements(args.gens, w1.nvars + w2.nvars)
    else:
        gens = bvlg.block_j_elements(weight_system(w1), weight_system(w2))
    return bvlg.build_bv(w1, w2, gens)


def cmd_bv(args) -> int:
    model = _build_model(args)
    verb = args.verb
    if verb == "mirror":
        mirror = model.mirror()
        data = {
            "check": "mirror",
            "pass": True,
            "w1_mirror": str(mirror.w1),
            "w2_mirror": str(mirror.w2),
            "group_order": mirror.group.order,
            "sigma_group_order": mirror.sigma_group.order,
            "generators": [str(g) for g in mirror.group.gens],
        }
        report = None
    elif verb == "twist":
        tw = model.twist()
        data = {
            "check": "twist",
            "pass": True,
            "twist_polynomial": str(tw.poly),
            "weights": list(tw.ws.weights),
            "degree": tw.ws.degree,
            "delta": tw.delta,
            "twist_group_order": tw.group.order,
        }
        report = None
    else:
        report = _verify(verb, model)
        data = report.to_json()
    if args.json:
        _print_json(data)
    else:
        for key, value in data.items():
            print(f"{key}: {value}")
    return 0 if data["pass"] else 1


def _verify(verb: str, model):
    """The report of a verifier verb, importing only its module.  Each
    verifier is read off its module at call time, so a rebinding of the
    module attribute (as a tracer makes) is the one called."""
    if verb == "theorem2":
        from . import frobenius

        return frobenius.verify_theorem2(model)
    if verb in ("lgcy", "bvms", "twist-corollary"):
        from . import chenruan

        if verb == "lgcy":
            return chenruan.verify_lgcy(model)
        if verb == "bvms":
            return chenruan.verify_bv_mirror(model)
        return chenruan.verify_twist_corollary(model)
    if verb == "theorem1":
        return bvlg.verify_theorem1(model)
    if verb == "group-lemma":
        return bvlg.verify_group_lemma(model)
    return bvlg.verify_twist_iso(model, "B" if verb == "twist-iso-b" else "A")


def cmd_catalog(args) -> int:
    from . import catalog

    if args.action == "sample":
        try:
            numbers = [int(p) for p in args.weights.replace(",", " ").split()]
        except ValueError:
            numbers = []
        if len(numbers) < 2:
            print("expected weights and degree, e.g. 3,1,1,1,6", file=sys.stderr)
            return USAGE_ERROR
        *weights, degree = numbers
        ws = polyring.WeightSystem(tuple(sorted(weights, reverse=True)), degree)
        poly = catalog.sample_polynomial(ws)
        print(poly)
        return 0

    records = catalog.enumerate_k3_systems(
        max_weight=args.max_weight, with_samples=args.with_samples
    )
    if args.action == "filter":
        half = catalog.filter_bv(records)
        records = half if args.half_degree_only else catalog.filter_bv_invertible(half)
        gap = [r for r in half if r not in records]
        if gap:
            print(
                "half-degree systems without an invertible sample: "
                + "; ".join(f"{r.weights};{r.degree}" for r in gap),
                file=sys.stderr,
            )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(catalog.csv_text(records))
        except OSError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    elif args.json:
        _print_json([dict(zip(r.__slots__, r.fields())) for r in records])
    else:
        sys.stdout.write(catalog.csv_text(records))
    return 0


def _positive_int(text: str) -> int:
    """An int of at least 1, else a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmirror",
        description=(
            "Exact-arithmetic Landau-Ginzburg state spaces and mirror-symmetry "
            "checks for Borcea-Voisin-type models.  The enumeration cap for "
            "symmetry groups can be overridden with LGMIRROR_MAX_GROUP."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="weights, symmetry orders, CY flag, atomic blocks")
    p_an.add_argument("polynomial")
    p_an.add_argument("--json", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_ss = sub.add_parser("state-space", help="bigraded table of an A- or B-model")
    p_ss.add_argument("flavor", choices=["A", "B"])
    p_ss.add_argument("--w", required=True, help="polynomial text")
    p_ss.add_argument(
        "--gens",
        default="",
        help="semicolon-separated generators of comma-separated rationals",
    )
    p_ss.add_argument("--json", action="store_true")
    p_ss.set_defaults(func=cmd_state_space)

    p_bv = sub.add_parser("bv", help="build a BVLG model and run a verifier")
    p_bv.add_argument(
        "verb",
        choices=[
            "mirror",
            "twist",
            "twist-iso",
            "twist-iso-b",
            "group-lemma",
            "theorem1",
            "theorem2",
            "lgcy",
            "bvms",
            "twist-corollary",
        ],
    )
    p_bv.add_argument("--w1", required=True, help="first potential z0^2 + f1")
    p_bv.add_argument("--w2", required=True, help="second potential z0^2 + f2")
    p_bv.add_argument(
        "--gens",
        default="",
        help="generators of G over the combined variables (default: J1 x J2)",
    )
    p_bv.add_argument("--json", action="store_true")
    p_bv.set_defaults(func=cmd_bv)

    p_cat = sub.add_parser("catalog", help="K3 weight-system catalog")
    p_cat.add_argument("action", choices=["list", "filter", "sample"])
    p_cat.add_argument("weights", nargs="?", default="", help="for sample: w0,w1,w2,w3,d")
    p_cat.add_argument("--max-weight", type=_positive_int, default=40)
    p_cat.add_argument(
        "--half-degree-only",
        action="store_true",
        help="filter: keep all 48 systems with d = 2 w_i instead of the 44 with invertible samples",
    )
    p_cat.add_argument("--with-samples", action="store_true")
    p_cat.add_argument("--out", default="", help="write CSV here instead of stdout")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolyError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except symmetry.BadCapSetting as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return MATH_ERROR
    except MemoryError:
        print("resource limit: out of memory (MemoryError)", file=sys.stderr)
        return MATH_ERROR


if __name__ == "__main__":
    sys.exit(main())

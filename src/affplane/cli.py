"""Command-line front end.

Exit codes encode tool health, not mathematical outcomes: 0 for any
successfully computed verdict, 1 for a failed axiom check, 2 for any
rejected input: a malformed file, a bad parameter, an order above a
search bound, or a path that cannot be read or written.  All reports are
deterministic so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import formats
from .andre import build_left, build_right, spec_from_exponents
from .collineation import classify, classify_ternary, translation_candidate
from .errors import InputError
from .gf import galois_subgroup, make_field
from .plane import (CoordinateFrame, check_plane_axioms, coordinatize,
                    plane_from_ternary)
from .quasifield import LEFT_AXIOMS, RIGHT_AXIOMS, check_vw, from_ternary
from .ternary import check_ternary_axioms, find_isomorphism, find_isotopism, validate


@functools.cache
def _build_parser():
    """The `afp` parser, built once per process: parsing leaves it as it
    was, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="afp",
        description="Build, check, coordinatize, and classify finite "
                    "affine planes and their coordinate rings.")
    parser.add_argument("--verbose", action="store_true",
                        help="print extra detail")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gf = sub.add_parser("gf", help="print the tables of GF(p^n)")
    p_gf.add_argument("--p", type=int, required=True)
    p_gf.add_argument("--n", type=int, required=True)
    p_gf.set_defaults(func=_cmd_gf)

    p_andre = sub.add_parser(
        "andre", help="build a twisted-multiplication quasi-field")
    p_andre.add_argument("--p", type=int, required=True)
    p_andre.add_argument("--n", type=int, required=True)
    p_andre.add_argument("--subfield-deg", type=int, required=True,
                         help="degree d of the fixed subfield GF(p^d)")
    p_andre.add_argument("--phi", required=True,
                         help="comma-separated generator exponents, one per "
                              "norm-image element in increasing order; the "
                              "first must be 0")
    p_andre.add_argument("--side", choices=("left", "right"), default="left")
    p_andre.add_argument("--out", required=True)
    p_andre.set_defaults(func=_cmd_andre)

    p_plane = sub.add_parser("plane", help="plane construction")
    plane_sub = p_plane.add_subparsers(dest="plane_command", required=True)
    p_build = plane_sub.add_parser("build", help="build the plane of a "
                                                 "ternary ring")
    p_build.add_argument("trs")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_plane_build)

    p_check = sub.add_parser("check", help="run axiom checks on a file")
    p_check.add_argument("kind", choices=("ternary", "quasifield", "plane"))
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_coord = sub.add_parser("coordinatize",
                             help="coordinatize a plane over a frame")
    p_coord.add_argument("plane")
    p_coord.add_argument("--l", type=int, required=True)
    p_coord.add_argument("--m", type=int, required=True)
    p_coord.add_argument("--z", type=int, required=True)
    p_coord.add_argument("--out", required=True)
    p_coord.set_defaults(func=_cmd_coordinatize)

    p_iso = sub.add_parser("iso", help="search for a ternary-ring isomorphism")
    p_iso.add_argument("a")
    p_iso.add_argument("b")
    p_iso.set_defaults(func=_cmd_iso)

    p_isotopy = sub.add_parser("isotopy",
                               help="search for a ternary-ring isotopism")
    p_isotopy.add_argument("a")
    p_isotopy.add_argument("b")
    p_isotopy.set_defaults(func=_cmd_isotopy)

    p_translate = sub.add_parser(
        "translate", help="construct the unique candidate translation")
    p_translate.add_argument("plane")
    p_translate.add_argument("--from", dest="source", type=int, required=True)
    p_translate.add_argument("--to", dest="target", type=int, required=True)
    p_translate.add_argument("--out")
    p_translate.set_defaults(func=_cmd_translate)

    p_classify = sub.add_parser(
        "classify", help="decide whether the plane is a field plane")
    p_classify.add_argument("file")
    p_classify.set_defaults(func=_cmd_classify)

    return parser


def _cmd_gf(args):
    K = make_field(args.p, args.n)
    print(f"GF({K.q}) = GF({K.p}^{K.n})")
    print("modulus: " + " ".join(str(c) for c in K.modulus))
    print(f"generator: {K.generator}")
    print("add:")
    for a in range(K.q):
        print(" ".join(str(K.add(a, b)) for b in range(K.q)))
    print("mul:")
    for a in range(K.q):
        print(" ".join(str(K.mul(a, b)) for b in range(K.q)))
    return 0


def _cmd_andre(args):
    K = make_field(args.p, args.n)
    G = galois_subgroup(K, args.subfield_deg)
    try:
        exponents = tuple(int(part) for part in args.phi.split(","))
    except ValueError:
        raise InputError("--phi must be comma-separated integers")
    spec = spec_from_exponents(K, G, exponents)
    Q = build_left(spec) if args.side == "left" else build_right(spec)
    formats.write_qf(args.out, Q)
    print(f"wrote {args.side} quasi-field of order {Q.q} to {args.out}")
    return 0


def _cmd_plane_build(args):
    T = validate(formats.read_trs(args.trs))
    P = plane_from_ternary(T)
    formats.write_plane(args.out, P)
    print(f"wrote plane with {P.n} points, {len(P.lines)} lines to {args.out}")
    return 0


def _cmd_check(args):
    if args.kind == "ternary":
        report = check_ternary_axioms(formats.read_trs(args.file))
    elif args.kind == "quasifield":
        report = check_vw(formats.read_qf(args.file))
    else:
        report = check_plane_axioms(formats.read_plane(args.file))
    for name, holds in report.flags().items():
        witness = f" at {report.witnesses[name]}" if name in report.witnesses else ""
        print(f"{name}: pass" if holds else f"{name}: FAIL{witness}")
    ok = report.all_pass
    if args.kind == "quasifield":
        left, right = report.passes(*LEFT_AXIOMS), report.passes(*RIGHT_AXIOMS)
        print(f"left axiom set: {'pass' if left else 'FAIL'}")
        print(f"right axiom set: {'pass' if right else 'FAIL'}")
        ok = left or right
    return 0 if ok else 1


def _cmd_coordinatize(args):
    P = formats.read_plane(args.plane)
    coord = coordinatize(P, CoordinateFrame(args.l, args.m, args.z))
    formats.write_trs(args.out, coord.ring)
    print(f"wrote ternary ring of order {coord.ring.q} to {args.out}")
    return 0


def _cmd_iso(args):
    A = formats.read_trs(args.a)
    B = formats.read_trs(args.b)
    perm = find_isomorphism(A, B)
    if perm is None:
        print("absent")
    else:
        print("found: " + " ".join(str(v) for v in perm))
    return 0


def _cmd_isotopy(args):
    A = formats.read_trs(args.a)
    B = formats.read_trs(args.b)
    iso = find_isotopism(A, B)
    if iso is None:
        print("absent")
    else:
        print("found")
        print("F: " + " ".join(str(v) for v in iso.f))
        print("G: " + " ".join(str(v) for v in iso.g))
        print("H: " + " ".join(str(v) for v in iso.h))
    return 0


def _cmd_translate(args):
    P = formats.read_plane(args.plane)
    cert = translation_candidate(P, args.source, args.target)
    if cert is None:
        print("absent")
    else:
        if args.out:
            formats.write_coll(args.out, cert.collineation.perm)
        print("found")
        print("trace classes: " + " ".join(str(c) for c in cert.trace_classes))
        print(f"fixed-point-free: {cert.fixed_point_free}")
    return 0


def _cmd_classify(args):
    if args.file.endswith(".trs"):
        T = validate(formats.read_trs(args.file))
        Q = from_ternary(T)
        result = classify(Q, T) if Q is not None else classify_ternary(T)
    else:
        Q = formats.read_qf(args.file)
        result = classify(Q)
    print(result.verdict)
    if args.verbose:
        print(f"reason: {result.reason}")
        if result.isomorphism is not None:
            print("isomorphism: "
                  + " ".join(str(v) for v in result.isomorphism))
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

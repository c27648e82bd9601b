"""Command-line front end.

Subcommands: verify, f4-census, polygon exhaustive/hua, foundation
check/classify/dot, cover unfold.  Exit codes: 0 all checks pass, 1 check
failure, 2 usage or input errors.  Reports are deterministic per
(inputs, seed); --json emits machine-readable lines without timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import composition
from .catalog import NAMED_FOUNDATIONS, foundation_from_file
from .foundations import (Verdict, fnd_check, fnd_check_443,
                          fnd_classify_simply_laced, fnd_to_dot,
                          fnd_universal_cover, NotA443Shape, NotSimplyLaced)
from .polygons import (WordGroup, rgs_hua_consistency, rgs_hua_end_action,
                       qq_f4_space, qp_xi_f4, triangle)
from .pseudoquad import f4_census
from .report import Report

DEFAULT_SEED = 0


def _seed_from(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MFORGE_SEED")
    return int(env) if env else DEFAULT_SEED


def _emit(report, args, elapsed):
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        print(report)
        print("  (%.2fs)" % elapsed)
    return 0 if report.passed else 1


def _emit_verdict(verdict, args, elapsed):
    if args.json:
        sys.stdout.write(json.dumps(verdict.as_dict(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        print(verdict)
        print("  (%.2fs)" % elapsed)
    return 0 if verdict.kind == Verdict.MATCHES else 1


def cmd_verify(args):
    seed = _seed_from(args)
    try:
        algebra = composition.NAMED_ALGEBRAS[args.algebra]()
    except KeyError:
        print("unknown algebra %r" % args.algebra, file=sys.stderr)
        return 2
    suites = composition.SUITES if args.suite == "all" else [args.suite]
    default_samples = 1000 if algebra.dim >= 8 else 10000
    samples = args.samples or default_samples
    code = 0
    for suite in sorted(suites):
        if suite not in composition.SUITES:
            print("unknown suite %r" % suite, file=sys.stderr)
            return 2
        t0 = time.monotonic()
        rep = composition.verify_identities(algebra, suite, samples=samples,
                                            seed=seed)
        code = max(code, _emit(rep, args, time.monotonic() - t0))
    return code


def cmd_f4_census(args):
    t0 = time.monotonic()
    rep = f4_census()
    order_line = rep.line("census.order")
    if not args.json:
        print("|T| = %d" % order_line.samples)
    return _emit(rep, args, time.monotonic() - t0)


_POLYGON_INSTANCES = {
    ("QQ", "F4-space"): qq_f4_space,
    ("QP", "Xi-F4"): qp_xi_f4,
}


def _polygon_instance(symbol, instance):
    try:
        return _POLYGON_INSTANCES[(symbol, instance)]()
    except KeyError:
        if symbol == "T":
            return triangle(composition.NAMED_ALGEBRAS[instance](),
                            name=instance)
        raise


def cmd_polygon(args):
    try:
        desc = _polygon_instance(args.symbol, args.instance)
    except KeyError:
        print("unknown polygon instance %s %s" % (args.symbol, args.instance),
              file=sys.stderr)
        return 2
    seed = _seed_from(args)
    if args.action == "exhaustive":
        t0 = time.monotonic()
        wg = WordGroup(desc)
        rep = wg.check_axioms()
        rep.seed = seed
        code = _emit(rep, args, time.monotonic() - t0)
        t0 = time.monotonic()
        rep2 = rgs_hua_consistency(desc, samples=args.samples or 1000,
                                   seed=seed)
        return max(code, _emit(rep2, args, time.monotonic() - t0))
    # action == "hua": print the end-action images on the slot generators
    grp = desc.group(1 if args.end == "first" else desc.n)
    s = _parse_param(grp, args.param)
    m1, mn = rgs_hua_end_action(desc, args.end, s)
    rep = Report("polygon.hua", seed=seed, subject=repr(desc))
    g1, gn = desc.group(1), desc.group(desc.n)
    shown = 0
    for grp_sel, mapping, tag in ((g1, m1, "first"), (gn, mn, "last")):
        try:
            elems = grp_sel.elements()[:8]
        except TypeError:
            import random as _r
            rng = _r.Random(seed)
            elems = [grp_sel.random(rng) for _ in range(4)]
        for x in elems:
            rep.add("hua.%s[%s]" % (tag, grp_sel.render(x)), 1, True,
                    note=grp_sel.render(mapping(x)))
            shown += 1
    return _emit(rep, args, 0.0)


def _parse_param(grp, text):
    """Parse an anchor parameter from the command line."""
    import random as _r
    if text == "one":
        # the canonical unit of the slot's Moufang set is not always the
        # group identity; fall back to a deterministic nonzero element
        for cand in grp.elements():
            if not grp.is_identity(cand):
                return cand
    if text.startswith("#"):
        elems = grp.elements()
        return elems[int(text[1:]) % len(elems)]
    rng = _r.Random(abs(hash(text)) % (2 ** 31))
    return grp.random(rng, nonzero=True)


def cmd_foundation(args):
    try:
        fnd = _load_foundation(args.file)
    except FileNotFoundError:
        print("no such file: %s" % args.file, file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print("invalid foundation description: %s" % exc, file=sys.stderr)
        return 2
    seed = _seed_from(args)
    if args.action == "check":
        t0 = time.monotonic()
        rep = fnd_check(fnd, samples=args.samples or 60, seed=seed)
        return _emit(rep, args, time.monotonic() - t0)
    if args.action == "classify":
        t0 = time.monotonic()
        try:
            if len(fnd.diagram.vertices) == 3 and sorted(
                    fnd.diagram.edges.values()) == [3, 4, 4]:
                verdict = fnd_check_443(fnd, samples=args.samples or 40,
                                        seed=seed)
            else:
                verdict = fnd_classify_simply_laced(
                    fnd, samples=args.samples or 40, seed=seed)
        except (NotSimplyLaced, NotA443Shape) as exc:
            print("cannot classify: %s" % exc, file=sys.stderr)
            return 2
        return _emit_verdict(verdict, args, time.monotonic() - t0)
    # action == "dot"
    text = fnd_to_dot(fnd)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_foundation(path):
    if path in NAMED_FOUNDATIONS:
        return NAMED_FOUNDATIONS[path]()
    return foundation_from_file(path)


def cmd_cover(args):
    try:
        fnd = _load_foundation(args.file)
    except FileNotFoundError:
        print("no such file: %s" % args.file, file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print("invalid foundation description: %s" % exc, file=sys.stderr)
        return 2
    unfolded = fnd_universal_cover(fnd, args.radius)
    doc = {
        "name": repr(unfolded),
        "truncated_at": args.radius,
        "vertices": sorted(unfolded.diagram.vertices),
        "edges": sorted([sorted(e) for e in unfolded.diagram.edges]),
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--seed", type=int, default=None,
                        help="falls back to MFORGE_SEED, then 0")
    common.add_argument("--json", action="store_true",
                        help="machine-readable report lines")

    p = argparse.ArgumentParser(
        prog="mforge",
        description="exact verification suites for composition algebras, "
                    "Moufang polygons and foundations")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common],
                       help="identity suites on a named algebra")
    v.add_argument("--algebra", required=True,
                   choices=sorted(composition.NAMED_ALGEBRAS))
    v.add_argument("--suite", default="all",
                   choices=sorted(composition.SUITES) + ["all"])
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("f4-census", parents=[common],
                       help="census of the group T over the 4-element field")
    c.set_defaults(func=cmd_f4_census)

    pg = sub.add_parser("polygon", help="word-group checks and Hua actions")
    pg_sub = pg.add_subparsers(dest="action", required=True)
    ex = pg_sub.add_parser("exhaustive", parents=[common])
    ex.add_argument("symbol", choices=["T", "QI", "QP", "QQ", "QD"])
    ex.add_argument("instance")
    ex.set_defaults(func=cmd_polygon)
    hu = pg_sub.add_parser("hua", parents=[common])
    hu.add_argument("symbol", choices=["T", "QI", "QP", "QQ", "QD"])
    hu.add_argument("end", choices=["first", "last"])
    hu.add_argument("param")
    hu.add_argument("--instance", default=None)
    hu.set_defaults(func=cmd_polygon_hua)

    fd = sub.add_parser("foundation", help="check / classify / render")
    fd_sub = fd.add_subparsers(dest="action", required=True)
    for act in ("check", "classify"):
        a = fd_sub.add_parser(act, parents=[common])
        a.add_argument("file")
        a.set_defaults(func=cmd_foundation)
    d = fd_sub.add_parser("dot", parents=[common])
    d.add_argument("file")
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_foundation)

    cv = sub.add_parser("cover", help="tree unfolding of a foundation")
    cv_sub = cv.add_subparsers(dest="action", required=True)
    un = cv_sub.add_parser("unfold", parents=[common])
    un.add_argument("file")
    un.add_argument("--radius", type=int, required=True)
    un.set_defaults(func=cmd_cover)
    return p


def cmd_polygon_hua(args):
    if args.instance is None:
        args.instance = {"QQ": "F4-space", "QP": "Xi-F4",
                         "T": "octonion-Q"}.get(args.symbol)
        if args.instance is None:
            print("--instance is required for %s" % args.symbol,
                  file=sys.stderr)
            return 2
    args.action = "hua"
    return cmd_polygon(args)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":
    sys.exit(main())

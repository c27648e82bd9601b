"""Command-line front end.

Subcommands: verify, f4-census, polygon exhaustive/hua, foundation
check/classify/dot, cover unfold.  Exit codes: 0 all checks pass, 1 check
failure, 2 usage or input errors.  Reports are deterministic per
(inputs, seed); --json emits machine-readable lines without timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
import zlib

from . import composition
from .catalog import NAMED_FOUNDATIONS, foundation_from_file
from .foundations import (Verdict, fnd_check, fnd_check_443,
                          fnd_classify_simply_laced, fnd_to_dot,
                          fnd_universal_cover, NotA443Shape, NotSimplyLaced)
from .polygons import (ZeroParameter, rgs_hua_consistency,
                       rgs_hua_end_action, qq_f4_space, qp_xi_f4, triangle)
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
        rep = desc.word_group().check_axioms()
        rep.seed = seed
        code = _emit(rep, args, time.monotonic() - t0)
        t0 = time.monotonic()
        rep2 = rgs_hua_consistency(desc, samples=args.samples or 1000,
                                   seed=seed)
        return max(code, _emit(rep2, args, time.monotonic() - t0))
    # action == "hua": print the end-action images on the slot generators
    try:
        s = _parse_param(desc, args.end, args.param)
        m1, mn = rgs_hua_end_action(desc, args.end, s)
    except (ValueError, ZeroParameter) as exc:
        print("bad anchor %r: %s" % (args.param, exc), file=sys.stderr)
        return 2
    rep = Report("polygon.hua", seed=seed, subject=repr(desc))
    g1, gn = desc.group(1), desc.group(desc.n)
    for grp_sel, mapping, tag in ((g1, m1, "first"), (gn, mn, "last")):
        try:
            elems = grp_sel.elements()[:8]
        except TypeError:
            rng = random.Random(seed)
            elems = [grp_sel.random(rng) for _ in range(4)]
        for x in elems:
            rep.add("hua.%s[%r]" % (tag, x), 1, True, note=repr(mapping(x)))
    return _emit(rep, args, 0.0)


def _parse_param(desc, end, text):
    """An anchor parameter from the command line: `one` is the unit of the
    end's Moufang set, `#k` the k-th element of a finite slot group (k
    taken mod its order), any other text names a seeded nonzero draw."""
    if text == "one":
        return desc.end_set(end).unit()
    slot = 1 if end == "first" else desc.n
    grp = desc.group(slot)
    if text.startswith("#"):
        if not grp.is_finite():
            raise ValueError("#k needs a finite slot group, and slot %d of "
                             "%r is infinite" % (slot, desc))
        elems = grp.elements()
        return elems[int(text[1:]) % len(elems)]
    # crc32, unlike hash(), does not change with the process's hash salt
    rng = random.Random(zlib.crc32(text.encode()))
    return grp.random(rng, nonzero=True)


def cmd_foundation(args):
    fnd = _load_foundation(args.file)
    if fnd is None:
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


def _input_errors():
    """The exceptions that mean a malformed foundation file.  A document off
    FOUNDATION_SCHEMA raises `catalog.FoundationFormatError` and bad JSON
    `json.JSONDecodeError`, both ValueErrors; a value the schema lets
    through but a builder refuses raises one of the three."""
    return (ValueError, KeyError, TypeError)


def _load_foundation(path):
    """The named or described foundation, or None after saying why not."""
    try:
        if path in NAMED_FOUNDATIONS:
            return NAMED_FOUNDATIONS[path]()
        return foundation_from_file(path)
    except FileNotFoundError:
        print("no such file: %s" % path, file=sys.stderr)
    except _input_errors() as exc:
        print("invalid foundation description: %s" % exc, file=sys.stderr)
    return None


def cmd_cover(args):
    fnd = _load_foundation(args.file)
    if fnd is None:
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


def _sample_count(text):
    """A --samples value: a count of 0 or more, 0 meaning the default."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if n < 0:
        raise argparse.ArgumentTypeError("negative sample count %d" % n)
    return n


@functools.lru_cache(maxsize=None)
def build_parser():
    """The parser, built on the first call and reused: parsing leaves it
    unchanged, and the seed's MFORGE_SEED fallback is read per command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--samples", type=_sample_count, default=None,
                        help="0 or more; 0 or none takes the default")
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

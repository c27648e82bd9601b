"""The three benchmark workloads: what each sets up and which checks one
round issues.

A *check* is one call to a public mforge suite function that returns a
Report or a Verdict (or, for `norm_splitting`, `is_automorphism` and the
CLI, a small result turned into a comparable outcome by `outcome.digest`).
A round is a fixed list of check kinds; each check in it gets its own seed,
derived from the run seed, the round number and the slot in the round, so
the same run seed always issues the same inputs.

Module functions are looked up through their modules at call time
(`C.verify_identities`, not a name bound at import) so that the traced
run, which patches module attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace

from mforge import catalog as CAT
from mforge import cli
from mforge import composition as C
from mforge import foundations as F
from mforge import handles as H
from mforge import moufang as M
from mforge import octonion_aut as OA
from mforge import polygons as P
from mforge import pseudoquad as PQ
from mforge import quadspace as QS
from mforge import scalars as S
from mforge import tables as TB
from mforge import unitary as U

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_DIR = ROOT / "sample_foundations"

# Samples per sampled suite.  The acceptance criteria use 1000 to 10^4;
# these are cut so that a round takes a few seconds.
Q_SUITE_SAMPLES = 20
Q_TWIST_SAMPLES = 20
Q_TRIANGLE_SAMPLES = 40
FP_SUITE_SAMPLES = 40
FND_SAMPLES = 8
DIM_SWITCH_SAMPLES = 10
MS_SAMPLES = 20

# Over F_p the octonion tower is split, so the `inverse` suite meets a
# zero-norm element and raises NotInvertible by design: it is left out.
FP_SUITES = tuple(s for s in C.SUITES if s != "inverse")
# Copies of each F_p suite per round, so that a run of finite_exhaustive
# issues at least 100 checks in 30 s.
FP_COPIES = 3


def check_seed(run_seed, workload, rnd, slot):
    """Seed of one check: stable across processes and Python versions."""
    text = "%d:%s:%d:%d" % (run_seed, workload, rnd, slot)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# -- q_tower ----------------------------------------------------------------

def q_tower_setup():
    ctx = SimpleNamespace()
    O = C.octonions_q()
    ctx.O = O
    ctx.D16 = C.sedenion_style_q()
    ctx.triangle = P.triangle(O, name="T(octonion-Q)")
    ctx.sub2 = C.Subspace(O, [O.one(), O.unit(1)])
    ctx.quat, ctx.e = OA.standard_quaternion_frame(O)
    ctx.psis = [OA.Psi(O, ctx.quat, ctx.e, O.unit(k)) for k in (1, 2, 3)]
    ctx.jmap = OA.JordanMap([ctx.psis[0]], O)
    return ctx


def _norm_splitting(ctx, seed):
    vs, consts, witness = C.norm_splitting(ctx.O, ctx.sub2, samples=32,
                                           seed=seed)
    prod = consts[0]
    for c in consts[1:]:
        prod = prod * c
    return {"vectors": len(vs),
            "consts-nonzero": all(not c.is_zero() for c in consts),
            "witness-in-subfield": ctx.sub2.contains(witness),
            "witness-norm-is-product": witness.norm() == prod}


def _gamma_w(ctx, seed):
    w = ctx.O.random_element(random.Random(seed), 5, nonzero=True)
    return OA.gamma_w_decompose(w, samples=Q_TWIST_SAMPLES, seed=seed)[2]


def _sigma_s(ctx, seed):
    rng = random.Random(seed)
    w = ctx.O.random_element(rng, 5, nonzero=True)
    chain = OA.JordanMap([ctx.psis[rng.randrange(3)], OA.Conj(w)], ctx.O)
    return OA.sigma_s_central_check(chain, samples=Q_TWIST_SAMPLES, seed=seed)


def _q_suite(suite):
    def run(ctx, seed):
        return C.verify_identities(ctx.O, suite, samples=Q_SUITE_SAMPLES,
                                   seed=seed)
    return run


Q_TOWER_ROUND = [("identities.octonion-Q.%s" % s, _q_suite(s))
                 for s in C.SUITES] + [
    ("identities.dim16-Q.alternative",
     lambda ctx, seed: C.verify_identities(ctx.D16, "alternative",
                                           samples=Q_SUITE_SAMPLES, seed=seed)),
    ("hua.triangle-octonion-Q",
     lambda ctx, seed: P.rgs_hua_consistency(
         ctx.triangle, samples=Q_TRIANGLE_SAMPLES, seed=seed)),
    ("norm-splitting.octonion-Q", _norm_splitting),
    ("psi.product-rule",
     lambda ctx, seed: OA.psi_product_rule_check(
         ctx.psis[0], samples=Q_TWIST_SAMPLES, seed=seed)),
    ("gamma-w.decompose", _gamma_w),
    ("gamma-w.decompose", _gamma_w),
    ("sigma-s.central", _sigma_s),
    ("sigma-s.central", _sigma_s),
    ("jaut.verify",
     lambda ctx, seed: OA.jaut_verify(ctx.jmap, samples=Q_TWIST_SAMPLES,
                                      seed=seed)),
]


# -- finite_exhaustive --------------------------------------------------------

def finite_exhaustive_setup():
    ctx = SimpleNamespace()
    ctx.qq = P.qq_f4_space()
    ctx.qp = P.qp_xi_f4()
    ctx.wg_qp = P.WordGroup(ctx.qp)
    ctx.tri_f4 = P.triangle(S.F4, name="T(F4)")
    ctx.towers = {"F3": C.CDAlgebra(S.F3, [-1, -1, -1], name="octonion-F3"),
                  "F5": C.CDAlgebra(S.F5, [-1, -1, -1], name="octonion-F5")}
    return ctx


def _qq_build_axioms(ctx, seed):
    wg = P.WordGroup(ctx.qq)
    return {"order": len(wg.elements), "axioms": wg.check_axioms()}


def _qp_axioms(ctx, seed):
    return {"order": len(ctx.wg_qp.elements),
            "axioms": ctx.wg_qp.check_axioms()}


def _census(ctx, seed):
    """The census plus the counts criterion 3 asserts, which sit in the
    `samples` field that the comparison otherwise leaves out."""
    rep = PQ.f4_census()
    return {"census": rep,
            "counts": {rule: rep.line(rule).samples for rule in (
                "census.order", "census.automorphism-count",
                "census.outer-count")}}


def _inner_automorphism(ctx, seed):
    """Full hom sweep of the 1024-element table against x -> g^-1 x g."""
    wg = ctx.wg_qp
    t = wg.table
    g = random.Random(seed).randrange(len(wg.elements))
    ginv = int(wg.inverse_vector()[g])
    perm = t[t[ginv, :], g]
    return {"order": len(wg.elements),
            "is-automorphism": bool(TB.is_automorphism(t, perm))}


def _fp_suite(field, suite):
    def run(ctx, seed):
        return C.verify_identities(ctx.towers[field], suite,
                                   samples=FP_SUITE_SAMPLES, seed=seed)
    return run


FINITE_EXHAUSTIVE_ROUND = [
    ("wordgroup.QP-Xi-F4.axioms", _qp_axioms),
    ("tables.QP-Xi-F4.inner-automorphism", _inner_automorphism),
    ("hua.QP-Xi-F4", lambda ctx, seed: P.rgs_hua_consistency(ctx.qp,
                                                            seed=seed)),
    ("wordgroup.QQ-F4.build-axioms", _qq_build_axioms),
    ("hua.QQ-F4", lambda ctx, seed: P.rgs_hua_consistency(ctx.qq, seed=seed)),
    ("hua.triangle-F4", lambda ctx, seed: P.rgs_hua_consistency(ctx.tri_f4,
                                                               seed=seed)),
    ("census.F4", _census),
] + [("identities.octonion-%s.%s" % (field, s), _fp_suite(field, s))
     for copy in range(FP_COPIES) for field in ("F3", "F5") for s in FP_SUITES]


# -- foundations_mix ------------------------------------------------------------

SAMPLE_NAMES = ("a2_octonion", "bad_triangle_f4", "circle5_f5",
                "d4_star_quaternion", "f443_indifferent", "f443_involutory",
                "p3_quaternion", "tetrahedron_octonion")
CLASSIFIED = ("tetrahedron_octonion", "d4_star_quaternion", "circle5_f5",
              "a2_octonion", "p3_quaternion")
REJECTED_TAGS = (P.SYMBOL_QD, P.SYMBOL_QE, P.SYMBOL_QF)


def foundations_mix_setup():
    ctx = SimpleNamespace()
    ctx.fnd = {name: CAT.foundation_from_file(SAMPLE_DIR / (name + ".json"))
               for name in SAMPLE_NAMES}
    ctx.rejected = {tag: CAT.rejected_443_foundation(tag)
                    for tag in REJECTED_TAGS}
    ctx.xh = PQ.xi_hamilton()
    ctx.up, ctx.gamma_up = PQ.dim_switch_up(ctx.xh)
    ctx.down, ctx.gamma_down = PQ.dim_switch_down(ctx.up)
    sp = QS.space_from_quadext(S.F4, name="(F4,F2,N)")
    ctx.space_f4 = sp
    ctx.space_qi = QS.space_from_quadext(S.QI, name="(Q(i),Q,N)")
    ctx.ms_space = M.MoufangSet(M.MoufangSet.QUADRATIC, sp)
    ctx.ms_linear = M.MoufangSet(M.MoufangSet.LINEAR, S.F4)
    small, _ = QS.qs_small_dim_field(sp)
    ctx.ms_small = M.MoufangSet(M.MoufangSet.LINEAR, H.SmallFieldHandle(small))
    ctx.ms_xi_f4 = M.MoufangSet(M.MoufangSet.PSEUDOQUADRATIC, PQ.xi_f4())
    ctx.ms_xi_h = M.MoufangSet(M.MoufangSet.PSEUDOQUADRATIC, ctx.xh)
    ctx.ms_q = M.MoufangSet(M.MoufangSet.LINEAR, S.QQ)
    ctx.inv_h = U.InvolutorySet(C.quaternions_q(), U.SIGMA_STANDARD)
    ctx.inv_qi = U.InvolutorySet(S.QI, U.SIGMA_GALOIS)
    w = S.F4.gen()
    ctx.ind_f4 = U.IndifferentSet(S.F4, [S.F4.one(), w], [S.F4.one(), w])
    return ctx


def _f4_vector_to_scalar(v):
    return S.Scalar(S.F4, (v.coords[0].val, v.coords[1].val))


def _cli(argv_fn):
    """`mforge ... --json` in process: exit code plus the emitted lines."""
    def run(ctx, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv_fn(seed) + ["--json"])
        return {"exit": code,
                "out": [json.loads(ln) for ln in buf.getvalue().splitlines()
                        if ln.strip()]}
    return run


def _fnd_check(name):
    return lambda ctx, seed: F.fnd_check(ctx.fnd[name], samples=FND_SAMPLES,
                                         seed=seed)


def _classify(name):
    return lambda ctx, seed: F.fnd_classify_simply_laced(
        ctx.fnd[name], samples=FND_SAMPLES, seed=seed)


FOUNDATIONS_MIX_ROUND = [
    ("fnd-check.%s" % name, _fnd_check(name)) for name in SAMPLE_NAMES] + [
    ("fnd-classify.%s" % name, _classify(name)) for name in CLASSIFIED] + [
    ("fnd-443.f443_involutory",
     lambda ctx, seed: F.fnd_check_443(ctx.fnd["f443_involutory"],
                                       samples=FND_SAMPLES, seed=seed)),
    ("fnd-443.f443_indifferent",
     lambda ctx, seed: F.fnd_check_443(ctx.fnd["f443_indifferent"],
                                       samples=FND_SAMPLES, seed=seed)),
] + [("fnd-443.rejected-%s" % tag,
      (lambda tag: lambda ctx, seed: F.fnd_check_443(
          ctx.rejected[tag], samples=6, seed=seed))(tag))
     for tag in REJECTED_TAGS] + [
    ("dim-switch.up",
     lambda ctx, seed: PQ.t_jordan_check(ctx.gamma_up, ctx.xh, ctx.up,
                                         samples=DIM_SWITCH_SAMPLES,
                                         seed=seed)),
    ("dim-switch.down",
     lambda ctx, seed: PQ.t_jordan_check(ctx.gamma_down, ctx.down, ctx.up,
                                         samples=DIM_SWITCH_SAMPLES,
                                         seed=seed)),
    ("ms-coincide.F4-space-linear",
     lambda ctx, seed: M.ms_coincide(ctx.ms_space, ctx.ms_linear,
                                     bijection=_f4_vector_to_scalar,
                                     samples=MS_SAMPLES, seed=seed)),
    ("ms-coincide.F4-space-small-field",
     lambda ctx, seed: M.ms_coincide(ctx.ms_space, ctx.ms_small,
                                     samples=MS_SAMPLES, seed=seed)),
    ("ms-verify.xi-F4",
     lambda ctx, seed: M.ms_verify(ctx.ms_xi_f4, samples=MS_SAMPLES,
                                   seed=seed)),
    ("ms-verify.xi-hamilton",
     lambda ctx, seed: M.ms_verify(ctx.ms_xi_h, samples=MS_SAMPLES,
                                   seed=seed)),
    ("ms-verify.F4-space",
     lambda ctx, seed: M.ms_verify(ctx.ms_space, samples=MS_SAMPLES,
                                   seed=seed)),
    ("ms-verify.linear-Q",
     lambda ctx, seed: M.ms_verify(ctx.ms_q, samples=MS_SAMPLES, seed=seed)),
    ("verify-space.F4",
     lambda ctx, seed: QS.verify_space(ctx.space_f4, samples=MS_SAMPLES,
                                       seed=seed)),
    ("verify-space.Qi",
     lambda ctx, seed: QS.verify_space(ctx.space_qi, samples=MS_SAMPLES,
                                       seed=seed)),
    ("inv-check.hamilton",
     lambda ctx, seed: U.inv_check(ctx.inv_h, samples=MS_SAMPLES, seed=seed)),
    ("inv-check.Qi-galois",
     lambda ctx, seed: U.inv_check(ctx.inv_qi, samples=MS_SAMPLES, seed=seed)),
    ("ind-check.F4", lambda ctx, seed: U.ind_check(ctx.ind_f4)),
] + [("catalog-build-check.%s" % name,
      (lambda name: lambda ctx, seed: F.fnd_check(
          CAT.NAMED_FOUNDATIONS[name](), samples=FND_SAMPLES, seed=seed))(name))
     for name in sorted(CAT.NAMED_FOUNDATIONS)] + [
    ("cli.verify-quaternion-inverse",
     _cli(lambda seed: ["verify", "--algebra", "quaternion-Q", "--suite",
                        "inverse", "--samples", "20", "--seed", str(seed)])),
    ("cli.foundation-check-a2",
     _cli(lambda seed: ["foundation", "check",
                        str(SAMPLE_DIR / "a2_octonion.json"),
                        "--samples", str(FND_SAMPLES), "--seed", str(seed)])),
    ("cli.foundation-classify-circle5",
     _cli(lambda seed: ["foundation", "classify",
                        str(SAMPLE_DIR / "circle5_f5.json"),
                        "--samples", str(FND_SAMPLES), "--seed", str(seed)])),
    ("cli.polygon-exhaustive-QQ",
     _cli(lambda seed: ["polygon", "exhaustive", "QQ", "F4-space",
                        "--seed", str(seed)])),
]


class Workload:
    """A set-up function, one round of (kind, check) pairs, how many
    set-ups a run times (each in a fresh process) and how many rounds the
    traced run issues."""

    def __init__(self, name, setup, round_, setup_reps, traced_rounds):
        self.name = name
        self.setup = setup
        self.round = round_
        self.setup_reps = setup_reps
        self.traced_rounds = traced_rounds

    def checks(self, run_seed, rnd):
        """(kind, seed, fn) for every check of round `rnd`."""
        return [(kind, check_seed(run_seed, self.name, rnd, slot), fn)
                for slot, (kind, fn) in enumerate(self.round)]


WORKLOADS = {w.name: w for w in (
    Workload("q_tower", q_tower_setup, Q_TOWER_ROUND, setup_reps=5,
             traced_rounds=2),
    Workload("finite_exhaustive", finite_exhaustive_setup,
             FINITE_EXHAUSTIVE_ROUND, setup_reps=3, traced_rounds=1),
    Workload("foundations_mix", foundations_mix_setup, FOUNDATIONS_MIX_ROUND,
             setup_reps=5, traced_rounds=1),
)}

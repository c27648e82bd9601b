import random

import pytest

from mforge.foundations import GAtom, GStandardInvolution
from mforge.octonion_aut import (Conj, JordanMap, Phi, Psi,
                                 gamma_w_decompose, jaut_verify,
                                 psi_product_rule_check,
                                 sigma_s_central_check, special_pair_check,
                                 standard_quaternion_frame)


@pytest.fixture(scope="module")
def frame(octonions):
    sub, e = standard_quaternion_frame(octonions)
    return octonions, sub, e


def test_psi_fixes_subalgebra(frame):
    O, sub, e = frame
    psi = Psi(O, sub, e, O.unit(1))
    x = O.element([1, 2, 3, 4, 0, 0, 0, 0])
    assert psi.apply(x) == x


def test_psi_with_central_w_is_identity(frame):
    O, sub, e = frame
    psi = Psi(O, sub, e, O.from_base(5))
    rng = random.Random(1)
    for _ in range(15):
        x = O.random_element(rng, 9)
        assert psi.apply(x) == x


def test_psi_twists_upper_half_by_conjugation(frame):
    O, sub, e = frame
    w = O.unit(1)
    psi = Psi(O, sub, e, w)
    rng = random.Random(2)
    for _ in range(15):
        y = O.element([0, 0, 0, 0] + [0, 0, 0, 0])
        y = O.random_element(rng, 5)
        y = O.element(list(y.coords[:4]) + [0, 0, 0, 0])
        img = psi.apply(e * y)
        assert img == e * ((w.inverse() * y) * w)


def test_standard_involution_atom(frame):
    O, _, e = frame
    j = JordanMap([GStandardInvolution()], O)
    assert j.apply(e) == -e


def test_psi_jordan_and_witnesses(frame):
    O, sub, e = frame
    j = JordanMap([Psi(O, sub, e, O.unit(1))], O)
    rep = jaut_verify(j, samples=80, seed=3)
    assert rep.passed
    assert rep.auto_witness is not None
    assert rep.anti_witness is not None


def test_sigma_s_is_anti_only(octonions):
    j = JordanMap([GStandardInvolution()], octonions)
    rep = jaut_verify(j, samples=80, seed=4)
    assert rep.passed
    assert rep.auto_witness is not None
    assert rep.anti_witness is None


def test_identity_is_automorphism(octonions):
    j = JordanMap([], octonions)
    rep = jaut_verify(j, samples=60, seed=5)
    assert rep.passed
    assert rep.auto_witness is None


def test_phi_needs_norm_one(frame):
    O, sub, e = frame
    with pytest.raises(ValueError):
        Phi(O, sub, e, O.unit(1), O.from_base(2))
    phi = Phi(O, sub, e, O.unit(1), O.unit(2))
    assert jaut_verify(JordanMap([phi], O), samples=50, seed=6).passed


def test_psi_product_rule(frame):
    O, sub, e = frame
    psi = Psi(O, sub, e, O.unit(1))
    assert psi_product_rule_check(psi, samples=80, seed=7).passed
    # s, t inside the fixed subalgebra: both sides reduce to the product
    rng = random.Random(8)
    for _ in range(10):
        s = O.element(list(O.random_element(rng, 5).coords[:4]) + [0] * 4)
        t = O.element(list(O.random_element(rng, 5).coords[:4]) + [0] * 4)
        lhs = psi.apply(s * t)
        assert lhs == s * t


def test_gamma_w_decompose(octonions):
    rng = random.Random(9)
    for _ in range(4):
        w = octonions.random_element(rng, 5, nonzero=True)
        phi, psi, rep = gamma_w_decompose(w, samples=40, seed=10)
        assert rep.passed, repr(rep)
    # w = 1 gives identity atoms
    phi, psi, rep = gamma_w_decompose(octonions.one(), samples=10)
    assert rep.passed
    x = octonions.element([1, 2, 3, 4, 5, 6, 7, 8])
    assert phi.apply(psi.apply(x)) == x


def test_gamma_w_decompose_builds_and_checks_one_frame(octonions,
                                                       monkeypatch):
    from mforge import octonion_aut
    built = []

    class CountingFrame(octonion_aut.DoublingFrame):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("check", True))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(octonion_aut, "DoublingFrame", CountingFrame)
    w = octonions.element([1, 2, 0, 1, 0, 0, 0, 0])
    phi, psi, rep = gamma_w_decompose(w, samples=5)
    assert rep.passed
    assert phi.frame is psi.frame
    assert built == [True]


def test_sigma_s_commutes_with_chains(frame):
    O, sub, e = frame
    chains = [JordanMap([], O),
              JordanMap([Psi(O, sub, e, O.unit(1))], O),
              JordanMap([Conj(O.one() + O.unit(2))], O)]
    for j in chains:
        assert sigma_s_central_check(j, samples=40, seed=11).passed


def test_composition_of_chains_stays_jordan(frame):
    O, sub, e = frame
    a = JordanMap([Psi(O, sub, e, O.unit(1))], O)
    b = JordanMap([Conj(O.one() + O.unit(3))], O)
    composite = a.compose(b)
    assert composite.algebra is O
    assert jaut_verify(composite, samples=60, seed=12).passed


def test_conjugation_needs_an_invertible_element(octonions):
    with pytest.raises(ValueError):
        Conj(octonions.zero())


def test_special_pairs(octonions):
    rep = special_pair_check(octonions.unit(1), octonions.unit(2))
    assert rep.is_special
    rep2 = special_pair_check(octonions.one(), octonions.unit(1))
    assert not rep2.is_special
    rep3 = special_pair_check(octonions.unit(1), octonions.unit(4))
    assert rep3.is_special


def test_psi_on_generated_subalgebra(octonions):
    # build the frame around a non-standard quaternion subalgebra
    w = octonions.one() + octonions.unit(1) + octonions.unit(2)
    from mforge.octonion_aut import extend_to_quaternion_subalgebra
    sub = extend_to_quaternion_subalgebra(octonions, w)
    assert sub.dim == 4 and sub.contains(w)


# -- the matrix path against the atom-by-atom rule ---------------------------

def _octonions_over(name):
    from mforge.composition import CDAlgebra
    from mforge.scalars import field_by_name
    return CDAlgebra(field_by_name(name), [-1, -1, -1])


TOWERS = ("Q", "F3", "Qi")


def _draws(O, rng, n):
    """n seeded elements; over Q and Q(i) only ones with a denominator."""
    out = []
    while len(out) < n:
        x = O.random_element(rng, 9)
        if O.characteristic() or x.den > 1:
            out.append(x)
    return out


def _unit_nonzero_norm(O, rng):
    while True:
        w = O.random_element(rng, 5)
        if not w.norm().is_zero():
            return w


def _atoms(O):
    """One of each additive atom on O, by name."""
    from mforge.foundations import GIdentity, GIdOpposite, GLinear
    from mforge.handles import as_handle
    rng = random.Random(71)
    sub, e = standard_quaternion_frame(O)
    base, n = O.base, O.dim
    # unit upper triangular, so invertible
    matrix = [[base.scalar(int(i == j)) if j <= i else
               base.scalar(rng.randrange(-3, 4)) for j in range(n)]
              for i in range(n)]
    return {"id": GIdentity(), "id^op": GIdOpposite(),
            "sigma_s": GStandardInvolution(),
            "conj": Conj(_unit_nonzero_norm(O, rng)),
            "linear": GLinear(matrix, as_handle(O)),
            "psi": Psi(O, sub, e, O.one() + O.unit(1)),
            "phi": Phi(O, sub, e, O.one() + O.unit(1), O.unit(2))}


def _chains(O):
    atoms = _atoms(O)
    chains = {name: JordanMap([atom], O) for name, atom in atoms.items()}
    psi, conj, lin = chains["psi"], chains["conj"], chains["linear"]
    chains["psi.conj"] = psi.compose(conj)
    chains["phi.sigma_s.psi"] = chains["phi"].compose(
        chains["sigma_s"]).compose(psi)
    chains["conj^-1"] = conj.inverse()
    chains["linear^-1.conj"] = lin.inverse().compose(conj)
    chains["(conj.linear.sigma_s)^-1"] = conj.compose(lin).compose(
        chains["sigma_s"]).inverse()
    chains["(phi.psi)^-1"] = chains["phi"].compose(psi).inverse()
    return chains


@pytest.mark.parametrize("tower", TOWERS)
def test_matrix_path_equals_the_rule(tower):
    from mforge.foundations import GlueingMap
    O = _octonions_over(tower)
    xs = _draws(O, random.Random(73), 200)
    for name, chain in _chains(O).items():
        for x in xs:
            assert chain(x) == GlueingMap.apply(chain, x), (name, x)
        assert chain._matrix, name


@pytest.mark.parametrize("tower", TOWERS)
@pytest.mark.parametrize("name", ["psi", "phi"])
def test_half_twists_invert_on_their_frame(tower, name):
    O = _octonions_over(tower)
    atom = _atoms(O)[name]
    back = JordanMap([atom], O).inverse()
    assert back.atoms[0].frame is atom.frame
    for x in _draws(O, random.Random(97), 200):
        assert back(atom.apply(x)) == x, x
    assert back._matrix


@pytest.mark.parametrize("tower", TOWERS)
def test_matrix_is_built_once_per_chain(tower, monkeypatch):
    from mforge.foundations import GlueingMap
    O = _octonions_over(tower)
    chain = _chains(O)["psi.conj"]
    xs = _draws(O, random.Random(79), 200)
    rule = GlueingMap.apply
    calls = []

    def counting(self, x):
        calls.append(x)
        return rule(self, x)

    monkeypatch.setattr(GlueingMap, "apply", counting)
    for x in xs:
        chain(x)
    assert len(calls) == O.dim * O._kernel.r
    assert [(c.nums, c.den) for c in calls] == [
        (tuple(int(i == k) for i in range(len(calls))), 1)
        for k in range(len(calls))]


class _Doubling(GAtom):
    """x -> x + x, additive, but not flagged so."""

    def apply(self, x):
        return x + x


def test_unflagged_atoms_and_other_towers_take_the_rule(octonions,
                                                        quaternions,
                                                        monkeypatch):
    from mforge.composition import octonions_q
    from mforge.foundations import GlueingMap, GTableMap
    xs = _draws(octonions, random.Random(83), 20)
    # sigma_s, then the table back: the identity on xs
    table = GTableMap([(x.conj(), x) for x in xs])
    rule = GlueingMap.apply
    calls = []

    def counting(self, x):
        calls.append(x)
        return rule(self, x)

    monkeypatch.setattr(GlueingMap, "apply", counting)
    for atoms in ([table, GStandardInvolution()], [Psi(
            octonions, *standard_quaternion_frame(octonions),
            octonions.unit(1)), _Doubling()]):
        chain = JordanMap(atoms, octonions)
        del calls[:]
        for x in xs:
            assert chain(x) == rule(chain, x)
        assert chain._matrix is False
        assert len(calls) == len(xs)

    sigma = JordanMap([GStandardInvolution()], octonions)
    twin = octonions_q()
    for x in (quaternions.element([1, 2, 3, 4]), twin.element(range(8))):
        y = sigma(x)
        assert y.algebra is x.algebra and y == x.conj()
    assert sigma._matrix is None


def test_a_frame_that_does_not_span_keeps_the_rule():
    from mforge.composition import Subspace, sedenion_style_q
    from mforge.linalg import NotInSpan
    D = sedenion_style_q()
    sub = Subspace(D, D.basis()[:4])
    psi = Psi(D, sub, D.unit(4), D.unit(1))
    chain = JordanMap([psi], D)
    x = D.element([1, 2, 3, 4, 5, 6, 7, 8] + [0] * 8)
    assert chain(x) == psi.apply(x)
    assert chain._matrix is False
    with pytest.raises(NotInSpan):
        chain(D.unit(8))


def test_copies_do_not_keep_the_source_matrix(frame):
    from mforge.foundations import GlueingMap
    O, sub, e = frame
    rng = random.Random(89)
    a = JordanMap([Psi(O, sub, e, O.unit(1))], O)
    c = JordanMap([Conj(O.one() + O.unit(3))], O)
    xs = _draws(O, rng, 20)
    a(xs[0])
    c(xs[0])
    b = JordanMap([Conj(O.one() + O.unit(5))], O)
    for composite in (a.compose(b), c.inverse(), c.compose(a)):
        assert composite._matrix is None
        for x in xs:
            assert composite(x) == GlueingMap.apply(composite, x)
    for x in xs:
        assert c.inverse()(c(x)) == x

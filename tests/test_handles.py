"""The handle protocol on every carrier kind and on its reversed reading."""

import random
from fractions import Fraction

import pytest

from mforge.composition import (CDAlgebra, Subspace, gauss_q, octonions_q,
                                quaternions_q)
from mforge import handles
from mforge.handles import Handle, SmallFieldHandle, as_handle
from mforge.moufang import ParamGroup
from mforge.pseudoquad import xi_f4
from mforge.quadspace import (qs_small_dim_field, space_from_algebra,
                              space_from_quadext)
from mforge.scalars import F3, F4, F5, QI, QQ, PrimeField


def _small_f4():
    small, _ = qs_small_dim_field(space_from_quadext(F4, name="(F4,F2,N)"))
    return SmallFieldHandle(small)


CARRIERS = {
    "QQ": lambda: as_handle(QQ),
    "F5": lambda: as_handle(F5),
    "F4": lambda: as_handle(F4),
    "QI": lambda: as_handle(QI),
    "Qi-tower": lambda: as_handle(gauss_q()),
    "quaternions": lambda: as_handle(quaternions_q()),
    "octonions": lambda: as_handle(octonions_q()),
    "small-F4": _small_f4,
}
TOWERS = {"Qi-tower", "quaternions", "octonions"}


@pytest.fixture(scope="module", params=[(name, reading)
                                        for name in sorted(CARRIERS)
                                        for reading in ("plain", "op")],
                ids=lambda p: "%s-%s" % p)
def handle(request):
    name, reading = request.param
    h = CARRIERS[name]()
    return h if reading == "plain" else h.opposite()


def _samples(h, n=6, nonzero=False):
    rng = random.Random(11)
    return [h.random(rng, 9, nonzero=nonzero) for _ in range(n)]


def test_coords_round_trip(handle):
    for x in _samples(handle):
        coords = x.coords
        assert len(coords) == handle.coord_dim
        assert handle.carrier.element(coords) == x


@pytest.mark.parametrize("field", [QQ, F5, F4, QI])
def test_field_coords_are_the_payload(field):
    h = as_handle(field)
    for x in _samples(h):
        vals = field.parts(x.val) if field.coord_dim == 2 else (x.val,)
        assert [c.val for c in x.coords] == list(vals)
        assert all(c.field == field.coord_field for c in x.coords)
        assert field.element(x.coords).val == x.val


def test_one_handle_class_for_fields_and_towers():
    """Every field and tower is read by `Handle` itself; the small field of
    a quadratic plane is the one subclass."""
    for name, make in CARRIERS.items():
        if name != "small-F4":
            assert type(make()) is Handle, name
    assert {name for name, obj in vars(handles).items()
            if isinstance(obj, type) and issubclass(obj, Handle)} == {
                "Handle", "SmallFieldHandle"}
    with pytest.raises(TypeError, match="no handle for 3"):
        as_handle(3)


def test_one_is_neutral_and_zero_is_additive(handle):
    one = handle.one()
    for x in _samples(handle):
        assert handle.mul(one, x) == x == handle.mul(x, one)
        assert (x + -x).is_zero()
        assert x - x == handle.zero()


def test_elements_carry_their_own_arithmetic():
    """The element ops live on the elements alone: no handle forwards them,
    no root group stores a key or a renderer, and a Scalar's key is the
    payload the field handle used to key it by."""
    forwards = {"add", "sub", "neg", "is_zero", "conj", "key", "render",
                "coords", "uncoords"}
    for cls in (Handle, SmallFieldHandle):
        assert not forwards & set(vars(cls)), cls
    assert not {"key", "render"} & set(ParamGroup._fields)
    assert len(ParamGroup._fields) == 8
    for field in (QQ, F5, F4, QI):
        for x in _samples(as_handle(field)):
            assert not hasattr(x, "key") and hash(x) == hash(x.val)


def _scalar_valued(base, betas, value):
    """A scalar-valued tower element, and its scalar s: the element is
    from_base(s) reached through one().scale(s), and s is foreign."""
    algebra = CDAlgebra(base, betas)
    s = base.scalar(value)
    return algebra.one().scale(s), algebra.from_base(s), [s]


def _space_basepoint():
    """The basepoint of a tower's norm space, reached as the sum of two
    vectors, against the tower's one: they have one stored form."""
    tower = CDAlgebra(QQ, [-1, -1])
    space = space_from_algebra(tower)
    v = space.vector([1, 1, 0, 0])
    x = v + (space.basepoint - v)
    assert (x.nums, x.den) == (tower.one().nums, tower.one().den)
    return x, space.basepoint, [tower.one()]


def _t_point():
    sp = xi_f4()
    p, q = [pt for pt in sp.enumerate_t() if not pt.is_central()][:2]
    return p * q * q.inverse(), p, [p.t, (p.a, p.t)]


# per carrier: two equal values reached by different routes, and values
# of other carriers that neither equals
EQUALITY_CASES = {
    "QQ": lambda: (QQ.scalar("7/2") - QQ.scalar("1/2"), QQ.scalar(3),
                   [F5.scalar(3)]),
    "F5": lambda: (F5.scalar(3) * F5.scalar(4), F5.scalar(7),
                   [PrimeField(7).scalar(2), QQ.scalar(2)]),
    "F4": lambda: (F4.gen() * F4.gen() * F4.gen(), F4.one(), [F3.one()]),
    "QI": lambda: (QI.gen() * QI.gen(), QI.scalar(-1), [QQ.scalar(-1)]),
    "tower-Q": lambda: _scalar_valued(QQ, [-1, -1], 3),
    "tower-F3": lambda: _scalar_valued(F3, [-1, -1], 2),
    "space": _space_basepoint,
    "TPoint": _t_point,
}


@pytest.mark.parametrize("name", sorted(EQUALITY_CASES))
def test_values_are_their_own_keys(name):
    """One equality contract: equal values hash alike whatever route
    reached them, and a value equals no int, no Fraction and no value of
    another carrier, so it serves as its own dict key."""
    x, y, foreign = EQUALITY_CASES[name]()
    assert x is not y and x == y and y == x and hash(x) == hash(y)
    assert {x: name}[y] == name and len({x, y}) == 1
    numbers = list(range(-7, 8)) + [Fraction(n, 2) for n in range(-7, 8)]
    for v in foreign + numbers:
        assert x != v and v != x and not x == v
        assert len({x, v}) == 2 and v not in {x: name}
    assert F5.scalar(2) != 7 and len({QQ.scalar(3), 3}) == 2


def test_inverse_is_two_sided(handle):
    for x in _samples(handle, nonzero=True):
        assert handle.mul(x, handle.inv(x)) == handle.one()
        assert handle.mul(handle.inv(x), x) == handle.one()


def test_conj_is_an_involution(handle):
    for x in _samples(handle):
        assert x.conj().conj() == x


def test_double_opposite_is_the_handle(handle):
    assert handle.opposite().opposite() == handle
    assert hash(handle.opposite().opposite()) == hash(handle)


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_only_towers_have_a_distinct_opposite(name):
    h = CARRIERS[name]()
    op = h.opposite()
    if name in TOWERS:
        assert op != h
        assert repr(op) == repr(h) + "^op"
        assert not repr(h).endswith("^op")
    else:
        assert op is h


def test_opposite_reverses_quaternion_products(quaternions):
    h = as_handle(quaternions)
    op = h.opposite()
    x, y = quaternions.unit(1), quaternions.unit(2)
    assert h.mul(x, y) != h.mul(y, x)
    assert op.mul(x, y) == h.mul(y, x)
    assert op.mul(y, x) == h.mul(x, y)


def test_small_field_handles_hash_like_they_compare():
    a, b = _small_f4(), _small_f4()
    assert a.space is not b.space
    assert a == b
    assert len({a, b}) == 1


@pytest.mark.parametrize("base, betas", [(QQ, [-1, -1]), (QI, [-1, 3]),
                                         (F3, [-1, -1, -1])],
                         ids=["Q", "Qi", "F3"])
def test_span_and_subspace_agree_on_tower_membership(base, betas):
    algebra = CDAlgebra(base, betas)
    rng = random.Random(11)
    gens = [algebra.random_element(rng, 5) for _ in range(algebra.dim // 2)]
    span, sub = Subspace(as_handle(algebra), gens), Subspace(algebra, gens)
    members = [gens[0] + gens[-1], gens[0].scale(base.scalar(2)),
               algebra.zero()]
    others = [algebra.random_element(rng, 5) for _ in range(20)]
    assert all(span.contains(x) for x in members)
    assert [span.contains(x) for x in others] == [sub.contains(x)
                                                 for x in others]
    assert not all(span.contains(x) for x in others)


def test_tower_elements_are_listed_only_when_small():
    with pytest.raises(ValueError, match=r"5\^8"):
        as_handle(CDAlgebra(F5, [-1, -1, -1])).elements()
    elems = as_handle(CDAlgebra(F3, [-1, -1])).elements()
    assert len(set(elems)) == len(elems) == 81
    # a field lists all its elements, as a finite carrier's (P3) scan needs
    assert len(as_handle(PrimeField(65537)).elements()) == 65537

"""The handle protocol on every carrier kind and on its reversed reading."""

import random

import pytest

from mforge.composition import (CDAlgebra, Subspace, gauss_q, octonions_q,
                                quaternions_q)
from mforge.handles import (CDHandle, FieldHandle, Handle, SmallFieldHandle,
                            as_handle)
from mforge.moufang import ParamGroup
from mforge.quadspace import qs_small_dim_field, space_from_quadext
from mforge.scalars import F3, F4, F5, QI, QQ


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
        coords = handle.coords(x)
        assert len(coords) == handle.coord_dim
        assert handle.uncoords(coords) == x


@pytest.mark.parametrize("field", [QQ, F5, F4, QI])
def test_field_coords_are_the_payload(field):
    h = as_handle(field)
    for x in _samples(h):
        vals = field.parts(x.val) if field.coord_dim == 2 else (x.val,)
        assert [c.val for c in h.coords(x)] == list(vals)
        assert all(c.field == field.coord_field for c in h.coords(x))
        assert h.uncoords(h.coords(x)).val == x.val


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
    forwards = {"add", "sub", "neg", "is_zero", "conj", "key", "render"}
    for cls in (Handle, FieldHandle, CDHandle, SmallFieldHandle):
        assert not forwards & set(vars(cls)), cls
    assert not {"key", "render"} & set(ParamGroup._fields)
    assert len(ParamGroup._fields) == 8
    for field in (QQ, F5, F4, QI):
        for x in _samples(as_handle(field)):
            assert x.key() == x.val


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
    assert len({x.key() for x in elems}) == len(elems) == 81

"""Backend arithmetic: canonical forms, exactness, and skew-field laws."""

import copy
import math
import operator
import pickle
import sys
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import example, given, strategies as st

from conftest import nonzero_quaternions, nonzero_rationals, quaternions, rationals
from skewplane.errors import BackendMismatchError, UsageError, ZeroInverseError
from skewplane.expressions import parse_scalar
from skewplane.scalars import (
    PrimeField,
    PrimeFieldElement,
    QuaternionField,
    Rational,
    RationalField,
    RationalQuaternion,
    PRIMALITY_BOUND,
    ensure_same_backend,
    is_prime,
)


class TestRational:
    def test_canonical_form(self):
        assert Rational(2, 4) == Rational(1, 2)
        assert Rational(1, -2) == Rational(-1, 2)
        assert Rational(1, -2).denominator == 2
        assert Rational(0, 7).denominator == 1

    def test_addition_matches_integer_oracle(self):
        # 2/3 + 1/6: numerator 2*6 + 1*3 = 15 over 18, gcd 3 -> 5/6
        assert 2 * 6 + 1 * 3 == 15
        assert Rational(2, 3) + Rational(1, 6) == Rational(15, 18) == Rational(5, 6)

    def test_add_zero_neutral(self):
        a = Rational(-7, 11)
        assert a + Rational(0) == a

    def test_sub_and_neg(self):
        assert -Rational(2, 3) == Rational(-2, 3)
        a = Rational(9, 4)
        assert (a - a).is_zero()

    def test_inverse_multiplies_back_to_one(self):
        a = Rational(2, 3)
        assert a.inverse() == Rational(3, 2)
        assert a * a.inverse() == Rational(1)
        assert Rational(1).inverse() == Rational(1)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroInverseError):
            Rational(0).inverse()

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Rational(0.5)
        with pytest.raises(TypeError):
            Rational(1, 2.0)

    def test_strings_and_zero_denominators_rejected(self):
        for text in ("1/2", "3"):
            with pytest.raises(TypeError):
                Rational(text)
            with pytest.raises(TypeError):
                RationalQuaternion(0, text)
        with pytest.raises(ZeroDivisionError):
            Rational(1, 0)
        with pytest.raises(ZeroDivisionError):
            Rational(Fraction(1, 2), Rational(0))

    def test_int_coercion(self):
        assert Rational(3) + 1 == Rational(4)
        assert 2 * Rational(1, 2) == Rational(1)
        assert 1 - Rational(1, 3) == Rational(2, 3)


def _results(a, b):
    """``a + b``, ``a - b``, ``-a``, ``a * b`` and, unless a is zero, a^-1;
    for an int ``b``, also ``b + a``, ``b - a`` and ``b * a``."""
    out = [a + b, a - b, -a, a * b]
    if isinstance(b, int):
        out += [b + a, b - a, b * a]
    if not a.is_zero():
        out.append(a.inverse())
    return out


def _assert_built(result, cls, slot):
    """``result`` is exactly a ``cls`` and refuses assignment like any value."""
    assert type(result) is cls
    with pytest.raises(AttributeError, match="immutable"):
        setattr(result, slot, getattr(result, slot))


class TestPrimeField:
    def test_results_are_canonical_exact_and_immutable(self):
        gf7 = PrimeField(7)
        for a in gf7.elements():
            for b in (*gf7.elements(), -9, 0, 12, True):
                r = b if isinstance(b, int) else b.residue
                expected = [a.residue + r, a.residue - r, -a.residue, a.residue * r]
                if isinstance(b, int):
                    expected += [r + a.residue, r - a.residue, r * a.residue]
                if a.residue:
                    expected.append(pow(a.residue, -1, 7))
                for result, want in zip(_results(a, b), expected, strict=True):
                    _assert_built(result, PrimeFieldElement, "residue")
                    assert result.modulus == 7 and result.residue == want % 7
        for alien in (PrimeFieldElement(1, 5), Rational(1), RationalQuaternion(1)):
            for operation in (add, sub, operator.mul):
                with pytest.raises(BackendMismatchError):
                    operation(gf7.one(), alien)

    def test_product_matches_integer_oracle(self):
        gf5 = PrimeField(5)
        assert (3 * 4) % 5 == 2
        assert gf5.from_int(3) * gf5.from_int(4) == gf5.from_int(2)

    @pytest.mark.parametrize("bad", [-5, 0, 1, 4, 6, 9, 15])
    def test_composite_or_small_moduli_rejected(self, bad):
        with pytest.raises(ValueError):
            PrimeField(bad)

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 97])
    def test_prime_moduli_accepted(self, p):
        assert PrimeField(p).p == p

    def test_exhaustive_inverses_gf7(self):
        gf7 = PrimeField(7)
        one = gf7.one()
        for a in gf7.elements():
            if a.is_zero():
                with pytest.raises(ZeroInverseError):
                    a.inverse()
            else:
                assert a * a.inverse() == one
                assert a.inverse() * a == one

    def test_residue_reduction(self):
        assert PrimeFieldElement(12, 5).residue == 2
        assert PrimeFieldElement(-1, 5).residue == 4

    def test_is_prime_helper(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert is_prime(2 ** 31 - 1)
        assert not is_prime(2 ** 31)

    def test_is_prime_near_its_bound(self):
        # psi_12 passes the bases up to 37 and is caught by base 41; psi_13
        # passes all 13 bases, so is_prime refuses to answer from there on.
        assert not is_prime(399165290221 * 798330580441)
        assert PRIMALITY_BOUND == 1287836182261 * 2575672364521
        assert is_prime(2 ** 61 - 1)
        for n in (PRIMALITY_BOUND, 2 ** 89 - 1):
            with pytest.raises(ValueError, match="decided only below"):
                is_prime(n)


# Hamilton table for the eight signed units, frozen by hand.
_UNIT_PRODUCTS = {
    ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
    ("i", "1"): "i", ("i", "i"): "-1", ("i", "j"): "k", ("i", "k"): "-j",
    ("j", "1"): "j", ("j", "i"): "-k", ("j", "j"): "-1", ("j", "k"): "i",
    ("k", "1"): "k", ("k", "i"): "j", ("k", "j"): "-i", ("k", "k"): "-1",
}


def _unit(name):
    table = {
        "1": RationalQuaternion(1), "i": RationalQuaternion(0, 1),
        "j": RationalQuaternion(0, 0, 1), "k": RationalQuaternion(0, 0, 0, 1),
    }
    if name.startswith("-"):
        return -table[name[1:]]
    return table[name]


class TestQuaternion:
    @pytest.mark.parametrize("left,right", list(_UNIT_PRODUCTS))
    def test_multiplication_table(self, left, right):
        assert _unit(left) * _unit(right) == _unit(_UNIT_PRODUCTS[(left, right)])

    def test_noncommutativity_witness(self):
        i, j, k = _unit("i"), _unit("j"), _unit("k")
        assert i * j == k
        assert j * i == -k
        assert i * j != j * i

    def test_componentwise_add_sub(self):
        i, j = _unit("i"), _unit("j")
        assert i + j == RationalQuaternion(0, 1, 1, 0)
        assert i - j == RationalQuaternion(0, 1, -1, 0)

    def test_inverse_of_i(self):
        i = _unit("i")
        assert i.inverse() == -i
        assert i * i.inverse() == RationalQuaternion(1)

    def test_inverse_exact_rational_components(self):
        from fractions import Fraction

        q = RationalQuaternion(1, 2, Rational(1, 2), 0)
        assert q.norm() == Fraction(21, 4)  # 1 + 4 + 1/4
        assert q * q.inverse() == RationalQuaternion(1)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroInverseError):
            RationalQuaternion(0).inverse()

    def test_norm_zero_iff_zero(self):
        assert RationalQuaternion(0, 0, 0, 0).is_zero()
        assert not RationalQuaternion(0, Rational(1, 7), 0, 0).is_zero()


class TestBackendMismatch:
    def test_rational_vs_quaternion(self):
        with pytest.raises(BackendMismatchError):
            Rational(1) + RationalQuaternion(1)
        with pytest.raises(BackendMismatchError):
            RationalQuaternion(1) * Rational(2)

    def test_different_prime_fields(self):
        with pytest.raises(BackendMismatchError):
            PrimeFieldElement(1, 5) + PrimeFieldElement(1, 7)
        with pytest.raises(BackendMismatchError):
            PrimeFieldElement(1, 5) == PrimeFieldElement(1, 7)

    def test_equality_mismatch_raises(self):
        with pytest.raises(BackendMismatchError):
            Rational(1) == RationalQuaternion(1)


#: Per backend: its field, the value 3 built without ``from_int``, the hash
#: of its canonical key, and one of its slots.
PROTOCOL_CASES = {
    "rational": (RationalField(), Rational(6, 2), hash((3, 1)), "numerator"),
    "gfp(5)": (PrimeField(5), PrimeFieldElement(8, 5), hash((3, 5)), "residue"),
    "quaternion": (QuaternionField(), RationalQuaternion(Rational(6, 2)),
                   hash(((3, 0, 0, 0), 1)), "w"),
}
#: One field per backend, GF(5) and GF(7) counting as two.
FIELDS = [RationalField(), PrimeField(5), PrimeField(7), QuaternionField()]


class TestScalarProtocol:
    """What every backend shares: int operands, equality and hashing, the
    no-mixing rule, and immutability."""

    @pytest.mark.parametrize("backend", PROTOCOL_CASES)
    def test_shared_rules(self, backend):
        field, same, key_hash, slot = PROTOCOL_CASES[backend]
        three = field.from_int(3)
        assert three == 3 and 3 == three and three != 4 and three + True == 4
        assert 5 - three == 2 and three - 1 == 2 and 2 * three == three * 2 == 6
        assert three == same and hash(three) == hash(same) == hash(same._key()) == key_hash
        assert {same: "ok"}[three] == "ok"
        for alien in ("3", 3.0, None):
            assert three != alien and three.__eq__(alien) is NotImplemented
            with pytest.raises(TypeError):
                three + alien
        for other_field in FIELDS:
            if other_field == field:
                continue
            other = other_field.one()
            if isinstance(other, PrimeFieldElement) and isinstance(three, PrimeFieldElement):
                message = f"GF({three.modulus}) and GF({other.modulus}) elements cannot mix"
            else:
                message = (f"cannot combine {type(three).__name__} with "
                           f"{type(other).__name__} value {other!r}")
            for mix in (three.__eq__, three.__add__, three.__mul__, three.__rsub__,
                        lambda o: ensure_same_backend(three, o)):
                with pytest.raises(BackendMismatchError) as caught:
                    mix(other)
                assert str(caught.value) == message
        with pytest.raises(AttributeError, match="immutable"):
            setattr(three, slot, getattr(same, slot) + 1)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(three, slot)
        assert three == 3 and str(three) == str(same)
        assert copy.deepcopy(three) == pickle.loads(pickle.dumps(three)) == three

    # the constructor of GF(p) refuses bool, so its public value of True is of int(True)
    @pytest.mark.parametrize("sample, public", [
        (Rational(2, 3), Rational),
        (PrimeFieldElement(2, 5), lambda n: PrimeFieldElement(int(n), 5)),
        (PrimeFieldElement(2, 2 ** 61 - 1), lambda n: PrimeFieldElement(int(n), 2 ** 61 - 1)),
    ], ids=["rational", "gfp(5)", "gfp(2^61-1)"])
    @pytest.mark.parametrize("n", [0, 1, -1, -7, 4, 5, 12, 2 ** 61 - 1, 2 ** 61 + 5,
                                   2 ** 64 + 3, -(2 ** 70), True, False])
    def test_from_int_matches_the_public_constructor(self, sample, public, n):
        built, expected = sample._from_int(n), public(n)
        assert type(built) is type(expected)
        assert built == expected and built._key() == expected._key()
        assert all(type(part) is int for part in built._key())
        assert hash(built) == hash(expected)


class TestRationalLaws:
    @given(rationals(), rationals(), rationals())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(nonzero_rationals())
    def test_inverse_involution(self, a):
        assert a.inverse().inverse() == a

    @given(nonzero_rationals(), nonzero_rationals())
    def test_no_zero_divisors(self, a, b):
        assert not (a * b).is_zero()

    @given(rationals(), st.one_of(rationals(), st.integers(-10 ** 6, 10 ** 6)))
    def test_results_are_canonical_and_immutable(self, a, b):
        f = Fraction(a.numerator, a.denominator)
        g = b if isinstance(b, int) else Fraction(b.numerator, b.denominator)
        expected = [f + g, f - g, -f, f * g]
        if isinstance(b, int):
            expected += [g + f, g - f, g * f]
        if f:
            expected.append(1 / f)
        for result, want in zip(_results(a, b), expected, strict=True):
            _assert_built(result, Rational, "numerator")
            assert result.denominator > 0
            assert math.gcd(result.numerator, result.denominator) == 1
            assert (result.numerator, result.denominator) == (want.numerator, want.denominator)
        for alien in (PrimeFieldElement(1, 5), RationalQuaternion(1)):
            for operation in (add, sub, operator.mul):
                with pytest.raises(BackendMismatchError):
                    operation(a, alien)


class TestQuaternionLaws:
    @given(quaternions(), quaternions(), quaternions())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(nonzero_quaternions())
    def test_two_sided_inverse_and_involution(self, a):
        one = RationalQuaternion(1)
        assert a * a.inverse() == one
        assert a.inverse() * a == one
        assert a.inverse().inverse() == a

    @given(nonzero_quaternions(), nonzero_quaternions())
    def test_inverse_anti_homomorphism(self, a, b):
        assert (a * b).inverse() == b.inverse() * a.inverse()

    @given(nonzero_quaternions(), nonzero_quaternions())
    def test_no_zero_divisors(self, a, b):
        assert not (a * b).is_zero()

    @given(quaternions(), quaternions())
    def test_conjugation_reverses_products(self, a, b):
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()


#: Quaternions as plain (w, x, y, z) tuples of Fractions.
fraction_quads = st.tuples(*[st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))] * 4)


def _hamilton(p, q):
    """The Hamilton product of two Fraction 4-tuples (the reference)."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def _canonical(q):
    """``q`` after checking its integer form: d > 0, gcd of all five is 1."""
    assert q._d > 0 and math.gcd(*q._n, q._d) == 1
    return q


class TestQuaternionStorage:
    """Four integers over one denominator, against a Fraction reference."""

    @given(fraction_quads, fraction_quads)
    def test_arithmetic_matches_fraction_reference(self, p, q):
        a, b = RationalQuaternion(*p), RationalQuaternion(*q)
        conj = (p[0], -p[1], -p[2], -p[3])
        norm = sum(c * c for c in p)
        assert _canonical(a + b).components() == tuple(map(add, p, q))
        assert _canonical(a - b).components() == tuple(map(sub, p, q))
        assert _canonical(-a).components() == tuple(-c for c in p)
        assert _canonical(a * b).components() == _hamilton(p, q)
        assert _canonical(a.conjugate()).components() == conj
        assert a.norm() == norm and type(a.norm()) is type(a.w)
        if norm:
            assert _canonical(a.inverse()).components() == tuple(c / norm for c in conj)
        assert (a.w, a.x, a.y, a.z) == a.components() == p

    @given(fraction_quads, st.one_of(fraction_quads, st.integers(-10 ** 6, 10 ** 6)))
    def test_results_are_canonical_and_immutable(self, p, q):
        a = RationalQuaternion(*p)
        b = RationalQuaternion(q) if isinstance(q, int) else RationalQuaternion(*q)
        operand = q if isinstance(q, int) else b
        expected = [a + b, a - b, -a, a * b]
        if isinstance(q, int):
            expected += [b + a, b - a, b * a]
        if not a.is_zero():
            expected.append(a.inverse())
        for result, want in zip(_results(a, operand), expected, strict=True):
            _assert_built(_canonical(result), RationalQuaternion, "_n")
            assert result.components() == want.components()
        for alien in (PrimeFieldElement(1, 5), Rational(1)):
            for operation in (add, sub, operator.mul):
                with pytest.raises(BackendMismatchError):
                    operation(a, alien)

    #: pickle.dumps(RationalQuaternion(Fraction(1, 2), -3, Fraction(5, 6), 0)),
    #: protocol 4, with ``_wrap`` a staticmethod and, earlier, a classmethod.
    PICKLES = (
        b"\x80\x04\x95F\x00\x00\x00\x00\x00\x00\x00\x8c\x11skewplane.scalars"
        b"\x94\x8c\x18RationalQuaternion._wrap\x94\x93\x94(K\x03J\xee\xff\xff\xff"
        b"K\x05K\x00t\x94K\x06\x86\x94R\x94.",
        b"\x80\x04\x95c\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07"
        b"getattr\x94\x93\x94\x8c\x11skewplane.scalars\x94\x8c\x12RationalQuaternion"
        b"\x94\x93\x94\x8c\x05_wrap\x94\x86\x94R\x94(K\x03J\xee\xff\xff\xffK\x05K"
        b"\x00t\x94K\x06\x86\x94R\x94.",
    )

    @pytest.mark.parametrize("data", PICKLES, ids=["staticmethod", "classmethod"])
    def test_stored_pickles_load(self, data):
        value = pickle.loads(data)
        assert type(value) is RationalQuaternion
        assert _canonical(value) == RationalQuaternion(Fraction(1, 2), -3, Fraction(5, 6))
        assert (value._n, value._d) == ((3, -18, 5, 0), 6)
        assert pickle.loads(pickle.dumps(value)) == value

    @given(fraction_quads, fraction_quads)
    # a common denominator 2M, M the modulus of the numeric hash (1/M and
    # -3/(2M) have no Fraction hash but +-inf), and 1/2 stored as M/(2M)
    @example((Fraction(1, sys.hash_info.modulus), Fraction(-3, 2 * sys.hash_info.modulus),
              Fraction(1, 2), Fraction(0)), (Fraction(1, 3),) * 4)
    def test_routes_to_one_value_compare_and_hash_equal(self, p, q):
        a, b = RationalQuaternion(*p), RationalQuaternion(*q)
        routes = [((a + b) - b, a), (b * a - b * a + a, a), (a + a, 2 * a),
                  (RationalQuaternion(*a.components()), a),
                  (RationalQuaternion(*(Rational(c.numerator, c.denominator) for c in p)), a),
                  (a - a, RationalQuaternion(0))]
        if not a.is_zero():
            routes.append((a * a.inverse(), RationalQuaternion(1)))
        for first, second in routes:
            assert first == second and hash(first) == hash(second)
        assert hash(a) == hash(a._key()) == hash((a._n, a._d))

    @given(fraction_quads)
    @example((Fraction(0), Fraction(-7), Fraction(3), Fraction(0)))
    def test_str_prints_each_component_in_lowest_terms(self, p):
        assert str(RationalQuaternion(*p)) == "({},{},{},{})".format(*p)

    @pytest.mark.parametrize("denominator", [1, 3])
    def test_str_past_the_digit_limit_is_a_usage_error(self, denominator):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter prints integers of any length")
        big = RationalQuaternion(Fraction(10 ** (sys.get_int_max_str_digits() + 1), denominator))
        with pytest.raises(UsageError, match="value too long to print: more than"):
            str(big)

    @given(fraction_quads)
    def test_str_round_trips_through_the_parser(self, p):
        a = RationalQuaternion(*p)
        assert parse_scalar(str(a), QuaternionField()) == a

    @given(fraction_quads)
    def test_copies_and_pickles_stay_equal_and_hash_equal(self, p):
        a = RationalQuaternion(*p)
        assert RationalQuaternion.__slots__ == ("_n", "_d")  # no hash memo
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(twin) is RationalQuaternion
            assert twin == a and hash(twin) == hash(a) == hash(a._key())


class TestFields:
    def test_field_metadata(self):
        assert RationalField().commutative and not RationalField().finite
        assert PrimeField(5).finite and PrimeField(5).commutative
        assert not QuaternionField().commutative

    def test_elements_enumeration(self):
        assert len(list(PrimeField(5).elements())) == 5
        with pytest.raises(TypeError):
            list(RationalField().elements())

    def test_random_nonzero(self, rng):
        field = QuaternionField()
        for _ in range(20):
            assert not field.random_nonzero(rng).is_zero()

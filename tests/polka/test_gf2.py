"""Unit and property tests for GF(2)[t] arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.polka import gf2

polys = st.integers(min_value=0, max_value=(1 << 64) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 64) - 1)
small_polys = st.integers(min_value=0, max_value=(1 << 16) - 1)


class TestDegree:
    def test_zero_has_degree_minus_one(self):
        assert gf2.deg(0) == -1

    def test_constant_one(self):
        assert gf2.deg(1) == 0

    def test_t(self):
        assert gf2.deg(0b10) == 1

    def test_large(self):
        assert gf2.deg(1 << 100) == 100


class TestAdd:
    def test_add_is_xor(self):
        assert gf2.add(0b101, 0b011) == 0b110

    def test_self_inverse(self):
        assert gf2.add(0b1101, 0b1101) == 0

    @given(polys, polys)
    def test_commutative(self, a, b):
        assert gf2.add(a, b) == gf2.add(b, a)

    @given(polys, polys, polys)
    def test_associative(self, a, b, c):
        assert gf2.add(gf2.add(a, b), c) == gf2.add(a, gf2.add(b, c))


class TestMul:
    def test_times_zero(self):
        assert gf2.mul(0b1011, 0) == 0

    def test_times_one(self):
        assert gf2.mul(0b1011, 1) == 0b1011

    def test_t_times_t(self):
        assert gf2.mul(0b10, 0b10) == 0b100  # t*t = t^2

    def test_known_product(self):
        # (t+1)(t+1) = t^2 + 1 in GF(2) (cross terms cancel)
        assert gf2.mul(0b11, 0b11) == 0b101

    def test_paper_figure1_product(self):
        # (t^2+t+1)(t^2+t) = t^4 + t, used in the Fig. 1 forwarding example
        assert gf2.mul(0b111, 0b110) == 0b10010

    @given(polys, polys)
    def test_commutative(self, a, b):
        assert gf2.mul(a, b) == gf2.mul(b, a)

    @given(small_polys, small_polys, small_polys)
    def test_associative(self, a, b, c):
        assert gf2.mul(gf2.mul(a, b), c) == gf2.mul(a, gf2.mul(b, c))

    @given(small_polys, small_polys, small_polys)
    def test_distributes_over_add(self, a, b, c):
        lhs = gf2.mul(a, gf2.add(b, c))
        rhs = gf2.add(gf2.mul(a, b), gf2.mul(a, c))
        assert lhs == rhs

    @given(nonzero_polys, nonzero_polys)
    def test_degree_adds(self, a, b):
        assert gf2.deg(gf2.mul(a, b)) == gf2.deg(a) + gf2.deg(b)


class TestDivMod:
    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf2.divmod_(0b101, 0)
        with pytest.raises(ZeroDivisionError):
            gf2.mod(0b101, 0)

    def test_exact_division(self):
        q, r = gf2.divmod_(gf2.mul(0b111, 0b1011), 0b111)
        assert (q, r) == (0b1011, 0)

    def test_paper_figure1_mod(self):
        # routeID 10000 mod s2 = t^2+t+1 gives remainder t -> port 2
        assert gf2.mod(0b10000, 0b111) == 0b10

    def test_paper_figure1_mod_s1(self):
        # 10000 mod (t+1) = 1 -> port 1
        assert gf2.mod(0b10000, 0b11) == 0b1

    def test_paper_figure1_mod_s3(self):
        # 10000 mod (t^3+t+1) = t^2+t -> port 6
        assert gf2.mod(0b10000, 0b1011) == 0b110

    @given(polys, nonzero_polys)
    def test_reconstruction(self, a, b):
        q, r = gf2.divmod_(a, b)
        assert gf2.add(gf2.mul(q, b), r) == a
        assert gf2.deg(r) < gf2.deg(b)

    @given(polys, nonzero_polys)
    def test_mod_agrees_with_divmod(self, a, b):
        assert gf2.mod(a, b) == gf2.divmod_(a, b)[1]


class TestGcdInverse:
    @given(polys, polys)
    def test_gcd_divides_both(self, a, b):
        g = gf2.gcd(a, b)
        if g:
            assert gf2.mod(a, g) == 0
            assert gf2.mod(b, g) == 0

    @given(polys, nonzero_polys)
    def test_egcd_bezout(self, a, b):
        g, x, y = gf2.egcd(a, b)
        assert gf2.add(gf2.mul(a, x), gf2.mul(b, y)) == g

    def test_modinv_roundtrip(self):
        m = 0b10011  # t^4+t+1, irreducible
        for a in range(1, 16):
            inv = gf2.modinv(a, m)
            assert gf2.mulmod(a, inv, m) == 1

    def test_modinv_noncoprime_raises(self):
        with pytest.raises(ValueError):
            gf2.modinv(0b110, 0b10)  # both divisible by t


class TestPowmod:
    def test_zero_exponent(self):
        assert gf2.powmod(0b101, 0, 0b111) == 1

    @given(small_polys, st.integers(min_value=0, max_value=64), nonzero_polys)
    def test_matches_repeated_multiplication(self, a, e, m):
        expected = gf2.mod(1, m)
        for _ in range(min(e, 16)):
            expected = gf2.mulmod(expected, a, m)
        if e <= 16:
            assert gf2.powmod(a, e, m) == expected


class TestIrreducibility:
    def test_known_irreducibles(self):
        # degrees 1..4: the classical tables
        for p in [0b10, 0b11, 0b111, 0b1011, 0b1101, 0b10011, 0b11001, 0b11111]:
            assert gf2.is_irreducible(p), bin(p)

    def test_known_reducibles(self):
        assert not gf2.is_irreducible(0b101)  # t^2+1 = (t+1)^2
        assert not gf2.is_irreducible(0b110)  # t(t+1)
        assert not gf2.is_irreducible(0b1111)  # (t+1)(t^2+t+1)
        assert not gf2.is_irreducible(1)
        assert not gf2.is_irreducible(0)

    def test_counts_match_theory(self):
        # number of monic irreducibles over GF(2): deg 2 -> 1, 3 -> 2,
        # 4 -> 3, 5 -> 6, 6 -> 9 (necklace counting)
        counts = {2: 1, 3: 2, 4: 3, 5: 6, 6: 9}
        for degree, expected in counts.items():
            assert sum(1 for _ in gf2.irreducibles(degree)) == expected

    @given(st.integers(min_value=2, max_value=10))
    def test_products_are_reducible(self, degree):
        ps = list(gf2.irreducibles(degree))
        assert not gf2.is_irreducible(gf2.mul(ps[0], ps[0]))

    def test_first_irreducibles_are_distinct_and_sorted_by_degree(self):
        polys = gf2.first_irreducibles(20, min_degree=2)
        assert len(set(polys)) == 20
        degrees = [gf2.deg(p) for p in polys]
        assert degrees == sorted(degrees)
        assert min(degrees) >= 2


class TestStrRoundtrip:
    def test_render(self):
        assert gf2.poly_to_str(0b1011) == "t^3 + t + 1"
        assert gf2.poly_to_str(0b10) == "t"
        assert gf2.poly_to_str(1) == "1"
        assert gf2.poly_to_str(0) == "0"


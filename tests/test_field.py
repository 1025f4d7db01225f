import pytest
from ppir.errors import NonPrimeOrder, ZeroInverse
from ppir.field import MAX_ORDER, PrimeField

SMALL_PRIMES = (2, 3, 5, 11, 13, 101)


def brute_force_inverse(a, q):
    return next(b for b in range(1, q) if a * b % q == 1)


class TestConstruction:
    @pytest.mark.parametrize("q", SMALL_PRIMES)
    def test_prime_orders_accepted(self, q):
        assert PrimeField(q).order == q

    @pytest.mark.parametrize("q", [0, 1, 4, 10, 15, 91, 2**20])
    def test_composite_or_small_rejected(self, q):
        with pytest.raises(NonPrimeOrder):
            PrimeField(q)

    def test_order_cap(self):
        assert PrimeField(MAX_ORDER).order == MAX_ORDER  # 2**31 - 1 is prime
        with pytest.raises(NonPrimeOrder):
            PrimeField(2305843009213693951)  # prime, but above the cap


class TestInverse:
    def test_one_is_self_inverse(self):
        for q in SMALL_PRIMES:
            f = PrimeField(q)
            assert f.inv(1) == 1

    def test_golden_inverse(self):
        f = PrimeField(11)
        assert f.inv(5) == brute_force_inverse(5, 11) == 9

    def test_zero_rejected(self):
        with pytest.raises(ZeroInverse):
            PrimeField(11).inv(0)

    @pytest.mark.parametrize("q", SMALL_PRIMES)
    def test_exhaustive_against_brute_force(self, q):
        f = PrimeField(q)
        for a in range(1, q):
            inv = f.inv(a)
            assert a * inv % q == 1
            assert inv == brute_force_inverse(a, q)

import pytest
from ppir.errors import NonPrimeOrder, ZeroInverse
from ppir.field import MAX_ORDER, PrimeField, _is_prime

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


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division_below_50000(self):
        assert [n for n in range(50_000) if _is_prime(n)] == [
            n for n in range(50_000) if trial_division_is_prime(n)
        ]

    def test_accepts_the_cap(self):
        assert _is_prime(2**31 - 1)

    @pytest.mark.parametrize("n", [2047, 1_373_653, 25_326_001])
    def test_rejects_strong_pseudoprimes(self, n):
        # Strong pseudoprimes to bases 2; 2 and 3; 2, 3 and 5 respectively.
        assert not _is_prime(n)


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

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, strategies as st

from helpers import FIVE_CLASS_DEMAND3_QUERIES, TWO_USER_BATCH_B, published_plan, random_single_scenario
from ppir import (
    RateParams,
    audit_non_repetition,
    comparison_conditions,
    privacy_report,
    query_distribution,
    rate_isi,
    rate_multi,
    rate_naive_multi,
    rate_usi,
    sample_query_distribution,
    tv_distance,
)
from ppir.analytics import (
    SINGLE_IDENTIFIABLE_CLASS,
    SPARSE_SIDE_INFORMATION,
    UNIFORM_DENSE_SIDE_INFORMATION,
    _pairwise_tv,
    _ReplayChooser,
)
from ppir import Scenario, SideInformation, random_store, run_session, sequential_class_map
from ppir.errors import ExhaustedIndices, PartitionInfeasible, TooLargeToEnumerate
import ppir.queries as queries
from ppir.queries import DeadEnd, Query, QueryPlan, plan_builder
from ppir.field import PrimeField

FIVE = RateParams(5, 3, (7, 6, 8, 9, 9), ((3, 4, 5, 2, 3),))
SIX = RateParams(6, 3, (9, 9, 10, 6, 7, 8), ((4, 4, 3, 2, 2, 2),))
SEVEN_TWO_USER = RateParams(7, 5, (7, 7, 7, 9, 8, 7, 8), ((4, 4, 4, 5, 4, 3, 2), (4, 4, 4, 6, 4, 2, 3)))
FSI = RateParams(3, 3, (3, 3, 3), ((1, 1, 1),))


class TestRates:
    def test_five_class(self):
        assert rate_isi(FIVE) == Fraction(1, 12)
        assert rate_usi(FIVE) == Fraction(1, 16)

    def test_six_class(self):
        assert rate_isi(SIX) == Fraction(1, 12)
        assert rate_usi(SIX) == Fraction(1, 23)

    def test_two_user(self):
        assert rate_multi(SEVEN_TWO_USER) == Fraction(1, 20)
        assert rate_naive_multi(SEVEN_TWO_USER) == Fraction(1, 24)

    def test_fully_identifiable_is_one(self):
        assert rate_isi(FSI) == 1

    def test_one_user_collaboration_equals_single(self):
        for p in (FIVE, SIX, FSI):
            assert rate_multi(p) == rate_isi(p)
            assert rate_naive_multi(p) == rate_isi(p)

    def test_empty_side_information_baseline(self):
        p = RateParams(3, 1, (1, 1, 1), ((0, 0, 0),))
        assert rate_usi(p) == Fraction(1, 3)

    def test_rates_are_exact_fractions(self):
        for value in (rate_isi(FIVE), rate_usi(SIX), rate_multi(SEVEN_TWO_USER)):
            assert isinstance(value, Fraction)

    def test_from_scenario(self, five_class):
        p = RateParams.from_scenario(five_class.scenario)
        assert p == FIVE

    def test_uneven_helper_split_is_not_priced(self):
        # One helper class cannot split across two users: no collaborative
        # plan exists, so there is no collaborative rate either.
        sizes = (6, 6, 6)
        users = (
            SideInformation(2, (frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset({1}))),
            SideInformation(2, (frozenset({4, 5, 6}), frozenset({4, 5, 6}), frozenset({2}))),
        )
        s = Scenario(random_store(PrimeField(101), sizes, 1, 0), sequential_class_map(sizes), users, 2, 0)
        with pytest.raises(PartitionInfeasible):
            run_session(s, (1, 2), force=True)
        with pytest.raises(PartitionInfeasible):
            rate_multi(s.params)


class TestComparisonConditions:
    def test_five_class_no_condition_applies(self):
        flags = comparison_conditions(FIVE).flags
        assert flags[SPARSE_SIDE_INFORMATION].status == "fails"
        assert flags[UNIFORM_DENSE_SIDE_INFORMATION].status == "not-applicable"
        assert flags[SINGLE_IDENTIFIABLE_CLASS].status == "fails"

    def test_uniform_dense_threshold_is_an_integer_ceiling(self):
        # The exact threshold k + ceil(2 (kmax + 1) / 3) is mu + 1 here; the
        # float quotient rounds down to mu and would report "holds".
        k, kun = 9007199254740995, 9007199254740994
        p = RateParams(3, 2, (15011998757901658,) * 3, ((k, k, kun),))
        assert comparison_conditions(p).flags[UNIFORM_DENSE_SIDE_INFORMATION].status == "fails"

    def test_six_class_sparse_holds(self):
        report = comparison_conditions(SIX)
        assert report.flags[SPARSE_SIDE_INFORMATION].status == "holds"
        assert report.rate_isi >= report.rate_usi

    def test_sparse_monotonicity_inequality(self):
        # When the sparse condition holds, the baseline sums to at least the
        # scheme's denominator.
        counts = SIX.si_counts[0]
        kun = SIX.max_unidentified_count
        assert sum(k + 1 for k in counts) >= (kun + 1) * (SIX.class_count - SIX.identifiable_count + 1)

    def test_single_identifiable_holds_at_boundary(self):
        # Dense side information, one identifiable class, and headroom exactly
        # one past the unidentifiable maximum: rates coincide.
        p = RateParams(3, 1, (4, 3, 3), ((2, 1, 1),))
        report = comparison_conditions(p)
        assert report.flags[SINGLE_IDENTIFIABLE_CLASS].status == "holds"
        assert report.rate_isi == report.rate_usi == Fraction(1, 6)

    def test_uniform_dense_holds(self):
        # Uniform shape with dense side information and enough headroom.
        p = RateParams(5, 4, (5, 5, 5, 5, 5), ((3, 3, 3, 3, 2),))
        report = comparison_conditions(p)
        assert report.flags[UNIFORM_DENSE_SIDE_INFORMATION].status == "holds"
        assert report.rate_isi >= report.rate_usi

    def test_conditions_read_the_first_user_alone(self):
        # A second user with one more unidentifiable message (k_max 3) changes
        # neither the first user's single-mode rate nor its conditions.
        p = RateParams(6, 3, (9, 9, 10, 6, 7, 8), ((4, 4, 3, 2, 2, 2), (4, 4, 3, 3, 2, 2)))
        report = comparison_conditions(p)
        assert report == comparison_conditions(p.single_user(1))
        assert report.flags[SPARSE_SIDE_INFORMATION].status == "holds"
        assert report.rate_isi == Fraction(1, 12)

    def test_uniform_dense_fails_without_headroom(self):
        p = RateParams(5, 2, (5, 5, 5, 5, 5), ((3, 3, 2, 2, 2),))
        report = comparison_conditions(p)
        assert report.flags[UNIFORM_DENSE_SIDE_INFORMATION].status == "fails"


def _random_sparse_params(rng):
    gamma = rng.randint(2, 7)
    eta = rng.randint(1, gamma)
    kun = rng.randint(0, 3)
    counts = [rng.randint(kun + 1, kun + 3) for _ in range(eta)] + [kun] * (gamma - eta)
    share = -(-(kun + 1) // eta)
    sizes = [max(2 * k + 1, k + share, kun + 1) + rng.randint(0, 2) for k in counts]
    return RateParams(gamma, eta, tuple(sizes), (tuple(counts),))


def _random_uniform_dense_params(rng):
    while True:
        gamma = rng.randint(2, 7)
        eta = rng.randint(1, gamma)
        kun = rng.randint(0, 3)
        k = kun + rng.randint(1, 3)
        threshold = k + -(-((gamma - eta + 1) * (kun + 1)) // gamma)
        mu_candidates = [
            mu for mu in range(threshold, 2 * kun + 2)
            if mu >= kun + 1 and mu >= k + -(-(kun + 1) // eta) and k + 1 >= mu - k
        ]
        if not mu_candidates:
            continue
        mu = rng.choice(mu_candidates)
        counts = [k] * eta + [kun] * (gamma - eta)
        return RateParams(gamma, eta, (mu,) * gamma, (tuple(counts),))


def _random_single_identifiable_params(rng):
    gamma = rng.randint(2, 7)
    kun = rng.randint(0, 3)
    counts = [kun + rng.randint(1, 3)] + [kun] * (gamma - 1)
    sizes = []
    for i, k in enumerate(counts):
        top = k + 1  # dense: headroom at most k+1
        bottom = kun + 1
        sizes.append(k + rng.randint(min(bottom, top), top))
    return RateParams(gamma, 1, tuple(sizes), (tuple(counts),))


class TestConditionSweeps:
    def test_sparse_sweep(self):
        rng = random.Random(2)
        for _ in range(50):
            p = _random_sparse_params(rng)
            report = comparison_conditions(p)
            assert report.flags[SPARSE_SIDE_INFORMATION].status == "holds", p
            assert report.rate_isi >= report.rate_usi

    def test_uniform_dense_sweep(self):
        rng = random.Random(3)
        for _ in range(50):
            p = _random_uniform_dense_params(rng)
            report = comparison_conditions(p)
            assert report.flags[UNIFORM_DENSE_SIDE_INFORMATION].status == "holds", p
            assert report.rate_isi >= report.rate_usi

    def test_single_identifiable_sweep(self):
        rng = random.Random(4)
        for _ in range(50):
            p = _random_single_identifiable_params(rng)
            report = comparison_conditions(p)
            assert report.flags[SINGLE_IDENTIFIABLE_CLASS].status == "holds", p
            assert report.rate_isi >= report.rate_usi


class TestNonRepetitionAudit:
    def test_published_plans_pass(self):
        assert audit_non_repetition(published_plan(FIVE_CLASS_DEMAND3_QUERIES, 2)).ok
        assert audit_non_repetition(published_plan(TWO_USER_BATCH_B, 2)).ok

    def test_duplicate_found_with_witness(self):
        queries = [list(q) for q in FIVE_CLASS_DEMAND3_QUERIES]
        queries[2][1] = (2, 2)
        result = audit_non_repetition(published_plan(queries, 2))
        assert not result.ok
        assert (2, 2, 1, 3) in result.witnesses


class TestDistributionOracle:
    def test_tiny_distributions_sum_to_one(self, tiny):
        for v in (1, 2):
            dist = query_distribution(tiny.scenario, (v,))
            assert sum(dist.values()) == 1
            assert all(isinstance(p, Fraction) for p in dist.values())

    def test_tiny_demands_are_indistinguishable(self, tiny):
        d1 = query_distribution(tiny.scenario, (1,))
        d2 = query_distribution(tiny.scenario, (2,))
        assert tv_distance(d1, d2) == 0

    def test_tv_of_identical_distribution_is_zero(self, tiny):
        d = query_distribution(tiny.scenario, (1,))
        assert tv_distance(d, d) == 0

    def test_enumeration_budget_enforced(self, five_class):
        with pytest.raises(TooLargeToEnumerate):
            query_distribution(five_class.scenario, (4,), limit=50)

    def test_sampling_matches_enumeration(self, tiny):
        exact = query_distribution(tiny.scenario, (2,))
        sampled = sample_query_distribution(tiny.scenario, (2,), samples=20000, seed=5)
        assert tv_distance(exact, sampled) < Fraction(1, 50)

    def test_two_query_scenario_enumerates_both_demands(self):
        from ppir import Scenario, SideInformation, random_store, sequential_class_map
        from ppir.field import PrimeField

        sizes = (3, 3)
        store = random_store(PrimeField(5), sizes, 1, 8)
        si = SideInformation(1, (frozenset({1}), frozenset({2})))
        s = Scenario(store, sequential_class_map(sizes), (si,), 1, seed=8)
        for v in (1, 2):
            dist = query_distribution(s, (v,))
            assert sum(dist.values()) == 1
        tv = tv_distance(query_distribution(s, (1,)), query_distribution(s, (2,)))
        assert 0 <= tv <= 1


class TestDeadEnds:
    """Classes (2, 2, 3), eta = 3, two users: SI1 = ({1, 2}, {1, 2}, {1, 2}) and
    SI2 = ({}, {1}, {}).  It fails multi validation, which the oracles do not require."""

    @pytest.fixture
    def s(self):
        sizes = (2, 2, 3)
        f = frozenset
        users = (SideInformation(3, (f({1, 2}), f({1, 2}), f({1, 2}))), SideInformation(3, (f(), f({1}), f())))
        return Scenario(random_store(PrimeField(7), sizes, 1, 0), sequential_class_map(sizes), users, 3, 0)

    @pytest.mark.parametrize("demands", [(1, 1), (2, 3)])
    def test_no_plan_is_refused_not_reported_empty(self, s, demands):
        # Every path dead-ends: no distribution exists, as the sampler and the census find.
        with pytest.raises(ExhaustedIndices, match="every choice path dead-ends"):
            query_distribution(s, demands, "multi")
        with pytest.raises(ExhaustedIndices):
            sample_query_distribution(s, demands, "multi", samples=1)
        with pytest.raises(ExhaustedIndices):
            privacy_report(s, "multi", runs=1)

    def test_report_without_census_is_refused_too(self, s):
        # Without the census only the oracle sees that (1, 1) has no plan, and a
        # report must not give TV 0 between demands that have no plan at all.
        with pytest.raises(ExhaustedIndices):
            privacy_report(s, "multi", runs=0)

    def test_dead_mass_is_renormalised(self, s):
        # One query: special class 3 (index 3), then user 1's block is class 1 or
        # class 2.  Class 2 leaves class 1 to user 2, who knows no index there: dead.
        # Four leaves of weight 1/4, two of them dead.
        assert leaf_sizes(plan_builder(s, (3, 1), "multi")) == [4, 4, 4, 4]
        assert query_distribution(s, (3, 1), "multi") == {
            (1, (((1, 1), (2, 1), (3, 3)),)): Fraction(1, 2),
            (1, (((1, 2), (2, 1), (3, 3)),)): Fraction(1, 2),
        }


def leaf_sizes(build):
    """Size product of every leaf of the builder's choice tree, in walk order."""
    products = []
    prefix: list[int] = []
    while True:
        chooser = _ReplayChooser(prefix)
        try:
            build(chooser)
        except DeadEnd:
            pass
        products.append(prod(chooser.sizes))
        path, sizes = chooser.path, chooser.sizes
        while path and path[-1] + 1 >= sizes[len(path) - 1]:
            path.pop()
            sizes.pop()
        if not path:
            return products
        path[-1] += 1
        prefix = path


class TestSingleLeafCount:
    def test_every_leaf_records_the_first_leafs_product(self):
        # Single-mode pick sets have sizes fixed by the step alone, so the
        # first leaf's product is the exact leaf count and the oracle's
        # first-leaf refusal decides ``limit`` as a full walk would.
        trees = 0
        for seed in range(200):
            s = random_single_scenario(random.Random(seed))
            for v in range(1, s.class_count + 1):
                build = plan_builder(s, (v,), "single")
                first = _ReplayChooser([])
                try:
                    build(first)
                except DeadEnd:
                    pass
                paths = prod(first.sizes)
                if paths > 400:
                    continue
                trees += 1
                assert leaf_sizes(build) == [paths] * paths, (seed, v)
                query_distribution(s, (v,), limit=paths)
                with pytest.raises(TooLargeToEnumerate, match=f"more than {paths - 1} choice paths"):
                    query_distribution(s, (v,), limit=paths - 1)
        assert trees > 100


def old_tv(a, b):
    """The Fraction-sum formula ``tv_distance`` replaced, kept as its oracle."""
    return sum(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()) / 2


INT_KEYS = st.integers(0, 7)
# Server views: per query, a tuple of (class, subclass) pairs.
TUPLE_KEYS = st.tuples(*[st.tuples(st.integers(1, 3), st.integers(1, 4))] * 2)
PROBABILITIES = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    # renormalised by a dead mass, as query_distribution does
    st.builds(
        lambda v, dead: v / (1 - dead),
        st.fractions(min_value=0, max_value=1, max_denominator=97),
        st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=31),
    ),
)
DISTRIBUTION_PAIRS = st.sampled_from([INT_KEYS, TUPLE_KEYS]).flatmap(
    lambda keys: st.tuples(*[st.dictionaries(keys, PROBABILITIES, max_size=6)] * 2)
)


class TestTvDistance:
    @given(pair=DISTRIBUTION_PAIRS)
    @example(pair=({}, {}))
    @example(pair=({0: Fraction(1, 3), 1: Fraction(2, 3)}, {}))
    @example(pair=({0: Fraction(1, 7)}, {1: Fraction(5, 11), 2: Fraction(1, 2)}))
    @example(pair=({((1, 1), (2, 3)): Fraction(2, 9)}, {((1, 1), (2, 3)): Fraction(1, 4) / (1 - Fraction(1, 6))}))
    def test_matches_fraction_sum(self, pair):
        a, b = pair
        tv = tv_distance(a, b)
        assert tv == old_tv(a, b)
        assert isinstance(tv, Fraction)
        assert tv_distance(b, a) == tv
        assert tv_distance(a, a) == 0


DISTRIBUTION_LISTS = st.sampled_from([INT_KEYS, TUPLE_KEYS]).flatmap(
    lambda keys: st.lists(st.dictionaries(keys, PROBABILITIES, max_size=6), max_size=5)
)


class TestPairwiseTv:
    @given(dists=DISTRIBUTION_LISTS)
    @example(dists=[])
    @example(dists=[{}, {}, {0: Fraction(1, 3), 1: Fraction(2, 3)}])
    def test_every_pair_matches_fraction_sum(self, dists):
        tvs = _pairwise_tv(dists)
        pairs = list(itertools.combinations(dists, 2))
        assert len(tvs) == len(pairs)
        for tv, (a, b) in zip(tvs, pairs):
            assert tv == old_tv(a, b)
            assert isinstance(tv, Fraction)


class TestPrivacyReport:
    def test_tiny_full_report(self, tiny):
        report = privacy_report(tiny.scenario, "single", runs=50, base_seed=1)
        assert report.checks == 100 and report.failures == 0
        assert report.pass_rate == 1
        assert report.distribution.method == "enumeration"
        assert all(tv == 0 for _, _, tv in report.distribution.pairs)

    def test_zero_runs_is_empty_census(self, tiny):
        report = privacy_report(tiny.scenario, "single", runs=0, base_seed=1)
        assert report.checks == 0 and report.failures == 0
        assert report.pass_rate == 1

    @pytest.mark.parametrize("kwargs", [{"runs": -3}, {"runs": 1, "mc_samples": 0}, {"runs": 1, "mc_samples": -1}])
    def test_no_evidence_is_refused(self, five_class, kwargs):
        # An audit without samples would report TV 0 on every pair.
        with pytest.raises(ValueError):
            privacy_report(five_class.scenario, "single", enum_limit=10, **kwargs)

    @pytest.mark.parametrize("base_seed", [-1, -3])
    def test_negative_base_seed_is_refused(self, tiny, base_seed):
        # Random(-s) is Random(s): a census from -3 would check seeds -3..3 but only 4 distinct plans.
        assert random.Random(base_seed).random() == random.Random(-base_seed).random()
        with pytest.raises(ValueError, match="base_seed"):
            privacy_report(tiny.scenario, "single", runs=1, base_seed=base_seed)

    @pytest.mark.parametrize("samples", [0, -2])
    def test_sampling_needs_a_sample(self, tiny, samples):
        with pytest.raises(ValueError):
            sample_query_distribution(tiny.scenario, (1,), samples=samples)

    def test_monte_carlo_fallback(self, five_class):
        report = privacy_report(
            five_class.scenario, "single", runs=5, base_seed=2, enum_limit=100, mc_samples=50
        )
        assert report.distribution.method == "monte-carlo"
        assert report.distribution.samples == 50
        assert report.pass_rate == 1

    def test_deterministic(self, tiny):
        a = privacy_report(tiny.scenario, "single", runs=20, base_seed=9)
        b = privacy_report(tiny.scenario, "single", runs=20, base_seed=9)
        assert a == b


def test_census_counts_failures_and_keeps_ten_witnesses(five_class, monkeypatch):
    # The single-user builder, except that for odd demands query 2 reuses
    # query 1's index in the last class.
    honest = queries.build_single_plan

    def repeat(s, desired_class, chooser):
        plan = honest(s, desired_class, chooser)
        if desired_class % 2 == 0:
            return plan
        first, second = plan.queries[:2]
        bad = Query(second.index, second.pairs[:-1] + first.pairs[-1:])
        return QueryPlan((first, bad) + plan.queries[2:], plan.disclosed_known_count)

    monkeypatch.setattr(queries, "build_single_plan", repeat)
    report = privacy_report(five_class.scenario, "single", runs=4, enum_limit=10, mc_samples=2)
    assert (report.checks, report.failures) == (20, 12)
    assert report.pass_rate == Fraction(2, 5)
    assert [(demands, trial) for demands, trial, _ in report.witnesses] == [
        ((v,), t) for v in (1, 3, 5) for t in range(4)
    ][:10]
    for _, _, repeats in report.witnesses:
        ((c, _, a, b),) = repeats
        assert (c, a, b) == (5, 1, 2)

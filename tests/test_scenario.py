import math
import random
from fractions import Fraction

import pytest

from helpers import load_fixture, random_multi_scenario, random_single_scenario
from ppir import (
    ClassMap,
    RateParams,
    Scenario,
    SideInformation,
    random_store,
    random_symbol,
    run_session,
    sequential_class_map,
    validate_scenario,
)
from ppir.errors import ExhaustedIndices, MalformedScenario, OutOfRange, UnidentifiableAccess
from ppir.field import PrimeField
from ppir.fixtures import NAMES

# Nine messages in three classes of consecutive global indices: 1-3, 4-5, 6-9.
MAPPING = sequential_class_map((3, 2, 4))


class TestClassMap:
    def test_pair_to_global_goldens(self):
        assert MAPPING.pair_to_global(2, 2) == 5
        assert MAPPING.pair_to_global(1, 1) == 1
        assert MAPPING.pair_to_global(1, 3) == 3
        assert MAPPING.pair_to_global(2, 1) == 4
        assert MAPPING.pair_to_global(3, 1) == 6
        assert MAPPING.pair_to_global(3, 4) == 9

    def test_bijection(self):
        # Classes in order, subclasses in order, number the messages 1..F.
        pairs = [(i, beta) for i, size in enumerate(MAPPING.sizes, start=1) for beta in range(1, size + 1)]
        assert [MAPPING.pair_to_global(i, beta) for i, beta in pairs] == list(range(1, 10))

    def test_sizes(self):
        assert MAPPING.sizes == (3, 2, 4)
        assert sum(MAPPING.sizes) == MAPPING.total_messages == 9
        assert MAPPING == ClassMap([3, 2, 4])

    @pytest.mark.parametrize("i,beta", [(0, 1), (4, 1), (1, 0), (1, 4)])
    def test_pair_out_of_range(self, i, beta):
        with pytest.raises(OutOfRange):
            MAPPING.pair_to_global(i, beta)

    def test_empty_class_rejected(self):
        with pytest.raises(MalformedScenario):
            sequential_class_map((2, 0))

    def test_bool_size_rejected(self):
        with pytest.raises(MalformedScenario):
            sequential_class_map((2, True))

    def test_single_class_rejected(self):
        with pytest.raises(MalformedScenario):
            sequential_class_map((5,))


class TestSideInformationView:
    def test_identifiable_indices_visible(self, five_class):
        si = five_class.scenario.users[0]
        assert si.known_indices(1) == frozenset({3, 4, 7})
        assert si.known_indices(3) == frozenset({1, 2, 3, 4, 6})

    def test_unidentifiable_indices_hidden(self, five_class):
        si = five_class.scenario.users[0]
        with pytest.raises(UnidentifiableAccess):
            si.known_indices(4)
        with pytest.raises(UnidentifiableAccess):
            si.known_indices(5)

    def test_counts_always_visible(self, five_class):
        si = five_class.scenario.users[0]
        assert si.counts == (3, 4, 5, 2, 3)

    def test_oracle_sees_everything(self, five_class):
        si = five_class.scenario.users[0]
        assert si.oracle_indices(4) == frozenset({2, 3})
        assert si.oracle_indices(5) == frozenset({1, 2, 8})


def _five_class_with_counts(base: Scenario, class1_indices) -> Scenario:
    si = base.users[0]
    indices = list(si.indices)
    indices[0] = frozenset(class1_indices)
    return Scenario(
        base.store, base.class_map, (SideInformation(si.identifiable_count, tuple(indices)),),
        base.identifiable_count, base.seed,
    )


class TestValidation:
    def test_five_class_passes_single(self, five_class):
        report = validate_scenario(five_class.scenario, "single")
        assert report.ok, report.failed()

    def test_six_class_passes_single(self, six_class):
        assert validate_scenario(six_class.scenario, "single").ok

    def test_two_user_passes_multi(self, two_user):
        report = validate_scenario(two_user.scenario, "multi")
        assert report.ok, report.failed()

    def test_tiny_passes_single(self, tiny):
        assert validate_scenario(tiny.scenario, "single").ok

    def test_fsi_passes_both_modes(self, fsi):
        assert validate_scenario(fsi.scenario, "single").ok
        assert validate_scenario(fsi.scenario, "multi").ok

    def test_shallow_identifiable_class_fails(self, five_class):
        # Four queries and three identifiable classes: the rotation of an
        # unidentifiable demand takes class 1 fresh in queries 1 and 4, and needs
        # two known class-1 indices for queries 2 and 3.  Depth 2 is enough for
        # every demand; depth 1 trips the depth rule, and demands 4 and 5 exhaust.
        exact = _five_class_with_counts(five_class.scenario, {3, 4})
        assert validate_scenario(exact, "single").ok
        for v in range(1, 6):
            run_session(exact, v, seed=0)
        shallow = _five_class_with_counts(five_class.scenario, {3})
        report = validate_scenario(shallow, "single")
        assert [(r.name, r.witnesses) for r in report.failed()] == [("identifiable_depth", ((1, 1),))]
        for v in range(1, 6):
            if v <= 3:
                run_session(shallow, v, seed=0, force=True)
            else:
                with pytest.raises(ExhaustedIndices):
                    run_session(shallow, v, seed=0, force=True)

    def test_boundary_depth_passes(self, five_class):
        # Depth exactly equal to the largest unidentifiable count is allowed.
        assert five_class.scenario.users[0].count(1) == five_class.scenario.params.max_unidentified_count
        assert validate_scenario(five_class.scenario, "single").ok

    def test_multi_mode_needs_strict_depth(self, five_class):
        report = validate_scenario(five_class.scenario, "multi")
        assert "identifiable_depth" in {r.name for r in report.failed()}

    def test_single_mode_requires_one_user(self, two_user):
        report = validate_scenario(two_user.scenario, "single")
        assert "single_user_count" in {r.name for r in report.failed()}

    def test_two_user_small_fails_query_budget(self, two_user_small):
        report = validate_scenario(two_user_small.scenario, "multi")
        assert "query_budget" in {r.name for r in report.failed()}

    def test_small_class_fails_pool_rule(self):
        field = PrimeField(23)
        sizes = (5, 5, 4, 1)
        store = random_store(field, sizes, 1, 0)
        si = SideInformation(2, (frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset({1, 2}), frozenset()))
        s = Scenario(store, sequential_class_map(sizes), (si,), 2, 0)
        report = validate_scenario(s, "single")
        assert "subclass_pool" in {r.name for r in report.failed()}

    def test_small_field_fails_code_rule(self):
        field = PrimeField(5)
        sizes = (4, 4, 4, 4)
        store = random_store(field, sizes, 1, 0)
        si = SideInformation(2, (frozenset({1, 2}), frozenset({1, 2}), frozenset({1}), frozenset()))
        s = Scenario(store, sequential_class_map(sizes), (si,), 2, 0)
        report = validate_scenario(s, "single")
        assert "field_supports_code" in {r.name for r in report.failed()}

    def test_out_of_rotation_class_needs_strict_depth(self):
        # Four identifiable classes but only two queries: the rotation never
        # reaches classes 3 and 4, so depth exactly equal to the largest
        # unidentifiable count is no longer enough there.
        field = PrimeField(23)
        sizes = (6, 6, 6, 6, 4)
        store = random_store(field, sizes, 1, 0)
        base = [frozenset({1}), frozenset({1}), frozenset({1}), frozenset({1}), frozenset({1})]
        s = Scenario(store, sequential_class_map(sizes), (SideInformation(4, tuple(base)),), 4, 0)
        report = validate_scenario(s, "single")
        assert "identifiable_depth" in {r.name for r in report.failed()}
        deeper = [frozenset({1}), frozenset({1}), frozenset({1, 2}), frozenset({1, 2}), frozenset({1})]
        s2 = Scenario(store, sequential_class_map(sizes), (SideInformation(4, tuple(deeper)),), 4, 0)
        assert validate_scenario(s2, "single").ok

    def test_validation_is_pure(self, five_class):
        a = validate_scenario(five_class.scenario, "single")
        b = validate_scenario(five_class.scenario, "single")
        assert a == b


def _assert_params_follow_definitions(s: Scenario) -> None:
    """Every derived number on ``s.params`` equals its definition, computed here from the scenario."""
    p = s.params
    assert p == RateParams.from_scenario(s)
    eta, users = s.identifiable_count, s.user_count
    kmax = max((si.count(i) for si in s.users for i in range(eta + 1, s.class_count + 1)), default=0)
    budget = math.ceil(Fraction(eta - 1, users))
    assert p.max_unidentified_count == kmax
    assert p.query_count == kmax + 1
    assert p.per_user_known_budget == budget
    assert p.helpers_split_evenly == (budget * users == eta - 1)
    for mode, d in (("single", eta - 1), ("multi", budget)):
        assert p.for_mode(mode).per_user_known_budget == d
        assert p.for_mode(mode).code_length == 2 * s.class_count - d


class TestRateParams:
    @pytest.mark.parametrize("name", NAMES)
    def test_fixture_params_follow_definitions(self, name):
        s = load_fixture(name).scenario
        _assert_params_follow_definitions(s)
        assert s.params is s.params

    def test_random_params_follow_definitions(self):
        rng = random.Random(12)
        for _ in range(20):
            _assert_params_follow_definitions(random_single_scenario(rng))
            _assert_params_follow_definitions(random_multi_scenario(rng))

    def test_budget_is_an_integer_ceiling(self):
        # (2**53 + 1) / 1 is not a float-exact quotient: a float ceiling gives 2**53.
        p = RateParams(2**53 + 2, 2**53 + 2, (), ((),))
        assert p.per_user_known_budget == 2**53 + 1

    def test_unknown_mode_refused(self, five_class):
        with pytest.raises(ValueError):
            five_class.scenario.params.for_mode("both")


class TestRandomSymbols:
    def test_deterministic(self):
        assert random_symbol(7, 3, 1, 11) == random_symbol(7, 3, 1, 11)

    def test_varies_with_inputs(self):
        values = {random_symbol(7, f, ell, 101) for f in range(1, 20) for ell in (1, 2)}
        assert len(values) > 10

    def test_in_range(self):
        for f in range(1, 50):
            assert 0 <= random_symbol(1, f, 1, 13) < 13

import itertools
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FIVE_CLASS_DEMAND3_QUERIES,
    FIVE_CLASS_DEMAND4_QUERIES,
    SIX_CLASS_DEMAND4_QUERIES,
    TWO_USER_BATCH_A,
    TWO_USER_BATCH_B,
    published_plan,
    random_multi_scenario,
    random_single_scenario,
    wide_helper_document,
)
import ppir.queries as queries
from ppir import (
    Scenario,
    SideInformation,
    audit_non_repetition,
    check_plan,
    generate_multi_user_plan,
    generate_single_user_plan,
    plan_from_pairs,
    privacy_report,
    query_distribution,
    query_owner,
    random_store,
    run_session,
    sample_query_distribution,
    sequential_class_map,
    validate_scenario,
)
from ppir.analytics import _ReplayChooser
from ppir.errors import (
    AssumptionViolated,
    ExhaustedIndices,
    OutOfRange,
    PartitionInfeasible,
)
from ppir.field import PrimeField
from ppir.queries import DeadEnd, RandomChooser, build_multi_plan
from ppir.scenario_io import scenario_from_dict


class TestPublishedTranscripts:
    def test_five_class_identifiable_demand(self, five_class):
        plan = published_plan(FIVE_CLASS_DEMAND3_QUERIES, 2)
        assert check_plan(five_class.scenario, (3,), plan, "single").ok

    def test_five_class_unidentifiable_demand(self, five_class):
        plan = published_plan(FIVE_CLASS_DEMAND4_QUERIES, 2)
        assert check_plan(five_class.scenario, (4,), plan, "single").ok

    def test_six_class_unidentifiable_demand(self, six_class):
        plan = published_plan(SIX_CLASS_DEMAND4_QUERIES, 2)
        assert check_plan(six_class.scenario, (4,), plan, "single").ok

    def test_two_user_batches(self, two_user):
        s = two_user.scenario
        assert check_plan(s, (2, 3), published_plan(TWO_USER_BATCH_A, 2), "multi").ok
        assert check_plan(s, (6, 3), published_plan(TWO_USER_BATCH_A, 2), "multi").ok
        assert check_plan(s, (6, 7), published_plan(TWO_USER_BATCH_B, 2), "multi").ok

    def test_injected_duplicate_fails(self, five_class):
        queries = [list(q) for q in FIVE_CLASS_DEMAND3_QUERIES]
        queries[1][1] = (2, 2)  # repeat class 2's first index
        plan = published_plan(queries, 2)
        result = check_plan(five_class.scenario, (3,), plan, "single")
        assert not result.ok
        assert "non_repetition" in {r.name for r in result.failed()}

    def test_query_missing_a_class_fails_shape(self, tiny):
        result = check_plan(tiny.scenario, (1,), plan_from_pairs([[(1, 1)]], 0), "single")
        assert not result.ok
        assert "query_shape" in {r.name for r in result.failed()}

    def test_wrong_demand_fails_designated_rule(self, five_class):
        # The demand-3 transcript has no admissible designated query for demand 1.
        plan = published_plan(FIVE_CLASS_DEMAND3_QUERIES, 2)
        result = check_plan(five_class.scenario, (1,), plan, "single")
        assert "designated_query" in {r.name for r in result.failed()}


class TestSingleUserGeneration:
    def test_plans_validate_across_demands_and_seeds(self, five_class, six_class):
        for loaded in (five_class, six_class):
            s = loaded.scenario
            for v in range(1, s.class_count + 1):
                for seed in range(10):
                    plan = generate_single_user_plan(s, v, seed=seed)
                    assert len(plan.queries) == s.params.query_count
                    assert check_plan(s, (v,), plan, "single").ok
                    assert audit_non_repetition(plan).ok

    def test_determinism(self, five_class):
        s = five_class.scenario
        assert generate_single_user_plan(s, 3, seed=42) == generate_single_user_plan(s, 3, seed=42)

    def test_seed_defaults_to_scenario(self, five_class):
        s = five_class.scenario
        assert generate_single_user_plan(s, 3) == generate_single_user_plan(s, 3, seed=s.seed)

    def test_fully_identifiable_plan_is_one_query(self, fsi):
        plan = generate_single_user_plan(fsi.scenario, 2, seed=0)
        assert len(plan.queries) == 1
        assert plan.disclosed_known_count == fsi.scenario.identifiable_count - 1

    def test_demand_out_of_range(self, five_class):
        with pytest.raises(OutOfRange):
            generate_single_user_plan(five_class.scenario, 6)

    def test_identifiable_demand_designated_structure(self, five_class):
        s = five_class.scenario
        si = s.users[0]
        for seed in range(20):
            plan = generate_single_user_plan(s, 2, seed=seed)
            rules = {r.name: r for r in check_plan(s, (2,), plan, "single").rules}
            designated = rules["designated_query"]
            assert designated.passed and designated.witnesses
            for r in designated.witnesses:
                beta = dict(plan.queries[r - 1].pairs)
                assert beta[2] not in si.known_indices(2)
                for i in (1, 3):
                    assert beta[i] in si.known_indices(i)

    def test_unidentifiable_demand_covers_enough_fresh_indices(self, five_class):
        s = five_class.scenario
        si = s.users[0]
        for seed in range(20):
            plan = generate_single_user_plan(s, 5, seed=seed)
            seen = {dict(q.pairs)[5] for q in plan.queries}
            # More distinct class-5 indices than the user holds there.
            assert len(seen) == s.params.query_count > si.count(5)


class TestMultiUserGeneration:
    def test_plans_validate_across_demand_grid(self, two_user):
        s = two_user.scenario
        for va in range(1, 8):
            for vb in range(1, 8):
                plan = generate_multi_user_plan(s, (va, vb), seed=va * 10 + vb)
                assert check_plan(s, (va, vb), plan, "multi").ok
                assert audit_non_repetition(plan).ok

    def test_determinism(self, two_user):
        s = two_user.scenario
        a = generate_multi_user_plan(s, (2, 3), seed=7)
        b = generate_multi_user_plan(s, (2, 3), seed=7)
        assert a == b

    def test_tight_shared_demand_succeeds_via_retries(self, two_user):
        # Both users demand class 3, whose fresh pools are the tightest; the
        # builder may dead-end and must recover by retrying.
        s = two_user.scenario
        for seed in range(50):
            plan = generate_multi_user_plan(s, (3, 3), seed=seed)
            assert check_plan(s, (3, 3), plan, "multi").ok

    def test_demand_count_checked(self, two_user):
        with pytest.raises(OutOfRange):
            generate_multi_user_plan(two_user.scenario, (1,))

    def test_partition_infeasible(self):
        # Four identifiable classes across two users: 3 helpers cannot split evenly.
        field = PrimeField(23)
        sizes = (8, 8, 8, 8, 6)
        store = random_store(field, sizes, 1, 0)
        users = tuple(
            SideInformation(
                4,
                (frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset({1, 2, 3}),
                 frozenset({1, 2, 3}), frozenset({1, 2})),
            )
            for _ in range(2)
        )
        s = Scenario(store, sequential_class_map(sizes), users, 4, 0)
        with pytest.raises(PartitionInfeasible):
            generate_multi_user_plan(s, (1, 2))

    def test_validation_gate(self, five_class):
        # One user whose identifiable depth equals the unidentifiable maximum:
        # fine for the single-user scheme, rejected for the collaborative one.
        with pytest.raises(AssumptionViolated):
            generate_multi_user_plan(five_class.scenario, (3,))

    def test_exhaustion_reported_honestly(self):
        # Forced run on a scenario whose class-1 pool cannot span the plan.
        field = PrimeField(23)
        sizes = (2, 4)
        store = random_store(field, sizes, 1, 0)
        si = SideInformation(1, (frozenset({1}), frozenset({1, 2})))
        s = Scenario(store, sequential_class_map(sizes), (si,), 1, 0)
        with pytest.raises(ExhaustedIndices):
            generate_single_user_plan(s, 1, seed=0, force=True)


class TestSingleUserReduction:
    def _shared_scenario(self):
        field = PrimeField(11)
        sizes = (8, 8, 8, 6)
        store = random_store(field, sizes, 2, 4)
        si = SideInformation(
            3, (frozenset({1, 2, 3}), frozenset({2, 4, 6}), frozenset({3, 5, 7}), frozenset({1, 2}))
        )
        return Scenario(store, sequential_class_map(sizes), (si,), 3, seed=4)

    def test_one_user_collaboration_matches_single_user_shape(self):
        s = self._shared_scenario()
        assert s.params.for_mode("multi").per_user_known_budget == s.params.for_mode("single").per_user_known_budget
        for v in range(1, 5):
            for seed in range(10):
                plan = generate_multi_user_plan(s, (v,), seed=seed)
                assert len(plan.queries) == s.params.query_count
                assert audit_non_repetition(plan).ok
                if v <= s.identifiable_count:
                    # Collaborative plans are strictly more structured than the
                    # single-user rules require, so they must pass them.
                    assert check_plan(s, (v,), plan, "single").ok
                else:
                    # Same known-pair budget per query as the single-user rules,
                    # with a chosen (not rotating) fresh identifiable class.
                    si = s.users[0]
                    for q in plan.queries:
                        known = sum(
                            1
                            for i in range(1, s.identifiable_count + 1)
                            if dict(q.pairs)[i] in si.known_indices(i)
                        )
                        assert known >= s.identifiable_count - 1


# Each entry takes (tiny_two_class, two_user_seven_class) and names a class or
# a demand count the scenario does not have.
WRONG_DEMANDS = {
    "check_plan-single-class-7": lambda tiny, two: check_plan(
        tiny, (7,), generate_single_user_plan(tiny, 1, seed=0), "single"
    ),
    "check_plan-multi-one-demand": lambda tiny, two: check_plan(
        two, (1,), generate_multi_user_plan(two, (2, 3), seed=0), "multi"
    ),
    "check_plan-single-two-demands": lambda tiny, two: check_plan(
        tiny, (1, 2), generate_single_user_plan(tiny, 1, seed=0), "single"
    ),
    "query_distribution-class-5": lambda tiny, two: query_distribution(tiny, (5,)),
    "query_distribution-class-0": lambda tiny, two: query_distribution(tiny, (0,)),
    "sample-multi-one-demand": lambda tiny, two: sample_query_distribution(
        two, (1,), "multi", samples=3
    ),
    "generate_multi-class-8": lambda tiny, two: generate_multi_user_plan(two, (1, 8)),
}


@pytest.mark.parametrize("case", sorted(WRONG_DEMANDS))
def test_wrong_demands_refused(case, tiny, two_user):
    with pytest.raises(OutOfRange):
        WRONG_DEMANDS[case](tiny.scenario, two_user.scenario)


# Every entry that starts from a demand check, given a mode that is neither
# "single" nor "multi".
UNKNOWN_MODE = {
    "privacy_report": lambda tiny: privacy_report(tiny, "bogus", runs=2),
    "query_distribution": lambda tiny: query_distribution(tiny, (1,), "bogus"),
    "sample_query_distribution": lambda tiny: sample_query_distribution(
        tiny, (1,), "bogus", samples=3
    ),
    "check_plan": lambda tiny: check_plan(
        tiny, (1,), generate_single_user_plan(tiny, 1, seed=0), "bogus"
    ),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_MODE))
def test_unknown_mode_refused(case, tiny):
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        UNKNOWN_MODE[case](tiny.scenario)


class TestQueryOwner:
    @pytest.mark.parametrize("j,users,expect", [(1, 2, 1), (2, 2, 2), (3, 2, 1), (4, 2, 2), (5, 3, 2), (3, 1, 1)])
    def test_mapping(self, j, users, expect):
        assert query_owner(j, users) == expect

    def test_rejects_bad_inputs(self):
        with pytest.raises(OutOfRange):
            query_owner(0, 2)
        with pytest.raises(OutOfRange):
            query_owner(1, 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_non_repetition_property(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6), label="scenario"))
    s = random_single_scenario(rng)
    v = data.draw(st.integers(min_value=1, max_value=s.class_count), label="demand")
    seed = data.draw(st.integers(min_value=0, max_value=10**6), label="seed")
    plan = generate_single_user_plan(s, v, seed=seed)
    assert audit_non_repetition(plan).ok
    assert check_plan(s, (v,), plan, "single").ok


def test_plan_from_pairs_orders_classes():
    plan = plan_from_pairs([[(2, 1), (1, 5)]], 0)
    assert plan.queries[0].pairs == ((1, 5), (2, 1))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pick_fresh_matches_materialised_pool(data):
    size = data.draw(st.integers(min_value=1, max_value=10**5), label="size")
    index = st.integers(min_value=1, max_value=size)
    excluded = data.draw(st.lists(st.frozensets(index, max_size=40), max_size=3), label="excluded")
    pool = sorted(set(range(1, size + 1)).difference(*excluded))
    seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
    fast, slow = RandomChooser(random.Random(seed)), RandomChooser(random.Random(seed))
    if pool:
        assert fast.pick_fresh(size, *excluded) == slow.pick(pool)
    else:
        with pytest.raises(DeadEnd):
            fast.pick_fresh(size, *excluded)
    assert fast.rng.getstate() == slow.rng.getstate()
    if pool:
        prefix = [data.draw(st.integers(min_value=0, max_value=len(pool) - 1), label="rank")]
        fast, slow = _ReplayChooser(prefix), _ReplayChooser(prefix)
        assert fast.pick_fresh(size, *excluded) == slow.pick(pool)
        assert (fast.sizes, fast.path) == (slow.sizes, slow.path)


def test_pick_fresh_empty_and_forced_pools():
    chooser = RandomChooser(random.Random(0))
    state = chooser.rng.getstate()
    with pytest.raises(DeadEnd):
        chooser.pick_fresh(3, {1, 2}, {3})
    assert chooser.pick_fresh(3, {1}, {3}) == 2
    assert chooser.rng.getstate() == state
    replay = _ReplayChooser([])
    assert replay.pick_fresh(4, {1, 2, 4}) == 3
    assert (replay.sizes, replay.path) == ([], [])


def _reference_single_rules(s, v, plan):
    """The single-user selection rules written out on their own: (passed, designated witnesses).

    An identifiable demand v needs some query pairing a fresh class-v index with
    known indices from every other identifiable class; those queries are the
    witnesses.  Otherwise query j needs a fresh index in class (j - 1) mod eta + 1
    and known indices in every other identifiable class.
    """
    eta = s.identifiable_count
    known = s.users[0].known_indices

    def admits(q, fresh):
        index = dict(q.pairs)
        return index[fresh] not in known(fresh) and all(
            index[i] in known(i) for i in range(1, eta + 1) if i != fresh
        )

    if v <= eta:
        witnesses = tuple(q.index for q in plan.queries if admits(q, v))
        return bool(witnesses), witnesses
    return all(admits(q, (q.index - 1) % eta + 1) for q in plan.queries), None


def _replace_pairs(rng, s, plan):
    """A copy of ``plan`` with 1-5 pairs given another in-range subclass index."""
    queries = [list(q.pairs) for q in plan.queries]
    for _ in range(rng.randint(1, 5)):
        pairs = rng.choice(queries)
        k = rng.randrange(len(pairs))
        c = pairs[k][0]
        pairs[k] = (c, rng.randint(1, s.class_map.sizes[c - 1]))
    return plan_from_pairs(queries, plan.disclosed_known_count)


def test_single_mode_matches_reference_rules():
    # Single mode is the collaborative assignment rule at one user; it must
    # pass and fail exactly the plans the single-user rules do, also when a
    # scenario with more users is judged in forced single mode.
    rng = random.Random(15)
    outcomes = set()
    for n in range(400):
        s = random_single_scenario(rng) if n % 2 else random_multi_scenario(rng, rng.choice((2, 3)))
        for v in range(1, s.class_count + 1):
            honest = generate_single_user_plan(s, v, seed=rng.randrange(10**6), force=True)
            for plan in [honest] + [_replace_pairs(rng, s, honest) for _ in range(3)]:
                report = check_plan(s, (v,), plan, "single")
                passed, witnesses = _reference_single_rules(s, v, plan)
                distinct = audit_non_repetition(plan).ok
                assert report.ok == (distinct and passed), (n, v, plan)
                if distinct and witnesses is not None:
                    (rule,) = [r for r in report.rules if r.name == "designated_query"]
                    assert rule.witnesses == witnesses
                outcomes.add(report.ok)
    assert outcomes == {True, False}


class TestNegativeSeed:
    # random.Random(-s) draws what random.Random(s) draws: a negative seed would alias its absolute value.
    def test_generators_refuse(self, five_class, two_user):
        with pytest.raises(ValueError, match="seed must be at least 0"):
            generate_single_user_plan(five_class.scenario, 3, seed=-7)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            generate_multi_user_plan(two_user.scenario, (2, 3), seed=-1)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            sample_query_distribution(five_class.scenario, (3,), samples=2, seed=-1)

    def test_scenario_seed_is_checked_unless_a_stream_is_given(self, tiny):
        s = tiny.scenario
        negative = Scenario(s.store, s.class_map, s.users, s.identifiable_count, seed=-1)
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            generate_single_user_plan(negative, 1)
        plan = generate_single_user_plan(negative, 1, rng=random.Random(1))
        assert plan == generate_single_user_plan(s, 1, seed=1)


def _reference_blocks_known(q, remaining, known, block):
    first, later = known[0], known[1:]
    if not later:  # the last block is whatever remains
        return len(remaining) == block and all(q.pairs[t - 1][1] in first[t - 1] for t in remaining)
    for chosen in itertools.combinations(remaining, block):
        if all(q.pairs[t - 1][1] in first[t - 1] for t in chosen):
            rest = [c for c in remaining if c not in chosen]
            if _reference_blocks_known(q, rest, later, block):
                return True
    return False


def _reference_seats_filled(q, candidates, owner, known, block):
    """The assignment rule by exhaustive search: some candidate special class whose
    index in q is fresh for the owner, and some split of the other identifiable
    classes into one block of ``block`` classes per user, each known to its user."""

    def admits(v):
        if q.pairs[v - 1][1] in known[owner - 1][v - 1]:
            return False
        return _reference_blocks_known(q, [c for c in range(1, len(known[0]) + 1) if c != v], known, block)

    return any(admits(v) for v in candidates)


def test_matching_matches_reference_search(monkeypatch):
    # The matching must give the whole report that trying every candidate special
    # class and every helper partition gives: in multi mode and in forced single
    # mode, on honest plans and on plans with replaced pairs.
    rng = random.Random(20)
    matching = queries._seats_filled
    outcomes = set()
    for n in range(160):
        users = 2 + n % 2
        s = random_multi_scenario(rng, users, block=1 + n // 2 % 2)
        space = list(itertools.product(range(1, s.class_count + 1), repeat=users))
        for demands in rng.sample(space, 3):
            seed = rng.randrange(10**6)
            for mode, judged, honest in (
                ("multi", demands, generate_multi_user_plan(s, demands, seed=seed, force=True)),
                ("single", demands[:1], generate_single_user_plan(s, demands[0], seed=seed, force=True)),
            ):
                for plan in [honest] + [_replace_pairs(rng, s, honest) for _ in range(3)]:
                    monkeypatch.setattr(queries, "_seats_filled", _reference_seats_filled)
                    reference = check_plan(s, judged, plan, mode)
                    monkeypatch.setattr(queries, "_seats_filled", matching)
                    assert check_plan(s, judged, plan, mode) == reference, (n, mode, judged, plan)
                    outcomes.add((mode, reference.ok))
    assert outcomes == {(mode, ok) for mode in ("multi", "single") for ok in (True, False)}


@contextmanager
def deadline(seconds):
    """Fail the test, rather than hang it, if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_check_plan_with_many_helper_partitions_is_quick():
    # eta = 22 and three users: C(21, 7) * C(14, 7) helper partitions per special
    # class, far too many to try one by one.
    s = scenario_from_dict(wide_helper_document()).scenario
    assert validate_scenario(s, "multi").ok
    demands = (23, 23, 23)
    for seed in range(4):
        plan = generate_multi_user_plan(s, demands, seed=seed)
        with deadline(1.0):
            report = check_plan(s, demands, plan, "multi")
        assert report.ok, seed


def test_stand_in_dead_end_draws_nothing():
    # Every identifiable class is used up for the only user, so the stand-in for
    # an unidentifiable demand dead-ends before any class is drawn.
    sizes = (2, 2, 2)
    si = SideInformation(2, (frozenset({1, 2}), frozenset({1, 2}), frozenset()))
    s = Scenario(random_store(PrimeField(7), sizes, 1, 0), sequential_class_map(sizes), (si,), 2, 0)
    chooser = _ReplayChooser([])
    with pytest.raises(DeadEnd):
        build_multi_plan(s, (3,), chooser)
    assert chooser.sizes == []
    with pytest.raises(ExhaustedIndices):
        query_distribution(s, (3,), "multi")


class TestPickBlock:
    """``pick_block(items, b)`` must be ``pick(list(combinations(items, b)))`` without the list."""

    def test_every_rank_is_the_listed_block(self):
        for n in range(9):
            items = [10 * k + 3 for k in range(n)]
            for b in range(n + 2):
                blocks = list(itertools.combinations(items, b))
                for i, listed in enumerate(blocks):
                    ranked, reference = _ReplayChooser([i]), _ReplayChooser([i])
                    assert ranked.pick_block(items, b) == listed, (n, b, i)
                    reference.pick(blocks)
                    assert (ranked.sizes, ranked.path) == (reference.sizes, reference.path), (n, b, i)

    def test_no_block_is_a_dead_end_without_a_draw(self):
        for n in range(9):
            chooser = _ReplayChooser([])
            with pytest.raises(DeadEnd):
                chooser.pick_block(list(range(n)), n + 1)
            assert chooser.sizes == []

    def test_one_block_draws_nothing(self):
        for n in range(9):
            for b in (0, n):
                chooser = _ReplayChooser([])
                assert chooser.pick_block(list(range(n)), b) == tuple(range(b))
                assert chooser.sizes == []


def _reference_multi_plan(s, demands, chooser):
    """The collaborative builder that lists every helper block, kept to check
    that ranked blocks make the same draws and plans."""
    eta = s.identifiable_count
    gamma = s.class_count
    users = s.user_count
    sizes = s.class_map.sizes
    budget = s.params.per_user_known_budget
    used = [set() for _ in range(gamma + 1)]
    plan = []
    for j in range(1, s.params.query_count + 1):
        si_u = s.users[query_owner(j, users) - 1]
        beta = {}
        if j <= users and demands[j - 1] <= eta:
            v = demands[j - 1]
        else:
            pools = {c: sizes[c - 1] - len(si_u.known_indices(c) | used[c]) for c in range(1, eta + 1)}
            best = max(pools.values())
            if best == 0:
                raise DeadEnd
            v = chooser.pick(sorted(c for c, size in pools.items() if size == best))
        beta[v] = chooser.pick_fresh(sizes[v - 1], si_u.known_indices(v), used[v])
        used[v].add(beta[v])
        remaining = [c for c in range(1, eta + 1) if c != v]
        blocks = []
        for _ in range(users):
            block = chooser.pick(list(itertools.combinations(remaining, budget)))
            blocks.append(block)
            remaining = [c for c in remaining if c not in block]
        for si_i, block in zip(s.users, blocks):
            for t in block:
                beta[t] = chooser.pick(sorted(si_i.known_indices(t) - used[t]))
                used[t].add(beta[t])
        for t in range(1, gamma + 1):
            if t not in beta:
                beta[t] = chooser.pick_fresh(sizes[t - 1], used[t])
                used[t].add(beta[t])
        plan.append(queries.Query(j, tuple((i, beta[i]) for i in range(1, gamma + 1))))
    return queries.QueryPlan(tuple(plan), s.params.for_mode("multi").per_user_known_budget)


def _loose_multi_scenario(rng, users, block, largest):
    """Random collaborative scenario with no regard for validation: classes of 2 to
    ``largest`` messages and side information of any size, so builds often dead-end."""
    eta = 1 + users * block
    sizes = [rng.randint(2, largest) for _ in range(eta + rng.randint(0, 1))]
    sis = tuple(
        SideInformation(eta, tuple(frozenset(rng.sample(range(1, mu + 1), rng.randint(0, mu))) for mu in sizes))
        for _ in range(users)
    )
    store = random_store(PrimeField(37), sizes, 1, rng.randrange(10**6))
    return Scenario(store, sequential_class_map(sizes), sis, eta, seed=0)


def _attempt(build, s, demands, chooser):
    try:
        return build(s, demands, chooser)
    except DeadEnd:
        return None


def test_ranked_blocks_build_the_listed_plans():
    # Attempt by attempt, on one seeded stream each, the builder and the listing
    # reference must dead-end together or give the same plan, and leave the
    # stream in the same state.
    rng = random.Random(21)
    outcomes = set()
    for n in range(120):
        users = 2 + n % 2
        block = 1 + n // 2 % 2
        if n % 4 < 2:
            s = random_multi_scenario(rng, users, block=block)
        else:
            s = _loose_multi_scenario(rng, users, block, largest=6)
        space = list(itertools.product(range(1, s.class_count + 1), repeat=users))
        for demands in rng.sample(space, 3):
            seed = rng.randrange(10**6)
            ranked, listed = RandomChooser(random.Random(seed)), RandomChooser(random.Random(seed))
            for _ in range(5):
                plan = _attempt(build_multi_plan, s, demands, ranked)
                assert plan == _attempt(_reference_multi_plan, s, demands, listed), (n, demands, seed)
                outcomes.add(plan is not None)
                if plan is not None:
                    break
            assert ranked.rng.getstate() == listed.rng.getstate(), (n, demands, seed)
    assert outcomes == {True, False}


def test_ranked_blocks_give_the_listed_distributions(monkeypatch):
    # The exact oracle walks every branch, so every draw's size and order must match.
    rng = random.Random(7)
    outcomes = set()
    for n in range(16):
        s = _loose_multi_scenario(rng, 2 + n // 12, 1 + n % 2, largest=3)
        demands = tuple(rng.randint(1, s.class_count) for _ in range(s.user_count))
        results = []
        for build in (build_multi_plan, _reference_multi_plan):
            monkeypatch.setattr(queries, "build_multi_plan", build)
            try:
                results.append(query_distribution(s, demands, "multi"))
            except ExhaustedIndices:
                results.append(None)
        assert results[0] == results[1], (n, demands)
        outcomes.add(results[0] is not None)
    assert outcomes == {True, False}


class _LargestPickChooser(RandomChooser):
    """Records the most options any one ``pick`` call is handed."""

    largest = 0

    def pick(self, options):
        self.largest = max(self.largest, len(options))
        return super().pick(options)


def test_no_pick_lists_the_helper_blocks():
    # User 1's blocks number C(21, 7) = 116,280; no pick may be handed more than
    # the identifiable classes (a stand-in tie) or one class's indices.
    s = scenario_from_dict(wide_helper_document()).scenario
    chooser = _LargestPickChooser(random.Random(1))
    assert _attempt(build_multi_plan, s, (23, 23, 23), chooser) is not None
    assert 0 < chooser.largest <= max(s.identifiable_count, *s.class_map.sizes)


def test_multi_validation_admits_only_scenarios_with_plans():
    # Classes (3, 2, 2), eta = 1: both queries' special class is class 1, whose
    # only index fresh for either user is 3, so no plan exists for any demand pair.
    sizes = (3, 2, 2)
    f = frozenset
    users = (SideInformation(1, (f({1, 2}), f(), f())), SideInformation(1, (f({1, 2}), f(), f({1}))))
    s = Scenario(random_store(PrimeField(7), sizes, 1, 0), sequential_class_map(sizes), users, 1, 0)
    if validate_scenario(s, "multi").ok:
        runs = []
        for demands in itertools.product(range(1, 4), repeat=2):
            try:
                run_session(s, demands, seed=0)
                runs.append(demands)
            except ExhaustedIndices:
                pass
        assert runs

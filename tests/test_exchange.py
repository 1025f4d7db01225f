import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import ppir.exchange as exchange
import ppir.mds as mds
import ppir.queries as queries
from ppir import cli
from helpers import FIVE_CLASS_DEMAND3_QUERIES, published_plan, random_single_scenario
from ppir import (
    Answer,
    MessageStore,
    Scenario,
    SideInformation,
    answer_query,
    build_systematic_generator,
    check_plan,
    decode_answer,
    generate_single_user_plan,
    generator_from_explicit,
    plan_from_pairs,
    run_session,
    sequential_class_map,
    session_generator,
)
from ppir.errors import DimensionMismatch, InsufficientKnowns, MalformedScenario, NotMDS, RecoveryFailed
from ppir.exchange import check_decoder_columns, decoder_columns
from ppir.field import PrimeField
from ppir.fixtures import fixture_path
from ppir.queries import Query, QueryPlan
from ppir.scenario_io import scenario_from_dict


def _placeable(scenario, user=0):
    cm = scenario.class_map
    si = scenario.users[user]
    return {
        (i, b): scenario.store.symbols(cm.pair_to_global(i, b))
        for i in range(1, scenario.identifiable_count + 1)
        for b in si.known_indices(i)
    }


class TestServerAnswer:
    def test_published_parities(self, five_class):
        s = five_class.scenario
        gen = five_class.explicit_generator
        query = published_plan(FIVE_CLASS_DEMAND3_QUERIES, 2).queries[0]
        answer = answer_query(s.store, s.class_map, query, 2, gen)
        assert answer.parities == ((10, 0), (8, 0), (10, 7))

    def test_zero_store_gives_zero_parities(self, five_class):
        s = five_class.scenario
        zero_store = MessageStore(
            s.store.field, tuple((0, 0) for _ in range(s.store.message_count))
        )
        query = published_plan(FIVE_CLASS_DEMAND3_QUERIES, 2).queries[0]
        answer = answer_query(zero_store, s.class_map, query, 2, five_class.explicit_generator)
        assert all(v == 0 for row in answer.parities for v in row)

    def test_fully_identifiable_single_parity_row(self, fsi):
        s = fsi.scenario
        gen = session_generator(s, "single")
        query = Query(1, ((1, 1), (2, 1), (3, 2)))
        answer = answer_query(s.store, s.class_map, query, s.params.disclosed_known_count("single"), gen)
        assert len(answer.parities) == 1

    def test_generator_shape_checked(self, five_class):
        s = five_class.scenario
        wrong = build_systematic_generator(9, 5, s.store.field)
        query = published_plan(FIVE_CLASS_DEMAND3_QUERIES, 2).queries[0]
        with pytest.raises(DimensionMismatch):
            answer_query(s.store, s.class_map, query, 2, wrong)

    def test_parity_rows_match_disclosed_count(self, five_class, two_user):
        for loaded, mode, demands in ((five_class, "single", 3), (two_user, "multi", (2, 3))):
            s = loaded.scenario
            trace = run_session(s, demands, seed=1, explicit_generator=loaded.explicit_generator)
            expect_rows = s.class_count - s.params.disclosed_known_count(mode)
            assert all(len(a.parities) == expect_rows for a in trace.answers)


class TestClientDecode:
    def test_published_decode(self, five_class):
        s = five_class.scenario
        gen = five_class.explicit_generator
        query = published_plan(FIVE_CLASS_DEMAND3_QUERIES, 2).queries[0]
        answer = answer_query(s.store, s.class_map, query, 2, gen)
        messages = decode_answer(query, answer, _placeable(s), gen)
        assert messages[(3, 5)] == (9, 4)
        for pair, symbols in messages.items():
            assert symbols == s.store.symbols(s.class_map.pair_to_global(*pair))

    def test_all_known_query_still_reads_parities(self, fsi):
        # The decoder inverts the first 2k - n = 2 known positions plus the
        # parity even when all three are known, so a blanked parity row shows.
        s = fsi.scenario
        gen = session_generator(s, "single")
        query = Query(1, ((1, 1), (2, 1), (3, 2)))  # exactly the user's side information
        answer = answer_query(s.store, s.class_map, query, s.params.disclosed_known_count("single"), gen)
        stored = {pair: s.store.symbols(s.class_map.pair_to_global(*pair)) for pair in query.pairs}
        assert decode_answer(query, answer, _placeable(s), gen) == stored
        blank = Answer(answer.query_index, tuple(tuple(0 for _ in row) for row in answer.parities))
        assert decode_answer(query, blank, _placeable(s), gen) != stored

    def test_decoder_columns_are_the_first_known_then_every_parity(self, five_class):
        gen = five_class.explicit_generator  # [8, 5]: 2k - n = 2 known positions
        assert decoder_columns({1: (), 3: ()}, gen) == [1, 3, 6, 7, 8]
        assert decoder_columns({1: (), 2: (), 3: ()}, gen) == [1, 2, 6, 7, 8]

    def test_six_class_first_query_fully_decodable(self, six_class):
        # Two placeable side-information pairs plus four parity rows reach the
        # code dimension, so the whole six-message vector comes back.
        s = six_class.scenario
        gen = session_generator(s, "single")
        query = Query(1, ((1, 9), (2, 3), (3, 5), (4, 3), (5, 2), (6, 8)))
        answer = answer_query(s.store, s.class_map, query, s.params.disclosed_known_count("single"), gen)
        assert len(answer.parities) == 4
        messages = decode_answer(query, answer, _placeable(s), gen)
        assert len(messages) == 6
        for pair, symbols in messages.items():
            assert symbols == s.store.symbols(s.class_map.pair_to_global(*pair))

    def test_insufficient_knowns(self, five_class):
        s = five_class.scenario
        gen = five_class.explicit_generator
        # No identifiable-class index is in the side information here.
        query = Query(1, ((1, 1), (2, 3), (3, 5), (4, 1), (5, 4)))
        answer = answer_query(s.store, s.class_map, query, 2, gen)
        with pytest.raises(InsufficientKnowns):
            decode_answer(query, answer, _placeable(s), gen)


class TestRunSession:
    def test_five_class_rate(self, five_class):
        trace = run_session(five_class.scenario, 3, seed=5, explicit_generator=five_class.explicit_generator)
        assert trace.rate == Fraction(1, 12)
        assert trace.downloaded_symbols == 24
        assert trace.code_length == 8 and trace.code_dimension == 5

    def test_two_user_rate(self, two_user):
        trace = run_session(two_user.scenario, (2, 3), seed=4)
        assert trace.rate == Fraction(1, 20)
        assert trace.code_length == 12 and trace.code_dimension == 7

    def test_fully_identifiable_rate_is_one(self, fsi):
        trace = run_session(fsi.scenario, 2, seed=1)
        assert trace.rate == Fraction(1)
        assert len(trace.answers) == 1

    def test_recovery_yields_new_desired_message(self, five_class):
        s = five_class.scenario
        held = {
            s.class_map.pair_to_global(i, b)
            for i in range(1, 6)
            for b in s.users[0].oracle_indices(i)
        }
        for v in range(1, 6):
            trace = run_session(s, v, seed=v, explicit_generator=five_class.explicit_generator)
            result = trace.users[0]
            assert result.new_messages
            for i, beta, f in result.new_messages:
                assert i == v and f not in held

    def test_every_user_served_on_broadcast(self, two_user):
        trace = run_session(two_user.scenario, (6, 7), seed=2)
        assert len(trace.users) == 2
        for result, desired in zip(trace.users, (6, 7)):
            assert result.desired_class == desired
            assert result.new_messages
            # Both users can decode every query in the collaborative scheme.
            assert result.decoded_queries == tuple(range(1, 5))

    def test_identifiable_demand_skips_non_designated_queries(self, five_class):
        s = five_class.scenario
        for seed in range(10):
            plan = generate_single_user_plan(s, 1, seed=seed)
            trace = run_session(s, 1, seed=seed, explicit_generator=five_class.explicit_generator)
            rules = {r.name: r for r in check_plan(s, (1,), plan, "single").rules}
            designated = rules["designated_query"].witnesses
            assert designated and set(designated) <= set(trace.users[0].decoded_queries)

    def test_decoded_symbols_match_store(self, five_class):
        s = five_class.scenario
        trace = run_session(s, 4, seed=9, explicit_generator=five_class.explicit_generator)
        held = _placeable(s)
        for i, beta, f in trace.users[0].decoded:
            if (i, beta) in held:
                assert held[(i, beta)] == s.store.symbols(f)

    def test_decode_sees_only_identifiable_pairs(self, five_class, six_class, two_user, monkeypatch):
        # The session hands decode_answer exactly the user's side information
        # in identifiable classes, once per user and query.
        seen = []
        real = exchange.decode_answer

        def recording(query, answer, placeable, generator):
            seen.append(placeable)
            return real(query, answer, placeable, generator)

        monkeypatch.setattr(exchange, "decode_answer", recording)
        for loaded, demands in ((five_class, 3), (six_class, 4), (two_user, (2, 3))):
            s = loaded.scenario
            seen.clear()
            trace = run_session(s, demands, seed=2, explicit_generator=loaded.explicit_generator)
            per_user = len(trace.answers)
            assert len(seen) == s.user_count * per_user
            for k, placeable in enumerate(seen):
                si = s.users[k // per_user]
                assert placeable == {
                    (i, b): s.store.symbols(s.class_map.pair_to_global(i, b))
                    for i in range(1, s.identifiable_count + 1)
                    for b in si.oracle_indices(i)
                }

    def test_server_blindness_replay(self, five_class):
        # Replaying the server on the trace's own projection must reproduce
        # the answers exactly: nothing beyond the projection reached it.
        s = five_class.scenario
        gen = five_class.explicit_generator
        trace = run_session(s, 3, seed=11, explicit_generator=gen)
        disclosed, queries = trace.plan_view
        for answer, pairs in zip(trace.answers, queries):
            replay = answer_query(s.store, s.class_map, Query(answer.query_index, pairs), disclosed, gen)
            assert replay == answer

    def test_projection_carries_no_demand(self, five_class):
        s = five_class.scenario
        disclosed, queries = run_session(s, 3, seed=11).plan_view
        assert disclosed == s.identifiable_count - 1
        flat = {x for q in queries for pair in q for x in pair}
        assert all(isinstance(x, int) for x in flat)

    def test_list_rows_decode(self):
        # Rows handed over as lists are stored as tuples, so decoded messages
        # compare equal to them.
        rows = [[f % 11, 3 * f % 11] for f in range(1, 9)]
        store = MessageStore(PrimeField(11), rows)
        assert all(type(row) is tuple for row in store.messages)
        si = SideInformation(1, (frozenset({1}), frozenset()))
        s = Scenario(store, sequential_class_map((4, 4)), (si,), 1, 0)
        assert run_session(s, 1, seed=2).rate == Fraction(1, 2)

    def test_recovery_failure_reported(self, two_user_small):
        # One query cannot serve two users; with validation forced off, the
        # second user comes up empty on unlucky draws.
        with pytest.raises(RecoveryFailed):
            run_session(two_user_small.scenario, (1, 1), seed=1, force=True)

    def test_wrong_parity_fails_recovery(self, five_class, monkeypatch):
        # A decoded message is checked against the store on every run: one
        # flipped parity symbol must end the session, not yield a wrong trace.
        honest = exchange.answer_query
        q = five_class.scenario.store.field.order

        def corrupt(*args):
            answer = honest(*args)
            first = answer.parities[0]
            flipped = ((first[0] + 1) % q,) + first[1:]
            return Answer(answer.query_index, (flipped,) + answer.parities[1:])

        monkeypatch.setattr(exchange, "answer_query", corrupt)
        with pytest.raises(RecoveryFailed, match="differs from the store"):
            run_session(five_class.scenario, 3, seed=5, explicit_generator=five_class.explicit_generator)

    def test_rate_identity_measured_vs_closed_form(self, five_class, six_class, two_user):
        for loaded, demands, mode in (
            (five_class, 2, "single"),
            (six_class, 4, "single"),
            (two_user, (4, 5), "multi"),
        ):
            s = loaded.scenario
            trace = run_session(s, demands, seed=3, explicit_generator=loaded.explicit_generator)
            kun = s.params.max_unidentified_count
            rows = s.class_count - s.params.disclosed_known_count(mode)
            expect_d = (kun + 1) * rows * s.store.symbols_per_message
            assert trace.downloaded_symbols == expect_d
            assert trace.rate == Fraction(s.store.symbols_per_message, expect_d)

    def test_negative_seed_refused(self, six_class):
        # random.Random(-7) draws what random.Random(7) draws, so seed -7 would replay seed 7.
        s = six_class.scenario
        with pytest.raises(ValueError, match="seed must be at least 0, got -7"):
            run_session(s, 2, seed=-7)
        negative = Scenario(s.store, s.class_map, s.users, s.identifiable_count, seed=-1)
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            run_session(negative, 2)


def test_session_generator_prefers_matching_explicit(five_class):
    s = five_class.scenario
    gen = session_generator(s, "single", five_class.explicit_generator)
    assert gen == five_class.explicit_generator
    # Shape mismatch falls back to the default construction.
    other = session_generator(s, "multi", five_class.explicit_generator)
    assert other.n == s.params.code_length("multi")


def test_generator_over_another_field_falls_back(five_class):
    s = five_class.scenario
    other = build_systematic_generator(8, 5, PrimeField(13))
    trace = run_session(s, 3, seed=5, explicit_generator=other)
    assert trace == run_session(s, 3, seed=5)  # the default [8, 5] code over GF(11)
    assert all(v < 11 for a in trace.answers for row in a.parities for v in row)


def test_caller_built_singular_generator_refused_before_answers(five_class, monkeypatch):
    # Parity column 6 zeroed: the decoder set (1, 2, 6, 7, 8) is singular.  A
    # library caller skips the loader, so the session itself must refuse it.
    gen = five_class.explicit_generator
    zeroed = generator_from_explicit([row[:5] + (0,) + row[6:] for row in gen.rows], gen.field)

    def no_answer(*args):
        raise AssertionError("the server answered")

    monkeypatch.setattr(exchange, "answer_query", no_answer)
    with pytest.raises(NotMDS, match=r"singular decoder column set \(1, 2, 6, 7, 8\)"):
        run_session(five_class.scenario, 3, seed=5, explicit_generator=zeroed)


class TestDecoderColumnCheck:
    def test_checks_exactly_the_decoder_sets(self, five_class, monkeypatch):
        seen = []

        def record(gen, sets):
            seen.extend(sets)

        monkeypatch.setattr(exchange, "singular_column_set", record)
        check_decoder_columns(five_class.scenario, five_class.explicit_generator)
        assert seen == [[1, 2, 6, 7, 8], [1, 3, 6, 7, 8], [2, 3, 6, 7, 8]]

    def test_set_count_refused_before_any_inversion(self, five_class, monkeypatch):
        def no_inverse(*args):
            raise AssertionError("a column set was inverted")

        monkeypatch.setattr(mds, "_column_inverse", no_inverse)
        monkeypatch.setattr(exchange, "MAX_DECODER_COLUMN_SETS", 2)
        with pytest.raises(NotMDS, match=r"C\(3, 2\) = 3 decoder column sets exceed the 2 checked"):
            check_decoder_columns(five_class.scenario, five_class.explicit_generator)

    @pytest.mark.parametrize("n,k", [(7, 4), (11, 5)], ids=["k-not-class-count", "n-above-2k"])
    def test_generator_no_session_uses_is_not_checked(self, five_class, n, k):
        zero_parities = generator_from_explicit(
            [[int(i == j) for j in range(k)] + [0] * (n - k) for i in range(k)], PrimeField(11)
        )
        check_decoder_columns(five_class.scenario, zero_parities)


def _document(s: Scenario, q: int, generator_rows) -> dict:
    """A scenario document of ``s`` over GF(q), its symbols taken mod q."""
    return {
        "field_order": q,
        "symbols_per_message": s.store.symbols_per_message,
        "eta": s.identifiable_count,
        "seed": s.seed,
        "classes": [
            [[v % q for v in s.store.symbols(s.class_map.pair_to_global(i, b))] for b in range(1, size + 1)]
            for i, size in enumerate(s.class_map.sizes, start=1)
        ],
        "users": [{"side_information": [sorted(ix) for ix in si.indices]} for si in s.users],
        "explicit_generator": generator_rows,
    }


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), q=st.sampled_from([5, 7, 11]), data=st.data())
def test_loaded_generator_never_meets_a_singular_set(seed, q, data):
    # Over small fields random parity blocks often have singular minors: the
    # loader must refuse every generator that some demand's session cannot invert.
    s = random_single_scenario(random.Random(seed))
    gamma, n = s.class_count, s.params.code_length("single")
    assume(n <= q)
    parity = st.lists(st.integers(0, q - 1), min_size=n - gamma, max_size=n - gamma)
    rows = [[int(i == j) for j in range(gamma)] + data.draw(parity) for i in range(gamma)]
    try:
        loaded = scenario_from_dict(_document(s, q, rows))
    except MalformedScenario:
        return
    assert session_generator(loaded.scenario, "single", loaded.explicit_generator) is loaded.explicit_generator
    for v in range(1, gamma + 1):
        run_session(loaded.scenario, v, explicit_generator=loaded.explicit_generator)


def test_default_generator_sessions_also_recover(six_class):
    s = six_class.scenario
    for v in range(1, 7):
        trace = run_session(s, v, seed=v)
        assert trace.users[0].new_messages
        assert trace.rate == Fraction(1, 12)


class TestPlanPostcondition:
    """Every session checks its own plan against the selection rules."""

    @pytest.fixture
    def repeating_builder(self, monkeypatch):
        # The real single-user builder, except that query 2 reuses query 1's
        # index in the last (unidentifiable) class.
        honest = queries.build_single_plan

        def repeat(s, desired_class, chooser):
            plan = honest(s, desired_class, chooser)
            first, second = plan.queries[:2]
            bad = Query(second.index, second.pairs[:-1] + first.pairs[-1:])
            return QueryPlan((first, bad) + plan.queries[2:], plan.disclosed_known_count)

        monkeypatch.setattr(queries, "build_single_plan", repeat)

    def test_run_session_refuses_repeated_index(self, five_class, repeating_builder):
        with pytest.raises(RecoveryFailed, match=r"selection rules: non_repetition$"):
            run_session(five_class.scenario, 3, seed=5, explicit_generator=five_class.explicit_generator)

    def test_cli_exits_4(self, repeating_builder, capsys):
        path = str(fixture_path("five_class.json"))
        assert cli.main(["run", path, "--demand", "3", "--seed", "5"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("recovery failed:")
        assert "non_repetition" in err

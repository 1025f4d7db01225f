"""The protocol round: blind server encoding, client erasure decoding, session bookkeeping.

For every query the server lines up the queried messages in ascending class
order as a k x L block (one row per message, one column per symbol position)
and returns only its parity block: the (n - k) x L product with the parity
columns of the session's systematic code.  Its inputs are limited by
signature to the store, the bare query pairs, the disclosed code-dimension
hint, and the generator: neither demands nor side information can flow in.

A client combines the parity rows with the side-information messages it can
actually place and erasure-decodes the whole message block, with one column
inverse per query, whenever enough coordinates are known.  Queries that fall
short are skipped, which is the expected outcome for non-designated queries
when the desired class is identifiable.  Every plan is checked against the scheme's selection
rules before the server sees it, and every decoded message is compared with
the store, so a bad plan or a wrong answer ends the session with
RecoveryFailed instead of a wrong trace.

What a user can place is one (class, subclass) -> symbols dict, built once per
session through ``known_indices`` and so over identifiable classes only:
holding a message of an unidentifiable class does not say which queried pair
it answers.  ``decode_answer`` reads nothing else of the user.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from .errors import DimensionMismatch, InsufficientKnowns, NotMDS, RecoveryFailed
from .mds import Generator, build_systematic_generator, decode_block, parity_block, singular_column_set
from .queries import Query, check_plan, generate_multi_user_plan, generate_single_user_plan
from .scenario import ClassMap, MessageStore, Scenario

MAX_DECODER_COLUMN_SETS = 2_000


@dataclass(frozen=True)
class Answer:
    """Parity rows for one query: (code length - class count) rows, one column per symbol position."""

    query_index: int
    parities: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class UserResult:
    user: int
    desired_class: int
    decoded_queries: tuple[int, ...]
    decoded: tuple[tuple[int, int, int], ...]          # (class, subclass, global) over all decodable queries
    new_messages: tuple[tuple[int, int, int], ...]     # decoded desired-class messages outside the side information
    witness_symbols: tuple[int, ...]                   # contents of the first new message


@dataclass(frozen=True)
class SessionTrace:
    mode: str
    demands: tuple[int, ...]
    seed: int
    plan_view: tuple[int, tuple[tuple[tuple[int, int], ...], ...]]
    code_length: int
    code_dimension: int
    field_order: int
    answers: tuple[Answer, ...]
    users: tuple[UserResult, ...]
    downloaded_symbols: int
    rate: Fraction


def answer_query(
    store: MessageStore,
    class_map: ClassMap,
    query: Query,
    disclosed_known_count: int,
    generator: Generator,
) -> Answer:
    """Parity symbols for one query; reads nothing beyond its arguments."""
    gamma = class_map.class_count
    if generator.k != gamma or generator.n != 2 * gamma - disclosed_known_count:
        raise DimensionMismatch(
            f"generator is [{generator.n}, {generator.k}], query needs "
            f"[{2 * gamma - disclosed_known_count}, {gamma}]"
        )
    if len(query.pairs) != gamma:
        raise DimensionMismatch(f"query has {len(query.pairs)} pairs, expected {gamma}")
    rows = [store.symbols(class_map.pair_to_global(i, beta)) for i, beta in query.pairs]
    return Answer(query.index, parity_block(generator, rows))


def decoder_columns(known, generator: Generator) -> list[int]:
    """The one column set decode_answer inverts for a query: the first
    2k - n of the ``known`` systematic positions, then every parity position."""
    return list(known)[: 2 * generator.k - generator.n] + list(range(generator.k + 1, generator.n + 1))


def decode_answer(query: Query, answer: Answer, placeable: dict, generator: Generator) -> dict:
    """All queried messages, recovered from known coordinates plus parities.

    ``placeable`` maps each (class, subclass) pair the user can place (its
    side information in identifiable classes) to that message's symbols.
    Returns {(class, subclass): symbols} for every queried pair.  Raises
    InsufficientKnowns when fewer than 2k - n systematic positions are known.
    Inverts decoder_columns, so it reads every parity row even when more is known.
    """
    gamma = generator.k
    # Query pairs run one per class in ascending class order, so class i is systematic position i.
    known = {pair[0]: placeable[pair] for pair in query.pairs if pair in placeable}
    if len(known) < 2 * gamma - generator.n:
        raise InsufficientKnowns(f"{len(known)} known positions + {generator.n - gamma} parities < {gamma}")
    positions = decoder_columns(known, generator)
    rows = [known[p] if p <= gamma else answer.parities[p - gamma - 1] for p in positions]
    messages = decode_block(generator, positions, rows)
    return {pair: messages[idx] for idx, pair in enumerate(query.pairs)}


def check_decoder_columns(s: Scenario, generator: Generator) -> None:
    """Raise NotMDS unless decode_answer can invert every set it may meet with this generator:
    decoder_columns(S) for the C(eta, hint) hint-subsets S of 1..eta, when k is the class
    count and hint = 2k - n >= 0; more than MAX_DECODER_COLUMN_SETS are refused before any inversion."""
    hint = 2 * generator.k - generator.n
    if generator.k != s.class_count or hint < 0:
        return
    eta = s.identifiable_count
    if (count := comb(eta, hint)) > MAX_DECODER_COLUMN_SETS:
        raise NotMDS(f"C({eta}, {hint}) = {count} decoder column sets exceed the {MAX_DECODER_COLUMN_SETS} checked")
    sets = (decoder_columns(known, generator) for known in combinations(range(1, eta + 1), hint))
    bad = singular_column_set(generator, sets)
    if bad is not None:
        raise NotMDS(f"singular decoder column set {bad}")


def session_generator(s: Scenario, mode: str, explicit: Optional[Generator] = None) -> Generator:
    """The session's code: a supplied explicit generator when its shape and field fit, else the default construction.

    A fitting explicit generator passes check_decoder_columns first (NotMDS otherwise),
    so a caller-built one cannot end a session mid-decode."""
    gamma = s.class_count
    n = s.params.code_length(mode)
    if explicit is not None and explicit.k == gamma and explicit.n == n and explicit.field == s.store.field:
        check_decoder_columns(s, explicit)
        return explicit
    return build_systematic_generator(n, gamma, s.store.field)


def run_session(
    s: Scenario,
    demands,
    *,
    seed: Optional[int] = None,
    explicit_generator: Optional[Generator] = None,
    force: bool = False,
) -> SessionTrace:
    """Full protocol round: plan, answers, every user's decodes, rate accounting.

    ``demands`` is a single class index (one user) or one index per user
    (collaborative).  Every user receives every answer over the shared link
    and decodes what it can; sessions are stateless, so decoded messages are
    not folded back into side information.  Raises RecoveryFailed when the
    plan breaks a selection rule of ``check_plan``, a decoded message differs
    from the store, or a user gains no new message, and NotMDS (before the
    server answers) when ``explicit_generator`` fits but some decoder column
    set of it is singular.
    """
    if isinstance(demands, int):
        mode = "single"
        demand_tuple = (demands,)
        plan = generate_single_user_plan(s, demands, seed=seed, force=force)
    else:
        mode = "multi"
        demand_tuple = tuple(demands)
        plan = generate_multi_user_plan(s, demand_tuple, seed=seed, force=force)
    check = check_plan(s, demand_tuple, plan, mode)
    if not check.ok:
        raise RecoveryFailed(
            "plan breaks the selection rules: " + ", ".join(r.name for r in check.failed())
        )

    gen = session_generator(s, mode, explicit_generator)
    answers = tuple(
        answer_query(s.store, s.class_map, q, plan.disclosed_known_count, gen)
        for q in plan.queries
    )

    users = []
    for u, si in enumerate(s.users, start=1):
        placeable = {
            (i, beta): s.store.symbols(s.class_map.pair_to_global(i, beta))
            for i in range(1, s.identifiable_count + 1)
            for beta in si.known_indices(i)
        }
        desired = demand_tuple[u - 1] if mode == "multi" else demand_tuple[0]
        held = si.oracle_indices(desired)
        decoded_queries = []
        decoded = []
        new = []
        witness = ()
        for q, a in zip(plan.queries, answers):
            try:
                messages = decode_answer(q, a, placeable, gen)
            except InsufficientKnowns:
                continue
            decoded_queries.append(q.index)
            for (i, beta), symbols in sorted(messages.items()):
                f = s.class_map.pair_to_global(i, beta)
                if symbols != s.store.symbols(f):
                    raise RecoveryFailed(
                        f"user {u} decoded message {f} from query {q.index}, and it differs from the store"
                    )
                decoded.append((i, beta, f))
                if i == desired and beta not in held:
                    if not new:
                        witness = symbols
                    new.append((i, beta, f))
        if not new:
            raise RecoveryFailed(
                f"user {u} decoded no new message from class {desired}"
            )
        users.append(
            UserResult(
                user=u,
                desired_class=desired,
                decoded_queries=tuple(decoded_queries),
                decoded=tuple(decoded),
                new_messages=tuple(new),
                witness_symbols=witness,
            )
        )

    length = s.store.symbols_per_message
    downloaded = sum(len(a.parities) * length for a in answers)
    return SessionTrace(
        mode=mode,
        demands=demand_tuple,
        seed=s.seed if seed is None else seed,
        plan_view=plan.server_view(),
        code_length=gen.n,
        code_dimension=gen.k,
        field_order=s.store.field.order,
        answers=answers,
        users=tuple(users),
        downloaded_symbols=downloaded,
        rate=Fraction(length, downloaded),
    )

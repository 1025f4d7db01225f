"""Shared builders for the test suite: fixture loaders, published transcripts,
and random conforming-scenario generators."""

from __future__ import annotations

import random
from math import ceil

from ppir import (
    Scenario,
    SideInformation,
    load_scenario,
    plan_from_pairs,
    random_store,
    sequential_class_map,
)
from ppir.field import PrimeField
from ppir.fixtures import fixture_path


def load_fixture(name: str):
    return load_scenario(str(fixture_path(name)))


# Published transcripts for the worked five-class scenario (identifiable
# demand 3 with designated first query, and unidentifiable demand 4).
FIVE_CLASS_DEMAND3_QUERIES = [
    [(1, 3), (2, 2), (3, 5), (4, 8), (5, 3)],
    [(1, 6), (2, 4), (3, 7), (4, 2), (5, 5)],
    [(1, 4), (2, 1), (3, 6), (4, 9), (5, 1)],
    [(1, 5), (2, 3), (3, 2), (4, 1), (5, 2)],
]
FIVE_CLASS_DEMAND4_QUERIES = [
    [(1, 1), (2, 1), (3, 2), (4, 9), (5, 1)],
    [(1, 4), (2, 6), (3, 1), (4, 8), (5, 3)],
    [(1, 7), (2, 5), (3, 7), (4, 2), (5, 5)],
    [(1, 2), (2, 4), (3, 3), (4, 1), (5, 2)],
]

# Published transcript for the worked six-class scenario, demand 4.
SIX_CLASS_DEMAND4_QUERIES = [
    [(1, 9), (2, 3), (3, 5), (4, 3), (5, 2), (6, 8)],
    [(1, 4), (2, 2), (3, 7), (4, 6), (5, 1), (6, 1)],
    [(1, 7), (2, 8), (3, 10), (4, 2), (5, 3), (6, 6)],
]

# Published transcripts for the two-user seven-class scenario.  The first
# batch serves both demand pairs (2, 3) and (6, 3); the second serves (6, 7).
TWO_USER_BATCH_A = [
    [(1, 1), (2, 5), (3, 2), (4, 3), (5, 4), (6, 2), (7, 8)],
    [(1, 2), (2, 1), (3, 3), (4, 4), (5, 6), (6, 1), (7, 3)],
    [(1, 4), (2, 2), (3, 1), (4, 6), (5, 1), (6, 4), (7, 1)],
    [(1, 3), (2, 4), (3, 4), (4, 1), (5, 2), (6, 3), (7, 5)],
]
TWO_USER_BATCH_B = [
    [(1, 4), (2, 5), (3, 1), (4, 6), (5, 1), (6, 2), (7, 8)],
    [(1, 3), (2, 4), (3, 4), (4, 1), (5, 2), (6, 1), (7, 3)],
    [(1, 5), (2, 1), (3, 2), (4, 3), (5, 4), (6, 4), (7, 1)],
    [(1, 2), (2, 2), (3, 3), (4, 4), (5, 6), (6, 3), (7, 5)],
]


def published_plan(queries, disclosed):
    return plan_from_pairs(queries, disclosed)


def random_single_scenario(rng: random.Random) -> Scenario:
    """Random one-user scenario strictly inside the scheme's assumptions."""
    gamma = rng.randint(2, 5)
    eta = rng.randint(1, gamma)
    if gamma > eta:
        un_counts = [rng.randint(0, 3) for _ in range(gamma - eta)]
        kun = max(un_counts)
    else:
        un_counts, kun = [], 0
    id_counts = [rng.randint(kun + 1, kun + 3) for _ in range(eta)]
    counts = id_counts + un_counts
    share = ceil((kun + 1) / eta)
    sizes = [max(k + share, kun + 1) + rng.randint(0, 2) for k in counts]
    field = PrimeField(23)  # covers every code length reachable here
    store = random_store(field, sizes, rng.randint(1, 2), rng.randrange(10**6))
    si = SideInformation(
        eta,
        tuple(frozenset(rng.sample(range(1, mu + 1), k)) for k, mu in zip(counts, sizes)),
    )
    return Scenario(store, sequential_class_map(sizes), (si,), eta, seed=rng.randrange(10**6))


def random_multi_scenario(rng: random.Random, users: int = 2, block: int = 0) -> Scenario:
    """Random collaborative scenario strictly inside the scheme's assumptions,
    with ``block`` helper classes per user when given (else drawn)."""
    eta = 1 + users * (block or rng.randint(1, 1 if users > 1 else 2))
    gamma = eta + rng.randint(1, 2)
    kun = rng.randint(users - 1, 2)
    per_user = []
    for _ in range(users):
        un = [rng.randint(0, kun) for _ in range(gamma - eta)]
        idc = [rng.randint(kun + 1, kun + 2) for _ in range(eta)]
        per_user.append(idc + un)
    per_user[0][eta] = kun  # pin the maximum unidentifiable count
    sizes = [
        max(per_user[u][i] + kun + 1 for u in range(users)) + rng.randint(0, 1)
        for i in range(gamma)
    ]
    field = PrimeField(37)
    store = random_store(field, sizes, rng.randint(1, 2), rng.randrange(10**6))
    sis = tuple(
        SideInformation(
            eta,
            tuple(frozenset(rng.sample(range(1, mu + 1), k)) for k, mu in zip(counts, sizes)),
        )
        for counts in per_user
    )
    return Scenario(store, sequential_class_map(sizes), sis, eta, seed=rng.randrange(10**6))


def wide_helper_document(eta: int = 22, order: int = 41) -> dict:
    """Three users, eta + 1 classes of 12 messages, ``eta`` identifiable (helper
    blocks of (eta - 1) / 3), field order ``order``, L = 1.  In every identifiable
    class user 1 holds all indices but 1, user 2 all but 2 and user 3 only
    {3, 4, 5}; all three hold {1, 2} in the last class.  At the defaults (23
    classes, blocks of 7, q = 41) it passes multi validation, and its helper
    partitions are too many to list."""
    held = [[b for b in range(1, 13) if b != 1], [b for b in range(1, 13) if b != 2], [3, 4, 5]]
    return {
        "classes": [["random"] * 12 for _ in range(eta + 1)],
        "eta": eta,
        "field_order": order,
        "seed": 0,
        "symbols_per_message": 1,
        "users": [{"side_information": [h] * eta + [[1, 2]]} for h in held],
    }

"""Bounded-exhaustive checks that validation says what the plan builders can do.

* Single mode, exact: on every one-user scenario with three classes of one to
  three messages, every side-information set and every eta (8,232 scenarios),
  validation passes iff every demand has a plan.
* Multi mode, sufficient: on seeded two- and three-user samples, every demand
  tuple of a validated scenario has a plan, and a session runs on it.
* Rates: ``comparison_conditions`` never raises on a validated one-user
  scenario.

The single-user builder and ``check_plan`` commute with relabelling the
subclass indices of a class, so a one-user scenario's choice tree is that of
any scenario with the same class sizes, counts and eta, relabelled leaf for
leaf.  So every leaf is walked for the first side-information set of each
such shape, and only the first leaf for the others: a single-mode pick set's
size depends on the step alone, so a demand's first leaf dead-ends iff every
leaf does.  The file runs in about 5 s.
"""

import itertools
import random

from ppir import (
    Scenario,
    SideInformation,
    check_plan,
    comparison_conditions,
    random_store,
    run_session,
    sequential_class_map,
    validate_scenario,
)
from ppir.analytics import SPARSE_SIDE_INFORMATION, _ReplayChooser
from ppir.field import PrimeField
from ppir.queries import DeadEnd, plan_builder

FIELD = PrimeField(7)  # covers every code length of three classes


def subsets(size):
    return [frozenset(c) for r in range(size + 1) for c in itertools.combinations(range(1, size + 1), r)]


def one_user_grid():
    for sizes in itertools.product((1, 2, 3), repeat=3):
        store, class_map = random_store(FIELD, sizes, 1, 0), sequential_class_map(sizes)
        for indices in itertools.product(*map(subsets, sizes)):
            for eta in (1, 2, 3):
                yield Scenario(store, class_map, (SideInformation(eta, indices),), eta)


def leaf_plans(build):
    """The plan of every leaf of the builder's choice tree, None for a dead end, in walk order."""
    prefix: list[int] = []
    while True:
        chooser = _ReplayChooser(prefix)
        try:
            yield build(chooser)
        except DeadEnd:
            yield None
        path, sizes = chooser.path, chooser.sizes
        while path and path[-1] + 1 >= sizes[len(path) - 1]:
            path.pop()
            sizes.pop()
        if not path:
            return
        path[-1] += 1
        prefix = path


def test_one_user_validation_decides_every_demand():
    validated, walked = 0, set()
    for s in one_user_grid():
        ok = validate_scenario(s, "single").ok
        validated += ok
        shape = (s.class_map.sizes, s.users[0].counts, s.identifiable_count)
        full = shape not in walked
        walked.add(shape)
        for v in range(1, s.class_count + 1):
            plans = leaf_plans(plan_builder(s, (v,), "single"))
            plans = plans if full else itertools.islice(plans, 1)
            if ok:
                for plan in plans:
                    assert plan is not None and check_plan(s, (v,), plan, "single").ok, (s, v, plan)
            elif not any(plan is not None for plan in plans):
                break  # demand v has no plan
        else:
            assert ok, s  # every demand has a plan, yet validation refuses
    assert validated == 1408


def multi_sample(rng, users, sizes, held, held_unidentifiable):
    """``users`` users over three or four classes of the given sizes, eta = 1 or
    1 + users; each user holds each index of an identifiable class with
    probability ``held`` and of an unidentifiable class ``held_unidentifiable``."""
    gamma = rng.choice((3, 4))
    sizes = tuple(rng.choice(sizes) for _ in range(gamma))
    eta = rng.choice([e for e in (1, 1 + users) if e < gamma])
    odds = [held] * eta + [held_unidentifiable] * (gamma - eta)
    held_sets = [
        tuple(frozenset(b for b in range(1, m + 1) if rng.random() < p) for m, p in zip(sizes, odds))
        for _ in range(users)
    ]
    sis = tuple(SideInformation(eta, indices) for indices in held_sets)
    return Scenario(random_store(PrimeField(11), sizes, 1, 0), sequential_class_map(sizes), sis, eta)


def test_multi_validation_is_sufficient():
    rng = random.Random(24)
    families = [(2, (2, 3), 0.5, 0.25, 500), (2, (2, 3, 4), 0.5, 0.25, 500), (2, (2, 3, 4), 0.75, 0.25, 300)]
    families.append((3, (3, 4), 0.75, 0.3, 300))  # three users need three queries, so k_max >= 2
    validated = 0
    for users, sizes, held, held_unidentifiable, count in families:
        for _ in range(count):
            s = multi_sample(rng, users, sizes, held, held_unidentifiable)
            if validate_scenario(s, "multi").ok:
                validated += 1
                for demands in itertools.product(range(1, s.class_count + 1), repeat=users):
                    run_session(s, demands, seed=0)  # checks the plan and every user's recovery
    assert validated == 272


def test_comparison_premises_cover_every_validated_one_user_scenario():
    unmet = 0
    for s in one_user_grid():
        if validate_scenario(s, "single").ok:
            flags = comparison_conditions(s.params).flags  # raises on a condition the rates contradict
            unmet += flags[SPARSE_SIDE_INFORMATION].status == "not-applicable"  # else "holds" or "fails"
    assert unmet == 222

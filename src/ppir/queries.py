"""Query-plan generation for the identified-side-information retrieval scheme.

A plan is a batch of k_max + 1 (``params.query_count``) queries, each naming
one subclass index per class.  The combinatorial core of the privacy argument
is non-repetition: across the whole plan no class contributes the same
subclass index twice, whatever the desired class was.

Every "pick one element of this set" step goes through a Chooser, so the same
builder code is driven two ways: seeded uniform draws (``RandomChooser``) for
protocol runs, the census and Monte Carlo audits, and replayed choice prefixes
for the exact distribution oracle's tree walk (``analytics``).  Picks index
pick sets in sorted order, and fresh subclass
indices are found as ranks in that order without building the set; the pick
sequence is fixed (documented on each builder), which makes generation a pure
function of (scenario, demands, seed).

Builders raise an internal dead-end signal when a pick set runs empty; the
public generators then retry the whole plan with fresh draws from the same
stream.  On scenarios that validate, the single-user builder provably never
dead-ends (the designated query is built first) and the collaborative builder
dead-ends only on contrived side-information overlaps, where retrying is
exactly rejection sampling: the result is uniform over the valid realisations.

``plan_builder`` is the one plan entry: it checks the demand tuple (one
demand in single mode, one per user in multi mode, each an existing class)
and the collaborative helper partition, and picks the builder.  The
generators, the distribution oracles and the census all start there.
``check_plan`` checks demands the same way and judges every query from the
bare pairs with one predicate, the collaborative assignment rule: a special
class fresh for the query's owner, the other identifiable classes split into
one block per user, each known to its user.  Single mode is that rule at one
user: an identifiable demand is the special class of some query
(``designated_query``), else the rotation names each query's special class
(``per_query_assignment``, as in multi mode).  Whether a query admits such an
assignment is decided by one bipartite matching of its identifiable classes
to seats (the special seat and each user's block seats), found by augmenting
paths in time polynomial in eta.  Every protocol session runs it on its own
plan.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AssumptionViolated, ExhaustedIndices, OutOfRange
from .scenario import RuleResult, Scenario, ValidationReport, validate_scenario

MAX_PLAN_ATTEMPTS = 1000


class DeadEnd(Exception):
    """A pick set ran empty mid-build; the attempt is abandoned."""


class Chooser:
    """One-of-many selection hook; subclasses decide how the index is picked."""

    def pick(self, options: Sequence):
        if not options:
            raise DeadEnd
        if len(options) == 1:
            return options[0]
        return options[self._pick_index(len(options))]

    def pick_fresh(self, size: int, *excluded) -> int:
        """``pick`` over [1, size] minus the excluded sets, without building that pool:
        the same draw picks the same rank, which steps past each excluded index at or below it."""
        gaps = sorted(set().union(*excluded))
        n = size - len(gaps)
        if n == 0:
            raise DeadEnd
        value = 1 if n == 1 else self._pick_index(n) + 1
        for gap in gaps:
            if gap > value:
                break
            value += 1
        return value

    def _pick_index(self, n: int) -> int:
        raise NotImplementedError


class RandomChooser(Chooser):
    """Uniform picks from a seeded random stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _pick_index(self, n: int) -> int:
        return self.rng.randrange(n)


@dataclass(frozen=True)
class Query:
    """One query: exactly one (class, subclass) pair per class, ascending."""

    index: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class QueryPlan:
    queries: tuple[Query, ...]
    disclosed_known_count: int

    def server_view(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """Everything the server receives: bare pair lists plus the code-dimension hint."""
        return (self.disclosed_known_count, tuple(q.pairs for q in self.queries))


def query_owner(j: int, users: int) -> int:
    """User assigned to query j: j mod users, with multiples mapping to the last user."""
    if j < 1 or users < 1:
        raise OutOfRange(f"need j >= 1 and users >= 1, got j={j}, users={users}")
    rem = j % users
    return rem if rem else users


def plan_from_pairs(queries, disclosed_known_count: int) -> QueryPlan:
    """Wrap raw per-query pair lists (e.g. a published transcript) as a plan."""
    wrapped = tuple(
        Query(j, tuple(sorted((int(c), int(b)) for c, b in pairs)))
        for j, pairs in enumerate(queries, start=1)
    )
    return QueryPlan(wrapped, disclosed_known_count)


def build_single_plan(s: Scenario, desired_class: int, chooser: Chooser) -> QueryPlan:
    """One attempt at a single-user plan; raises DeadEnd on an empty pick set.

    Pick sequence: designated-query position first (identifiable demand only),
    then queries in ascending position (the designated one built first), and
    classes in ascending order inside each query.
    """
    eta = s.identifiable_count
    gamma = s.class_count
    si = s.users[0]
    sizes = s.class_map.sizes
    total = s.params.query_count
    used: list[set] = [set() for _ in range(gamma + 1)]
    chosen: dict[int, list[tuple[int, int]]] = {}

    def draw(i: int, fresh_class: Optional[int]) -> tuple[int, int]:
        # fresh_class avoids the side information and the other identifiable
        # classes take known indices; with no fresh_class every class is fresh.
        if i == fresh_class:
            beta = chooser.pick_fresh(sizes[i - 1], si.known_indices(i), used[i])
        elif i <= eta and fresh_class is not None:
            beta = chooser.pick(sorted(si.known_indices(i) - used[i]))
        else:
            beta = chooser.pick_fresh(sizes[i - 1], used[i])
        used[i].add(beta)
        return (i, beta)

    classes = range(1, gamma + 1)
    if desired_class <= eta:
        r = chooser.pick(range(1, total + 1))
        chosen[r] = [draw(i, desired_class) for i in classes]
        for j in range(1, total + 1):
            if j != r:
                chosen[j] = [draw(i, None) for i in classes]
    else:
        for j in range(1, total + 1):
            chosen[j] = [draw(i, (j - 1) % eta + 1) for i in classes]

    queries = tuple(Query(j, tuple(chosen[j])) for j in range(1, total + 1))
    return QueryPlan(queries, s.params.disclosed_known_count("single"))


def build_multi_plan(s: Scenario, demands, chooser: Chooser) -> QueryPlan:
    """One attempt at a collaborative plan; raises DeadEnd on an empty pick set.

    Pick sequence per query: the special class (when not fixed by a demand),
    its fresh subclass index, then the helper-block partition user by user, the
    helpers' known indices (users ascending, classes ascending inside a block),
    and finally fresh indices for the remaining classes in ascending order.
    """
    eta = s.identifiable_count
    gamma = s.class_count
    users = s.user_count
    sizes = s.class_map.sizes
    budget = s.params.per_user_known_budget
    total = s.params.query_count
    used: list[set] = [set() for _ in range(gamma + 1)]
    queries = []

    for j in range(1, total + 1):
        u = query_owner(j, users)
        si_u = s.users[u - 1]
        beta: dict[int, int] = {}

        if j <= users and demands[j - 1] <= eta:
            v = demands[j - 1]
        else:
            # Arbitrary identifiable stand-in: keep feasibility high by taking
            # the classes with the largest remaining fresh pool for this user.
            pools = {
                c: sizes[c - 1] - len(si_u.known_indices(c) | used[c])
                for c in range(1, eta + 1)
            }
            best = max(pools.values())
            if best == 0:
                raise DeadEnd
            v = chooser.pick(sorted(c for c, size in pools.items() if size == best))

        beta[v] = chooser.pick_fresh(sizes[v - 1], si_u.known_indices(v), used[v])
        used[v].add(beta[v])

        helpers = [c for c in range(1, eta + 1) if c != v]
        remaining = helpers
        blocks = []
        for _ in range(users):
            options = list(itertools.combinations(remaining, budget))
            block = chooser.pick(options)
            blocks.append(block)
            remaining = [c for c in remaining if c not in block]
        for i, block in enumerate(blocks, start=1):
            si_i = s.users[i - 1]
            for t in block:
                pool = sorted(si_i.known_indices(t) - used[t])
                beta[t] = chooser.pick(pool)
                used[t].add(beta[t])
        for t in range(1, gamma + 1):
            if t not in beta:
                beta[t] = chooser.pick_fresh(sizes[t - 1], used[t])
                used[t].add(beta[t])

        queries.append(Query(j, tuple((i, beta[i]) for i in range(1, gamma + 1))))

    return QueryPlan(tuple(queries), s.params.disclosed_known_count("multi"))


def _check_demands(s: Scenario, demands: tuple, mode: str) -> None:
    """One demand per user in multi mode, exactly one in single mode, each an existing class."""
    if mode not in ("single", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    count = 1 if mode == "single" else s.user_count
    if len(demands) != count:
        raise OutOfRange(f"need {count} demands, got {len(demands)}")
    for v in demands:
        if not 1 <= v <= s.class_count:
            raise OutOfRange(f"desired class {v} outside [1, {s.class_count}]")


def plan_builder(s: Scenario, demands: tuple, mode: str):
    """The one-attempt builder for ``demands`` in ``mode``, as a function of a Chooser.

    Raises OutOfRange on a wrong demand count or class, and PartitionInfeasible
    when the collaborative helper classes cannot split evenly across the users.
    """
    _check_demands(s, demands, mode)
    if mode == "single":
        v = demands[0]
        return lambda chooser: build_single_plan(s, v, chooser)
    s.params.require_helpers_split_evenly()
    return lambda chooser: build_multi_plan(s, demands, chooser)


def _retrying(build, chooser: Chooser) -> QueryPlan:
    for _ in range(MAX_PLAN_ATTEMPTS):
        try:
            return build(chooser)
        except DeadEnd:
            continue
    raise ExhaustedIndices(
        f"no valid plan after {MAX_PLAN_ATTEMPTS} attempts; "
        "the scenario is outside the scheme's guarantees"
    )


def generate_single_user_plan(
    s: Scenario,
    desired_class: int,
    *,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    force: bool = False,
) -> QueryPlan:
    """Seeded plan for one user wanting any new message of ``desired_class``."""
    return _generate(s, (desired_class,), "single", seed, rng, force)


def generate_multi_user_plan(
    s: Scenario,
    demands,
    *,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    force: bool = False,
) -> QueryPlan:
    """Seeded collaborative plan for one demand per user."""
    return _generate(s, tuple(demands), "multi", seed, rng, force)


def _generate(s: Scenario, demands: tuple, mode: str, seed, rng, force: bool) -> QueryPlan:
    if rng is None:
        seed = s.seed if seed is None else seed
        if seed < 0:  # random.Random(-s) draws what random.Random(s) draws
            raise ValueError(f"seed must be at least 0, got {seed}")
        rng = random.Random(seed)
    build = plan_builder(s, demands, mode)
    if not force:
        report = validate_scenario(s, mode)
        if not report.ok:
            raise AssumptionViolated(report)
    return _retrying(build, RandomChooser(rng))


@dataclass(frozen=True)
class NonRepetitionResult:
    ok: bool
    witnesses: tuple = ()  # (class, subclass, first query, second query)


def audit_non_repetition(plan: QueryPlan) -> NonRepetitionResult:
    """Pass iff no class contributes the same subclass index twice in the plan."""
    witnesses = []
    by_class: dict[int, dict[int, int]] = defaultdict(dict)
    for q in plan.queries:
        for i, beta in q.pairs:
            if beta in by_class[i]:
                witnesses.append((i, beta, by_class[i][beta], q.index))
            else:
                by_class[i][beta] = q.index
    return NonRepetitionResult(not witnesses, tuple(witnesses))


def _shape_rules(s: Scenario, plan: QueryPlan, mode: str) -> list[RuleResult]:
    gamma = s.class_count
    sizes = s.class_map.sizes
    total = s.params.query_count
    disclosed = s.params.disclosed_known_count(mode)
    rules = [
        RuleResult(
            "plan_length",
            len(plan.queries) == total,
            f"expected {total} queries, got {len(plan.queries)}",
        ),
        RuleResult(
            "disclosed_value",
            plan.disclosed_known_count == disclosed,
            f"expected disclosed count {disclosed}, got {plan.disclosed_known_count}",
        ),
    ]
    bad_shape = []
    for q in plan.queries:
        classes = [c for c, _ in q.pairs]
        if classes != list(range(1, gamma + 1)):
            bad_shape.append((q.index, "classes"))
            continue
        for c, beta in q.pairs:
            if not 1 <= beta <= sizes[c - 1]:
                bad_shape.append((q.index, c))
    rules.append(
        RuleResult(
            "query_shape",
            not bad_shape,
            "one in-range pair per class, ascending",
            tuple(bad_shape),
        )
    )
    repeats = audit_non_repetition(plan)
    rules.append(
        RuleResult("non_repetition", repeats.ok, "no subclass index repeats within a class", repeats.witnesses)
    )
    return rules


def check_plan(s: Scenario, demands: tuple, plan: QueryPlan, mode: str) -> ValidationReport:
    """Structural validity of a plan against the scheme's selection rules.

    Membership is checked structurally (does some admissible realisation of
    the random choices produce these pairs), so published transcripts can be
    verified without knowing the private draws that made them.  Demands are
    checked as ``plan_builder`` checks them.
    """
    _check_demands(s, demands, mode)
    rules = _shape_rules(s, plan, mode)
    # Only plans of the right shape reach the assignment rule, which reads
    # class i's subclass index in a query as q.pairs[i - 1][1].
    if all(r.passed for r in rules):
        rules.append(_assignment_rule(s, demands, plan, mode))
    return ValidationReport(mode, tuple(rules))


def _assignment_rule(s: Scenario, demands: tuple, plan: QueryPlan, mode: str) -> RuleResult:
    """The collaborative assignment rule; at one user it is the single-user rule."""
    eta = s.identifiable_count
    users = 1 if mode == "single" else s.user_count
    block = s.params.disclosed_known_count(mode)
    # known[u - 1][i - 1]: user u's known subclass indices in identifiable class i
    known = [[si.known_indices(i) for i in range(1, eta + 1)] for si in s.users[:users]]
    designated = mode == "single" and demands[0] <= eta
    fits = []
    for q in plan.queries:
        j = q.index
        if mode == "single":
            candidates = demands if designated else ((j - 1) % eta + 1,)
        elif j <= users and demands[j - 1] <= eta:
            candidates = (demands[j - 1],)
        else:
            candidates = range(1, eta + 1)
        fits.append(_seats_filled(q, candidates, query_owner(j, users), known, block))
    if designated:
        witnesses = tuple(q.index for q, fit in zip(plan.queries, fits) if fit)
        return RuleResult(
            "designated_query",
            bool(witnesses),
            "some query pairs a fresh desired-class index with known indices "
            "from every other identifiable class",
            witnesses,
        )
    bad = tuple(q.index for q, fit in zip(plan.queries, fits) if not fit)
    return RuleResult(
        "per_query_assignment",
        not bad,
        "each query admits a special class (fresh for its owner) and a helper "
        "partition whose blocks are known to their users",
        bad,
    )


def _seats_filled(q: Query, candidates, owner: int, known: list, block: int) -> bool:
    """Whether every identifiable class takes one seat in a bipartite matching,
    found by augmenting paths (Kuhn's algorithm): seat 0, the special class, takes
    one candidate whose index in q is fresh for the owner, and seat u takes
    ``block`` classes whose index user u of ``known`` knows."""
    eta = len(known[0])
    if eta != 1 + len(known) * block:
        return False
    seats = []  # seats[c]: the seats open to class c + 1
    for c, (_, beta) in enumerate(q.pairs[:eta]):
        open_to_c = [u for u, row in enumerate(known, start=1) if beta in row[c]]
        if c + 1 in candidates and beta not in known[owner - 1][c]:
            open_to_c.insert(0, 0)
        seats.append(open_to_c)
    free = [1] + [block] * len(known)
    holders: list[list] = [[] for _ in free]
    return all(_augment(c, seats, free, holders, set()) for c in range(eta))


def _augment(c: int, seats: list, free: list, holders: list, visited: set) -> bool:
    """Seat class c + 1 in a free seat, or in a seat one of whose holders moves on.
    Each seat is visited once, so the recursion is at most one level per seat."""
    for t in seats[c]:
        if t not in visited:
            visited.add(t)
            if free[t]:
                free[t] -= 1
                holders[t].append(c)
                return True
            for k, d in enumerate(holders[t]):
                if _augment(d, seats, free, holders, visited):
                    holders[t][k] = c
                    return True
    return False

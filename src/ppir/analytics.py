"""Closed-form rates, advantage predicates, and privacy audits.

All rates are exact rationals and every ceiling an integer one; no floating
point enters any formula.  The formulas read :class:`RateParams`, defined in
:mod:`ppir.scenario` and re-exported here.  The distribution oracle enumerates
every random choice the plan builders can make, with uniform weight per choice
node, and reports the exact probability of each server-visible plan
projection.  Dead-end paths (empty pick sets) carry their weight into a
rejected mass and the surviving projections are renormalised, which is exactly
the distribution of the retrying generators.

In single mode the oracle refuses an oversized tree after its first leaf.
Every pick set's size there is fixed by the step alone: a fresh pick excludes
the side information plus the class's earlier fresh picks (all outside it), a
known pick excludes the class's earlier known picks, and an unidentifiable
class excludes its earlier picks.  So every path records the same sizes and
the tree has exactly their product of leaves, which decides the limit as a
full walk would.  In multi mode the stand-in class ties, the helpers' known
pools and the dead ends depend on earlier picks, so the walk counts leaves.

Indistinguishability across demands is reported as total-variation distance,
exact in integers.  One routine serves a whole report: each distribution is
scaled once to integers over its own lcm, every server view is indexed to
the distributions whose support holds it, and a pair's shared mass sums
min(x, y) over only the views it shares; TV is then (mass_a + mass_b -
2 shared) / 2 over the pair's lcm, so pairs sharing no view cost their masses
alone.  It is diagnostic output only: the scheme's privacy argument is the
non-repetition invariant, which the census here checks directly.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional

from .errors import ConditionsInconsistent, ExhaustedIndices, TooLargeToEnumerate
from .queries import (
    Chooser,
    DeadEnd,
    RandomChooser,
    _retrying,
    audit_non_repetition,
    plan_builder,
)
from .scenario import RateParams, Scenario

ENUMERATION_LIMIT = 1_000_000


def rate_isi(p: RateParams) -> Fraction:
    """Achieved rate of the identified-side-information scheme (one user)."""
    kun = p.max_unidentified_count
    return Fraction(1, (kun + 1) * (p.class_count - p.identifiable_count + 1))


def rate_usi(p: RateParams) -> Fraction:
    """Capacity of the all-unidentifiable baseline, from the first user's counts."""
    counts = p.si_counts[0]
    total = sum(
        min(k + 1, mu - k) for k, mu in zip(counts, p.class_sizes)
    )
    return Fraction(1, total)


def rate_multi(p: RateParams) -> Fraction:
    """Achieved rate of the collaborative scheme (reduces to rate_isi at one user);
    raises PartitionInfeasible when no plan exists because the helpers split unevenly."""
    p.require_helpers_split_evenly()
    kun = p.max_unidentified_count
    return Fraction(1, (kun + 1) * (p.class_count - p.per_user_known_budget))


def rate_naive_multi(p: RateParams) -> Fraction:
    """Rate of serving each user with an independent single-user run."""
    return rate_isi(p) / p.user_count


@dataclass(frozen=True)
class ConditionFlag:
    status: str  # "holds" | "fails" | "not-applicable"
    witnesses: tuple = ()


@dataclass(frozen=True)
class ComparisonReport:
    rate_isi: Fraction
    rate_usi: Fraction
    flags: dict


# The three analytic conditions under which identifiability provably beats the
# all-unidentifiable baseline.
SPARSE_SIDE_INFORMATION = "sparse_side_information"
UNIFORM_DENSE_SIDE_INFORMATION = "uniform_dense_side_information"
SINGLE_IDENTIFIABLE_CLASS = "single_identifiable_class"


def comparison_conditions(p: RateParams) -> ComparisonReport:
    """Evaluate the advantage conditions exactly; meaningful for one-user params
    that satisfy the scheme's own assumptions.  Raises ConditionsInconsistent
    when a condition holds but the rates contradict it, which only params
    outside those assumptions can do."""
    eta = p.identifiable_count
    gamma = p.class_count
    counts = p.si_counts[0]
    sizes = p.class_sizes
    kun = p.max_unidentified_count
    flags = {}

    sparse_bad = tuple(
        i + 1 for i in range(gamma) if counts[i] + 1 > sizes[i] - counts[i]
    )
    flat_bad = tuple(i + 1 for i in range(eta, gamma) if counts[i] != kun)
    flags[SPARSE_SIDE_INFORMATION] = ConditionFlag(
        "holds" if not sparse_bad and not flat_bad else "fails",
        sparse_bad + flat_bad,
    )

    dense_bad = tuple(
        i + 1 for i in range(gamma) if counts[i] + 1 < sizes[i] - counts[i]
    )
    id_counts = set(counts[:eta])
    un_counts = set(counts[eta:])
    uniform_shape = (
        len(id_counts) == 1 and len(un_counts) <= 1 and len(set(sizes)) == 1
    )
    if not uniform_shape:
        flags[UNIFORM_DENSE_SIDE_INFORMATION] = ConditionFlag("not-applicable")
    else:
        spread = (gamma - eta + 1) * (kun + 1)
        threshold = counts[0] - (-spread // gamma)
        ok = not dense_bad and sizes[0] >= threshold
        flags[UNIFORM_DENSE_SIDE_INFORMATION] = ConditionFlag(
            "holds" if ok else "fails", dense_bad
        )

    ok = eta == 1 and not dense_bad
    flags[SINGLE_IDENTIFIABLE_CLASS] = ConditionFlag(
        "holds" if ok else "fails",
        dense_bad if eta == 1 else ("identifiable_count", eta),
    )

    r_isi, r_usi = rate_isi(p), rate_usi(p)
    for name, flag in flags.items():
        if flag.status == "holds" and r_isi < r_usi:
            raise ConditionsInconsistent(f"{name} holds but the rate inequality fails: {r_isi} < {r_usi}")
    return ComparisonReport(r_isi, r_usi, flags)


class _ReplayChooser(Chooser):
    """Replays a recorded choice prefix, then takes first options; logs the tree shape."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.path: list[int] = []
        self.sizes: list[int] = []

    def _pick_index(self, n: int) -> int:
        depth = len(self.path)
        idx = self.prefix[depth] if depth < len(self.prefix) else 0
        self.path.append(idx)
        self.sizes.append(n)
        return idx


def query_distribution(
    s: Scenario, demands: tuple, mode: str = "single", *, limit: int = ENUMERATION_LIMIT
) -> dict:
    """Exact probability of every server-visible plan projection.

    Walks every branch of the builders' choice tree with uniform weight per
    pick; this is the brute-force oracle the Monte Carlo estimator is checked
    against.  Raises TooLargeToEnumerate past ``limit`` leaves; in single mode
    that is known from the first leaf (see the module docstring).  Raises
    ExhaustedIndices when every path dead-ends, as the retrying generators do.
    """
    build = plan_builder(s, demands, mode)
    results: dict = defaultdict(Fraction)
    dead = Fraction(0)
    prefix: list[int] = []
    leaves = 0
    while True:
        leaves += 1
        if leaves > limit:
            raise TooLargeToEnumerate(f"more than {limit} choice paths")
        chooser = _ReplayChooser(prefix)
        try:
            plan = build(chooser)
        except DeadEnd:
            plan = None
        paths = prod(chooser.sizes)
        if mode == "single" and paths > limit:
            raise TooLargeToEnumerate(f"more than {limit} choice paths")
        prob = Fraction(1, paths)
        if plan is None:
            dead += prob
        else:
            results[plan.server_view()] += prob
        path, sizes = chooser.path, chooser.sizes
        while path and path[-1] + 1 >= sizes[len(path) - 1]:
            path.pop()
            sizes.pop()
        if not path:
            break
        path[-1] += 1
        prefix = path
    if not results:
        raise ExhaustedIndices(f"every choice path dead-ends: no plan exists for demands {demands}")
    if dead:
        kept = 1 - dead
        return {k: v / kept for k, v in results.items()}
    return dict(results)


def sample_query_distribution(
    s: Scenario, demands: tuple, mode: str = "single", *, samples: int, seed: int = 0
) -> dict:
    """Empirical projection distribution from running the actual generator."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:  # random.Random(-s) draws what random.Random(s) draws
        raise ValueError(f"seed must be at least 0, got {seed}")
    build = plan_builder(s, demands, mode)
    chooser = RandomChooser(random.Random(seed))
    counts: Counter = Counter()
    for _ in range(samples):
        counts[_retrying(build, chooser).server_view()] += 1
    return {k: Fraction(v, samples) for k, v in counts.items()}


def _pairwise_tv(dists) -> list:
    """Total-variation distance of every pair of ``dists``, in
    ``itertools.combinations`` order (method in the module docstring); exact
    for any non-negative weights, including distributions that do not sum to 1
    and empty ones.  A pair's sums are kept over L_a L_b, which the one
    Fraction built per pair reduces to their lcm.
    """
    scales, masses = [], []
    holders: dict = defaultdict(list)
    for i, dist in enumerate(dists):
        scale = lcm(*(p.denominator for p in dist.values()))
        mass = 0
        for view, p in dist.items():
            x = p.numerator * (scale // p.denominator)
            holders[view].append((i, x))
            mass += x
        scales.append(scale)
        masses.append(mass)
    shared: dict = defaultdict(int)
    for held in holders.values():
        for (a, x), (b, y) in itertools.combinations(held, 2):
            shared[a, b] += min(x * scales[b], y * scales[a])
    return [
        Fraction(
            masses[a] * scales[b] + masses[b] * scales[a] - 2 * shared.get((a, b), 0),
            2 * scales[a] * scales[b],
        )
        for a, b in itertools.combinations(range(len(dists)), 2)
    ]


def tv_distance(a: dict, b: dict) -> Fraction:
    """Total-variation distance between two projection distributions."""
    return _pairwise_tv((a, b))[0]


@dataclass(frozen=True)
class DistributionAudit:
    method: str  # "enumeration" | "monte-carlo"
    samples: Optional[int]
    pairs: tuple  # ((demands_a, demands_b, tv), ...)


@dataclass(frozen=True)
class PrivacyReport:
    mode: str
    runs: int
    demand_choices: tuple
    checks: int
    failures: int
    pass_rate: Fraction
    witnesses: tuple
    distribution: DistributionAudit


def _demand_space(s: Scenario, mode: str):
    if mode == "single":
        return tuple((v,) for v in range(1, s.class_count + 1))
    return tuple(itertools.product(range(1, s.class_count + 1), repeat=s.user_count))


def privacy_report(
    s: Scenario,
    mode: str = "single",
    runs: int = 1000,
    *,
    base_seed: int = 0,
    enum_limit: int = ENUMERATION_LIMIT,
    mc_samples: int = 2000,
) -> PrivacyReport:
    """Non-repetition census over seeded runs of every demand choice, plus a
    distribution audit (exact when enumerable, Monte Carlo otherwise).

    Raises ValueError for ``runs < 0`` or ``mc_samples < 1``: an audit with no
    sample could not tell demands apart, yet would report TV 0 on every pair.
    Raises ValueError for ``base_seed < 0`` too: ``random.Random(-s)`` draws
    what ``random.Random(s)`` draws, so the census would check fewer distinct
    plans than it reports.
    """
    if runs < 0:
        raise ValueError(f"runs must be at least 0, got {runs}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be at least 0, got {base_seed}")
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be at least 1, got {mc_samples}")
    demand_space = _demand_space(s, mode)
    checks = 0
    failures = 0
    witnesses = []
    for d_idx, demands in enumerate(demand_space):
        build = plan_builder(s, demands, mode)
        for t in range(runs):
            chooser = RandomChooser(random.Random(base_seed + 1_000_003 * d_idx + t))
            plan = _retrying(build, chooser)
            checks += 1
            result = audit_non_repetition(plan)
            if not result.ok:
                failures += 1
                if len(witnesses) < 10:
                    witnesses.append((demands, t, result.witnesses))
    pass_rate = Fraction(checks - failures, checks) if checks else Fraction(1)

    try:
        dists = {
            d: query_distribution(s, d, mode, limit=enum_limit)
            for d in demand_space
        }
        method, samples = "enumeration", None
    except TooLargeToEnumerate:
        dists = {
            d: sample_query_distribution(
                s,
                d,
                mode,
                samples=mc_samples,
                seed=base_seed + 7_919 * i,
            )
            for i, d in enumerate(demand_space)
        }
        method, samples = "monte-carlo", mc_samples
    tvs = _pairwise_tv([dists[d] for d in demand_space])
    pairs = tuple(
        (a, b, tv) for (a, b), tv in zip(itertools.combinations(demand_space, 2), tvs)
    )

    return PrivacyReport(
        mode=mode,
        runs=runs,
        demand_choices=demand_space,
        checks=checks,
        failures=failures,
        pass_rate=pass_rate,
        witnesses=tuple(witnesses),
        distribution=DistributionAudit(method, samples, pairs),
    )

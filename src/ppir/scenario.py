"""Database and user model: messages, class partition, side information, scheme numbers, validation.

Conventions used throughout the package:

* all indices are 1-based: global message index f in [1, F], class index
  i in [1, class_count], subclass index in [1, size of class i];
* classes hold consecutive global indices in listing order (class 1 first),
  so a class map is given by its class sizes alone;
* a message's subclass index is its position in its class, and server and
  users share that order;
* the first ``identifiable_count`` classes are the identifiable ones: users
  know the exact subclass indices of their side information there.  For the
  remaining classes users know only how many messages they hold; the exact
  indices are stored as simulator ground truth and are reachable only through
  :meth:`SideInformation.oracle_indices`.

Every number derived from these integers (k_max, the helper budget, the
disclosed hint d, the code length) is defined once, on :class:`RateParams`;
a scenario carries its own as ``Scenario.params``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

from .errors import MalformedScenario, OutOfRange, PartitionInfeasible, UnidentifiableAccess
from .field import PrimeField


@dataclass(frozen=True)
class MessageStore:
    """All messages held by the server: message_count rows of symbols_per_message field symbols."""

    field: PrimeField
    messages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = list(self.messages)
        if len(rows) < 2:
            raise MalformedScenario("need at least 2 messages")
        length = len(rows[0])
        if length < 1:
            raise MalformedScenario("messages need at least 1 symbol")
        q = self.field.order
        for f, row in enumerate(rows, start=1):
            if len(row) != length:
                raise MalformedScenario(f"message {f} has {len(row)} symbols, expected {length}")
            for v in row:
                if type(v) is not int or not 0 <= v < q:
                    raise MalformedScenario(f"message {f} symbol {v!r} outside [0, {q})")
            if type(row) is not tuple:  # decoded rows are tuples and must compare equal
                rows[f - 1] = tuple(row)
        object.__setattr__(self, "messages", tuple(rows))

    @property
    def message_count(self) -> int:
        return len(self.messages)

    @property
    def symbols_per_message(self) -> int:
        return len(self.messages[0])

    def symbols(self, f: int) -> tuple[int, ...]:
        if not 1 <= f <= self.message_count:
            raise OutOfRange(f"message index {f} outside [1, {self.message_count}]")
        return self.messages[f - 1]


@dataclass(frozen=True)
class ClassMap:
    """Partition of the global message indices [1, F] into classes of consecutive indices.

    Class i holds the ``sizes[i - 1]`` indices that follow those of classes
    1..i-1, so subclass index beta of class i is global index start + beta.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.sizes)
        if len(sizes) < 2:
            raise MalformedScenario("need at least 2 classes")
        for i, size in enumerate(sizes, start=1):
            if type(size) is not int or size < 1:
                raise MalformedScenario(f"class {i} must hold at least one message, got size {size!r}")
        object.__setattr__(self, "sizes", sizes)

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        """Global indices before each class, then F."""
        return tuple(accumulate(self.sizes, initial=0))

    @property
    def class_count(self) -> int:
        return len(self.sizes)

    @property
    def total_messages(self) -> int:
        return self._starts[-1]

    def size(self, i: int) -> int:
        self._check_class(i)
        return self.sizes[i - 1]

    def pair_to_global(self, i: int, beta: int) -> int:
        size = self.size(i)
        if not 1 <= beta <= size:
            raise OutOfRange(f"subclass {beta} outside [1, {size}] for class {i}")
        return self._starts[i - 1] + beta

    def _check_class(self, i: int) -> None:
        if not 1 <= i <= len(self.sizes):
            raise OutOfRange(f"class {i} outside [1, {len(self.sizes)}]")


@dataclass(frozen=True)
class SideInformation:
    """One user's side information as per-class subclass index sets.

    ``indices`` is simulator ground truth for every class.  User-facing code
    must go through :meth:`known_indices`, which refuses unidentifiable
    classes, or :meth:`count`, which is always allowed.
    """

    identifiable_count: int
    indices: tuple[frozenset, ...]

    @property
    def class_count(self) -> int:
        return len(self.indices)

    def count(self, i: int) -> int:
        self._check_class(i)
        return len(self.indices[i - 1])

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.indices)

    def known_indices(self, i: int) -> frozenset:
        """Subclass indices the user itself can see; identifiable classes only."""
        self._check_class(i)
        if i > self.identifiable_count:
            raise UnidentifiableAccess(f"class {i} is unidentifiable; only its count is exposed")
        return self.indices[i - 1]

    def oracle_indices(self, i: int) -> frozenset:
        """Ground-truth indices for any class; simulator and audit use only."""
        self._check_class(i)
        return self.indices[i - 1]

    def _check_class(self, i: int) -> None:
        if not 1 <= i <= len(self.indices):
            raise OutOfRange(f"class {i} outside [1, {len(self.indices)}]")


@dataclass(frozen=True)
class RateParams:
    """The integers that fix a scheme run, per user, and the one definition of
    every number derived from them; the rate formulas read these too."""

    class_count: int
    identifiable_count: int
    class_sizes: tuple[int, ...]
    si_counts: tuple[tuple[int, ...], ...]

    @classmethod
    def from_scenario(cls, s: "Scenario") -> "RateParams":
        return cls(s.class_count, s.identifiable_count, s.class_map.sizes, tuple(si.counts for si in s.users))

    @property
    def user_count(self) -> int:
        return len(self.si_counts)

    @cached_property
    def max_unidentified_count(self) -> int:
        """k_max: the largest count over unidentifiable classes and all users (0 if none)."""
        eta = self.identifiable_count
        return max((c for counts in self.si_counts for c in counts[eta:]), default=0)

    @property
    def query_count(self) -> int:
        return self.max_unidentified_count + 1

    @property
    def per_user_known_budget(self) -> int:
        """Known pairs each user contributes per query in the collaborative scheme."""
        return -(-(self.identifiable_count - 1) // self.user_count)

    @property
    def helpers_split_evenly(self) -> bool:
        """True iff the identifiable_count - 1 helper classes of a collaborative
        query split into one equal block per user."""
        return (self.identifiable_count - 1) % self.user_count == 0

    def require_helpers_split_evenly(self) -> None:
        """Raise PartitionInfeasible unless the helpers split evenly: no collaborative plan exists then."""
        if not self.helpers_split_evenly:
            raise PartitionInfeasible(
                f"{self.identifiable_count - 1} helper classes cannot be split evenly "
                f"across {self.user_count} users"
            )

    def disclosed_known_count(self, mode: str) -> int:
        """The single integer sent to the server: it fixes the code dimension only."""
        if mode == "single":
            return self.identifiable_count - 1
        if mode == "multi":
            return self.per_user_known_budget
        raise ValueError(f"unknown mode {mode!r}")

    def code_length(self, mode: str) -> int:
        return 2 * self.class_count - self.disclosed_known_count(mode)

    def single_user(self, u: int) -> "RateParams":
        return replace(self, si_counts=(self.si_counts[u - 1],))


@dataclass(frozen=True)
class Scenario:
    """Complete problem instance: store, partition, per-user side information."""

    store: MessageStore
    class_map: ClassMap
    users: tuple[SideInformation, ...]
    identifiable_count: int
    seed: int = 0

    def __post_init__(self):
        cm = self.class_map
        if cm.total_messages != self.store.message_count:
            raise MalformedScenario(
                f"class map covers {cm.total_messages} messages, store has {self.store.message_count}"
            )
        if not 1 <= self.identifiable_count <= cm.class_count:
            raise MalformedScenario(
                f"identifiable count {self.identifiable_count} outside [1, {cm.class_count}]"
            )
        if not self.users:
            raise MalformedScenario("need at least one user")
        for u, si in enumerate(self.users, start=1):
            if si.class_count != cm.class_count:
                raise MalformedScenario(f"user {u} covers {si.class_count} classes, expected {cm.class_count}")
            if si.identifiable_count != self.identifiable_count:
                raise MalformedScenario(f"user {u} disagrees on the identifiable-class count")
            for i in range(1, cm.class_count + 1):
                bad = [b for b in si.oracle_indices(i) if type(b) is not int or not 1 <= b <= cm.size(i)]
                if bad:
                    raise MalformedScenario(f"user {u} class {i}: subclass indices {bad} not in [1, {cm.size(i)}]")

    @property
    def class_count(self) -> int:
        return self.class_map.class_count

    @property
    def user_count(self) -> int:
        return len(self.users)

    @cached_property
    def params(self) -> RateParams:
        # Plan builders read the query count on every attempt; the scenario is immutable.
        return RateParams.from_scenario(self)


@dataclass(frozen=True)
class RuleResult:
    name: str
    passed: bool
    detail: str = ""
    witnesses: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    rules: tuple[RuleResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rules)

    def failed(self) -> tuple[RuleResult, ...]:
        return tuple(r for r in self.rules if not r.passed)


def validate_scenario(s: Scenario, mode: str) -> ValidationReport:
    """Check every assumption the protocol's guarantees rest on; pure function.

    Failures are report entries, never exceptions.  The identifiable-depth
    check is non-strict (count >= max unidentified count, and >= 1): with the
    designated query built first that is sufficient for the generator, and the
    worked scenarios in the bundled fixtures sit exactly on this boundary.
    """
    if mode not in ("single", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    rules = []
    eta = s.identifiable_count
    gamma = s.class_count
    kun = s.params.max_unidentified_count
    sizes = s.class_map.sizes

    if mode == "single":
        rules.append(
            RuleResult(
                "single_user_count",
                s.user_count == 1,
                f"single mode needs exactly 1 user, scenario has {s.user_count}",
            )
        )
        users = s.users[:1]
        headroom_name = "class_headroom"
        headroom_need = -(-(kun + 1) // eta)
        headroom_classes = gamma
    else:
        rules.append(
            RuleResult(
                "helper_partition",
                s.params.helpers_split_evenly,
                f"{eta - 1} helper classes must split evenly across {s.user_count} users",
            )
        )
        users = s.users
        rules.append(
            RuleResult(
                "query_budget",
                kun + 1 >= s.user_count,
                f"plan has {kun + 1} queries for {s.user_count} users",
            )
        )
        headroom_name = "identifiable_headroom"
        headroom_need = -(-(kun + 1) // s.user_count)
        headroom_classes = eta

    # Collaborative helper blocks may hit the same user-class pair in every
    # query, so the multi-user depth bound is strict.  The single-user scheme
    # draws known indices from class i only in the queries the fresh-index
    # rotation does not assign to it, so classes the rotation reaches get a
    # non-strict bound; classes it never reaches (more identifiable classes
    # than queries) still need the strict one.
    def depth_floor(i: int) -> int:
        if mode == "multi":
            return kun + 1
        reached = kun + 1 >= eta or i <= kun + 1
        return max(kun, 1) if reached else kun + 1

    bad = [
        (u, i)
        for u, si in enumerate(users, start=1)
        for i in range(1, eta + 1)
        if si.count(i) < depth_floor(i)
    ]
    rules.append(
        RuleResult(
            "identifiable_depth",
            not bad,
            "identifiable classes need side information at least as deep as the "
            "largest unidentifiable count (strictly deeper when out of the rotation "
            "or in multi mode)",
            tuple(bad),
        )
    )

    bad = [
        (u, i)
        for u, si in enumerate(users, start=1)
        for i in range(1, headroom_classes + 1)
        if sizes[i - 1] - si.count(i) < headroom_need
    ]
    rules.append(
        RuleResult(
            headroom_name,
            not bad,
            f"each listed class needs at least {headroom_need} messages outside the side information",
            tuple(bad),
        )
    )

    small = tuple(i for i in range(1, gamma + 1) if sizes[i - 1] < kun + 1)
    rules.append(
        RuleResult(
            "subclass_pool",
            not small,
            f"every class needs at least {kun + 1} messages so no subclass index repeats",
            small,
        )
    )

    need_q = s.params.code_length(mode)
    rules.append(
        RuleResult(
            "field_supports_code",
            s.store.field.order >= need_q,
            f"code length {need_q} needs field order >= {need_q}, have {s.store.field.order}",
        )
    )
    return ValidationReport(mode, tuple(rules))


def random_symbol(seed: int, message_index: int, symbol_index: int, order: int) -> int:
    """Deterministic pseudo-random symbol for 'random' message descriptors.

    Defined as the first 8 bytes of BLAKE2b("<seed>/<message>/<symbol>")
    reduced mod the field order, so stores rebuild identically everywhere.
    """
    digest = hashlib.blake2b(
        f"{seed}/{message_index}/{symbol_index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % order


def random_store(field: PrimeField, class_sizes, symbols_per_message: int, seed: int) -> MessageStore:
    """Store with every symbol drawn by random_symbol; classes are filled in listing order."""
    total = sum(class_sizes)
    rows = tuple(
        tuple(random_symbol(seed, f, ell, field.order) for ell in range(1, symbols_per_message + 1))
        for f in range(1, total + 1)
    )
    return MessageStore(field, rows)


def sequential_class_map(class_sizes) -> ClassMap:
    """Class map whose global indices run 1..F in listing order."""
    return ClassMap(class_sizes)

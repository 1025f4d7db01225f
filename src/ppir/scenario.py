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
disclosed hint d, the code length) and the users a mode serves (``for_mode``)
are defined once, on :class:`RateParams`; a scenario carries its own as
``Scenario.params``.
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
    """All messages held by the server: message_count rows of symbols_per_message field symbols.

    ``messages`` holds one row per message.  A ``None`` row is a "random"
    message: :meth:`symbols` makes it with :func:`random_row` from ``seed`` the
    first time it is read, and keeps it.  A store with such rows needs
    ``symbols_per_message``; otherwise row 0 gives the length.  Every explicit
    row is checked symbol by symbol here, when the store is built.
    """

    field: PrimeField
    messages: tuple[tuple[int, ...] | None, ...]
    symbols_per_message: int | None = None
    seed: int = 0

    def __post_init__(self):
        rows = list(self.messages)
        if len(rows) < 2:
            raise MalformedScenario("need at least 2 messages")
        length = len(rows[0]) if self.symbols_per_message is None else self.symbols_per_message
        if length < 1:
            raise MalformedScenario("messages need at least 1 symbol")
        q = self.field.order
        for f, row in enumerate(rows, start=1):
            if row is None:
                continue
            if len(row) != length:
                raise MalformedScenario(f"message {f} has {len(row)} symbols, expected {length}")
            for v in row:
                if type(v) is not int or not 0 <= v < q:
                    raise MalformedScenario(f"message {f} symbol {v!r} outside [0, {q})")
            if type(row) is not tuple:  # decoded rows are tuples and must compare equal
                rows[f - 1] = tuple(row)
        object.__setattr__(self, "messages", tuple(rows))
        object.__setattr__(self, "symbols_per_message", length)
        object.__setattr__(self, "_made", {})

    @property
    def message_count(self) -> int:
        return len(self.messages)

    def symbols(self, f: int) -> tuple[int, ...]:
        if not 1 <= f <= self.message_count:
            raise OutOfRange(f"message index {f} outside [1, {self.message_count}]")
        row = self.messages[f - 1]
        if row is None:
            row = self._made.get(f)
            if row is None:
                row = self._made[f] = random_row(self.seed, f, self.symbols_per_message, self.field.order)
        return row


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
    every number derived from them; the rate formulas read these too.  A run
    in ``mode`` and its rate read those of ``for_mode(mode)``, its served users
    alone, so ``for_mode`` is the one method that takes a mode."""

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
        """Known pairs each user contributes per query, sent to the server as the
        disclosed hint d: eta - 1 at one user."""
        return -(-(self.identifiable_count - 1) // self.user_count)

    @property
    def code_length(self) -> int:
        """n of the [n, class_count] MDS code: 2 class_count - d."""
        return 2 * self.class_count - self.per_user_known_budget

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

    def for_mode(self, mode: str) -> "RateParams":
        """The params of the users ``mode`` serves: all in multi mode, the first alone in single mode."""
        if mode not in ("single", "multi"):
            raise ValueError(f"unknown mode {mode!r}")
        return self if mode == "multi" or self.user_count == 1 else self.single_user(1)

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
    """Check that the mode's plan builder can serve every demand; pure function.

    Failures are report entries, never exceptions.  One rule list judges the
    users ``params.for_mode(mode)`` serves (the first alone in single mode).
    With T their query count and share(x, m) = #{j <= T : query_owner(j, m) = x}:

    * ``identifiable_depth``: each user holds enough of identifiable class i
      for its known picks: in multi mode T when eta >= 2 (a user may help with
      class i in every query); in single mode 1 when eta >= 2 (the designated
      query) and T - share(i, eta) when some demand is unidentifiable (the
      rotation takes class i fresh in share(i, eta) queries).
    * ``identifiable_headroom``: one matching seats every user's fresh picks of
      class i on distinct indices that user does not hold: share(u, U) for
      user u in multi mode (any query may make class i special), and
      max(1, share(i, eta)) in single mode.
    * ``subclass_pool``: T indices per class; ``helper_partition``: one block
      per user; ``query_budget``: a query per demand; ``field_supports_code``.

    Single mode is exact: it passes iff the single-user builder finds a plan
    for every demand, and as its pick-set sizes depend on the step alone it
    then never dead-ends.  Multi mode is sufficient: it holds whatever
    stand-ins and helper blocks are drawn, so every demand tuple has a plan,
    but a refused scenario may still run.  The paper's premises for the rate
    comparison are ``analytics.comparison_conditions``'s to check.
    """
    p = s.params.for_mode(mode)
    single = mode == "single"
    n, eta, sizes, total = p.user_count, s.identifiable_count, s.class_map.sizes, p.query_count
    rotation = single and s.class_count > eta

    def share(x: int, m: int) -> int:
        return (total - x) // m + 1 if x <= total else 0

    any_special = [share(u, n) for u in range(1, n + 1)]  # multi: any query may make class i special

    def needs(i: int) -> tuple:
        """For class i: the known picks the builder can ask of a user, and each user's fresh picks."""
        if not single:
            return (total if eta >= 2 else 0), any_special
        fresh = share(i, eta) if rotation else 0
        return max(eta >= 2, total - fresh if rotation else 0), [max(1, fresh)]

    shallow, crowded = [], []
    for i in range(1, eta + 1):
        depth, seats = needs(i)
        held = [si.indices[i - 1] for si in s.users[:n]]  # identifiable, so the users know these
        shallow += [(u, i) for u, k in enumerate(held, start=1) if len(k) < depth]
        if not _fresh_seats(sizes[i - 1], held, seats):
            crowded.append(i)
    shallow, crowded = tuple(shallow), tuple(crowded)
    bound = "exact for the single-user builder" if single else "sufficient for every helper assignment"
    small = tuple(i for i, size in enumerate(sizes, start=1) if size < total)
    q, need_q = s.store.field.order, p.code_length
    one_user = f"single mode needs exactly 1 user, scenario has {s.user_count}"
    rules = [("single_user_count", s.user_count == 1, one_user)] if single else []
    rules += [
        ("helper_partition", p.helpers_split_evenly,
         f"{eta - 1} helper classes must split evenly across {n} users"),
        ("query_budget", total >= n, f"plan has {total} queries for {n} users"),
        ("identifiable_depth", not shallow,
         f"side information must cover each user's known picks ({bound})", shallow),
        ("identifiable_headroom", not crowded,
         f"fresh picks need indices outside side information ({bound})", crowded),
        ("subclass_pool", not small,
         f"every class needs at least {total} messages so no subclass index repeats", small),
        ("field_supports_code", q >= need_q, f"code length {need_q} needs field order >= {need_q}, have {q}"),
    ]
    return ValidationReport(mode, tuple(RuleResult(*rule) for rule in rules))


def _fresh_seats(size: int, known: list, needs: list) -> bool:
    """Whether user u can take needs[u] indices of [1, size] outside known[u], no
    index taken twice.  An index no user holds fits every user, so only the held
    ones are matched (by ``_augment``) and the rest fill whatever seats remain."""
    if size - sum(map(len, known)) >= sum(needs):  # enough even if no two users share an index
        return True
    held = set().union(*known)
    short = sum(needs) - (size - len(held))  # seats the unheld indices cannot fill
    seats: list[list] = []  # seats[c]: the users the c-th matched index fits
    free, holders = list(needs), [[] for _ in needs]
    for b in held:
        if short <= 0:
            break
        seats.append([u for u, k in enumerate(known) if b not in k])
        short -= _augment(len(seats) - 1, seats, free, holders, set())
    return short <= 0


def _augment(c: int, seats: list, free: list, holders: list, visited: set) -> bool:
    """Seat item c in a seat of ``seats[c]`` with room left (``free``), or in a full
    one whose holder moves on to another seat: one augmenting path of a capacitated
    bipartite matching (Kuhn's algorithm).  Each seat is visited once, so the
    recursion is at most one level per seat."""
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


def random_symbol(seed: int, message_index: int, symbol_index: int, order: int) -> int:
    """Deterministic pseudo-random symbol for 'random' message descriptors.

    Defined as the first 8 bytes of BLAKE2b("<seed>/<message>/<symbol>")
    reduced mod the field order, so stores rebuild identically everywhere.
    """
    digest = hashlib.blake2b(
        f"{seed}/{message_index}/{symbol_index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % order


def random_row(seed: int, message_index: int, symbols_per_message: int, order: int) -> tuple[int, ...]:
    """Message ``message_index`` of a "random" store: its symbols 1..L by random_symbol."""
    return tuple(random_symbol(seed, message_index, ell, order) for ell in range(1, symbols_per_message + 1))


def random_store(field: PrimeField, class_sizes, symbols_per_message: int, seed: int) -> MessageStore:
    """Store with every row made by random_row; classes are filled in listing order."""
    rows = tuple(random_row(seed, f, symbols_per_message, field.order) for f in range(1, sum(class_sizes) + 1))
    return MessageStore(field, rows)


def sequential_class_map(class_sizes) -> ClassMap:
    """Class map whose global indices run 1..F in listing order."""
    return ClassMap(class_sizes)

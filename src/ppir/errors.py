"""Exception hierarchy for the ppir package."""


class PpirError(Exception):
    """Base class for every error raised by this package."""


# --- prime field ---

class NonPrimeOrder(PpirError):
    """Requested field order is composite, below 2, or above the supported cap."""


class ZeroInverse(PpirError):
    """Multiplicative inverse of zero requested."""


# --- MDS codec ---

class FieldTooSmall(PpirError):
    """Code length exceeds the field order, so distinct evaluation points run out."""


class BadDimensions(PpirError):
    """Code dimensions violate 1 <= k < n."""


class NotSystematic(PpirError):
    """Explicit generator's first k columns are not the identity."""


class NotMDS(PpirError):
    """Explicit generator is singular on a column set the decoder inverts, or has too many such sets to check."""


class LengthMismatch(PpirError):
    """Vector length does not match the code dimension."""


class SingularSubmatrix(PpirError):
    """Erasure decoding hit a singular column set: the generator is not MDS, and the load check does not cover that set."""


# --- scenario model ---

class OutOfRange(PpirError):
    """Class, subclass, or global message index outside its valid range."""


class UnidentifiableAccess(PpirError):
    """Subclass indices of an unidentifiable class were requested through the user view."""


class MalformedScenario(PpirError):
    """Scenario document is structurally invalid."""


# --- query engine ---

class AssumptionViolated(PpirError):
    """Scenario failed validation for the requested protocol mode."""

    def __init__(self, report):
        self.report = report
        failed = ", ".join(r.name for r in report.rules if not r.passed)
        super().__init__(f"scenario assumptions not met: {failed}")


class ExhaustedIndices(PpirError):
    """A selection set ran empty; the scenario is outside the scheme's guarantees."""


class PartitionInfeasible(PpirError):
    """Identifiable classes minus one cannot be split evenly across the users."""


# --- exchange ---

class DimensionMismatch(PpirError):
    """Query, generator, or store shapes disagree."""


class InsufficientKnowns(PpirError):
    """User lacks enough known coordinates to erasure-decode this answer."""


class RecoveryFailed(PpirError):
    """A session's plan broke a selection rule, a user decoded a message that differs
    from the store, or a user gained no new desired-class message."""


# --- analytics ---

class ConditionsInconsistent(PpirError):
    """An advantage condition holds but the rates contradict it: the parameters are outside the scheme's assumptions."""


class TooLargeToEnumerate(PpirError):
    """Choice tree exceeds the exhaustive-enumeration budget."""

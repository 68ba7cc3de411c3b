"""Exception hierarchy shared by all modules."""


class CencovNcpError(Exception):
    """Base class for all library errors."""


# --- linear algebra -------------------------------------------------------

class NotSquare(CencovNcpError):
    pass


class NotHermitian(CencovNcpError):
    pass


class NoConvergence(CencovNcpError):
    pass


class DimensionMismatch(CencovNcpError):
    pass


# --- groupoid validation --------------------------------------------------

class GroupoidViolation(CencovNcpError):
    """Base class for structural defects found by groupoid validation."""


class AssociativityViolation(GroupoidViolation):
    pass


class UnitViolation(GroupoidViolation):
    pass


class InverseViolation(GroupoidViolation):
    pass


class CoherenceViolation(GroupoidViolation):
    pass


class BadMeasure(GroupoidViolation):
    pass


class NotAGroup(GroupoidViolation):
    pass


class BadWeight(GroupoidViolation):
    pass


class HomomorphismViolation(GroupoidViolation):
    pass


# --- algebra / states -----------------------------------------------------

class GroupoidMismatch(CencovNcpError):
    pass


class NotPairGroupoid(CencovNcpError):
    pass


class NonUniformP(CencovNcpError):
    pass


class InvalidState(CencovNcpError):
    pass


class NotSelfAdjoint(CencovNcpError):
    pass


class InvalidDensity(CencovNcpError):
    pass


# --- channels -------------------------------------------------------------

class RowSumViolation(CencovNcpError):
    pass


class NonTracePreserving(CencovNcpError):
    pass


class PositivityLost(CencovNcpError):
    pass


class NormalizationLost(CencovNcpError):
    pass


class NotCongruent(CencovNcpError):
    pass


# --- gns / estimation -----------------------------------------------------

class DegenerateState(CencovNcpError):
    pass


class IntervalExceeded(CencovNcpError):
    pass


class FoliumViolation(CencovNcpError):
    pass


class ZeroInformation(CencovNcpError):
    pass


class SupportBoundary(CencovNcpError):
    pass


# --- file I/O -------------------------------------------------------------

class SchemaError(CencovNcpError):
    pass

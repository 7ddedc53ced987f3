"""Exception hierarchy for the data market platform.

All library errors derive from :class:`ReproError` so callers can catch the
whole family with a single ``except`` clause while still being able to react
to specific failure modes (schema mismatches, budget exhaustion, licensing
violations, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class SchemaError(ReproError):
    """A relation was used with an incompatible or malformed schema."""


class TypeMismatchError(SchemaError):
    """A value did not match the declared dtype of its column."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the relation."""


class ProvenanceError(ReproError):
    """Provenance information is missing or inconsistent."""


class DiscoveryError(ReproError):
    """The discovery subsystem could not fulfil a request."""


class IntegrationError(ReproError):
    """The DoD engine could not assemble a requested mashup."""


class SynthesisError(IntegrationError):
    """No mapping function consistent with the given examples exists."""


class FusionError(ReproError):
    """A fusion operator received incompatible inputs."""


class PrivacyError(ReproError):
    """A privacy mechanism was misused (bad epsilon, exhausted budget...)."""


class BudgetExhaustedError(PrivacyError):
    """The privacy accountant refused an operation: budget exhausted."""


class ValuationError(ReproError):
    """A revenue-allocation computation failed or was infeasible."""


class PricingError(ReproError):
    """A pricing computation failed (e.g. no arbitrage-free price exists)."""


class ArbitrageError(PricingError):
    """An arbitrage opportunity was detected where none should exist."""


class MechanismError(ReproError):
    """An auction/payment mechanism received invalid input."""


class MarketError(ReproError):
    """Generic market-platform error."""


class MarketDesignError(MarketError):
    """A market design is inconsistent or impractical."""


class InvalidRequestError(MarketError):
    """A platform request carried arguments the market cannot act on
    (empty attribute list, negative reserve price, negative funding...)."""


class UnknownParticipantError(MarketError):
    """An operation referenced a participant the ledger does not know."""


class DuplicateParticipantError(MarketError):
    """A participant name was registered twice."""


class DatasetNotFoundError(MarketError):
    """An operation referenced a dataset the platform does not hold."""


class DuplicateDatasetError(MarketError):
    """``register_dataset`` was called for a name that is already live
    (use ``update_dataset`` to refresh an existing registration)."""


class DatasetOwnershipError(MarketError):
    """A seller tried to register or update a dataset name held by a
    different seller."""


class LicensingError(MarketError):
    """A data transfer violates the license attached to a dataset."""


class LicenseDowngradeError(LicensingError):
    """A dataset update tried to silently strip rights already granted to
    existing licensees (e.g. revoking resale, shrinking exclusivity slots
    below the current holder count, or retrofitting a full transfer)."""


class LedgerError(MarketError):
    """A ledger operation is invalid (unknown account, overdraft...)."""


class InsufficientFundsError(LedgerError):
    """An account does not hold enough balance for the requested transfer."""


class AuditError(MarketError):
    """The tamper-evident audit log failed verification."""


class NegotiationError(MarketError):
    """A negotiation round could not be completed."""


class AuthenticationError(MarketError):
    """A network request carried no credential, or one the gateway does
    not recognize (HTTP 401)."""


class RateLimitError(MarketError):
    """A client exceeded its request budget (HTTP 429).

    ``retry_after`` is the minimum wait, in seconds, before the token
    bucket will admit the next request; the gateway surfaces it as the
    ``Retry-After`` response header."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class SimulationError(ReproError):
    """The market simulator was configured inconsistently."""


class ReproDeprecationWarning(DeprecationWarning):
    """Warning category for deprecated library surface.

    A dedicated subclass lets the test suite escalate *our* deprecations to
    errors (``filterwarnings = error::repro.errors.ReproDeprecationWarning``)
    without tripping over third-party DeprecationWarnings.
    """

"""Data trusts: coalitions of individuals selling pooled personal data.

Section 4.5: "Because many times an individual's own data is not worth much
in itself — but quickly raises its value when aggregated with other users —
it is conceivable that coalitions of users would form who collectively
would choose to relinquish/sell certain personal information to benefit
together."  (The paper cites Delacroix & Lawrence's bottom-up data trusts.)

A :class:`DataTrust` pools each member's rows into one market-facing
dataset whose per-row provenance remembers the contributing member, sells
it through a normal :class:`~repro.market.seller.SellerPlatform` flow, and
distributes the trust's revenue back to members in proportion to how many
of *their* rows the sold mashups actually used (row-level token shares) —
individual-level revenue sharing that falls directly out of the provenance
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MarketError
from ..relation import ProvToken, Relation, Schema, token_shares


class TrustError(MarketError):
    pass


@dataclass
class MemberContribution:
    member: str
    rows: int
    #: [start, end) row positions inside the pooled dataset
    start: int
    end: int


class DataTrust:
    """A member coalition that pools and sells personal data together."""

    def __init__(self, name: str, schema: Schema | list):
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._rows: list[tuple] = []
        self._contributions: list[MemberContribution] = []
        self._payouts: dict[str, float] = {}

    # -- membership -------------------------------------------------------------
    def contribute(self, member: str, relation: Relation) -> MemberContribution:
        """Add one member's personal rows to the pool."""
        if relation.schema.names != self.schema.names:
            raise TrustError(
                f"contribution schema {relation.schema.names} does not "
                f"match the trust's {self.schema.names}"
            )
        if len(relation) == 0:
            raise TrustError(f"member {member!r} contributed zero rows")
        # every row is checked before any joins the pool: a contribution
        # is pooled whole or not at all
        self.schema.validate_rows(relation.rows)
        start = len(self._rows)
        self._rows.extend(relation.rows)
        contribution = MemberContribution(
            member=member, rows=len(relation), start=start,
            end=len(self._rows),
        )
        self._contributions.append(contribution)
        return contribution

    @property
    def members(self) -> list[str]:
        return sorted({c.member for c in self._contributions})

    @property
    def total_rows(self) -> int:
        """Pooled rows across all contributions."""
        return len(self._rows)

    def member_of_row(self, row_id: int) -> str:
        for c in self._contributions:
            if c.start <= row_id < c.end:
                return c.member
        raise TrustError(f"row {row_id} belongs to no contribution")

    # -- the market-facing dataset -------------------------------------------------
    def pooled_dataset(self) -> Relation:
        """The pooled relation the trust offers on the market."""
        if not self._rows:
            raise TrustError("the trust has no contributions to pool")
        return Relation(self.name, self.schema, self._rows)

    # -- revenue distribution ---------------------------------------------------------
    def distribute(self, sold_mashup: Relation, amount: float) -> dict[str, float]:
        """Split ``amount`` over members by their rows' share in the mashup.

        Uses row-level token shares of the sold mashup's provenance: a
        member is paid in proportion to the responsibility carried by the
        pooled rows they contributed.  Rows of other datasets (the mashup
        may join external data) absorb their own share — the trust only
        distributes what its rows earned, returning the actually
        distributed total alongside the per-member ledger.
        """
        if amount < 0:
            raise TrustError("amount must be non-negative")
        member_weight: dict[str, float] = {}
        total_weight = 0.0
        for expr in sold_mashup.provenance:
            for token, share in token_shares(expr).items():
                if not isinstance(token, ProvToken):
                    continue
                if token.source != self.name:
                    continue
                member = self.member_of_row(token.row_id)
                member_weight[member] = member_weight.get(member, 0.0) + share
                total_weight += share
        if total_weight == 0:
            raise TrustError(
                f"the sold mashup used no rows of trust {self.name!r}"
            )
        payouts = {
            member: amount * weight / total_weight
            for member, weight in member_weight.items()
        }
        for member, value in payouts.items():
            self._payouts[member] = self._payouts.get(member, 0.0) + value
        return payouts

    def payout_of(self, member: str) -> float:
        return self._payouts.get(member, 0.0)

    def statement(self) -> Relation:
        """Per-member contribution/payout statement (transparency)."""
        rows = []
        for member in self.members:
            contributed = sum(
                c.rows for c in self._contributions if c.member == member
            )
            rows.append((member, contributed, round(self.payout_of(member), 6)))
        return Relation(
            f"{self.name}_statement",
            [("member", "str"), ("rows_contributed", "int"),
             ("payout", "float")],
            rows,
        )

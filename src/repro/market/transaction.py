"""Transaction support: the incentive ledger.

Fig. 2's "Transaction Support" box.  The ledger is deliberately
incentive-agnostic — external markets move *money*, internal markets move
*bonus points*, barter markets move *credits* (Section 3.3's plug'n'play
requirement) — all are balances on named accounts with atomic transfers and
a full history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from ..errors import InsufficientFundsError, LedgerError


@dataclass(frozen=True)
class Transfer:
    """One executed movement of incentive between two accounts."""

    transfer_id: int
    source: str
    destination: str
    amount: float
    memo: str = ""


class Ledger:
    """Named accounts with non-negative balances and atomic transfers."""

    def __init__(self, unit: str = "money"):
        self.unit = unit
        self._balances: dict[str, float] = {}
        self._history: list[Transfer] = []

    # -- accounts ------------------------------------------------------------
    def open_account(self, name: str) -> None:
        """Open an empty account; balances only ever arrive through a
        recorded :meth:`mint` or :meth:`transfer`."""
        if name in self._balances:
            raise LedgerError(f"account {name!r} already exists")
        self._balances[name] = 0.0

    def ensure_account(self, name: str) -> None:
        if name not in self._balances:
            self.open_account(name)

    def __contains__(self, name: str) -> bool:
        return name in self._balances

    @property
    def accounts(self) -> list[str]:
        return sorted(self._balances)

    def balance(self, name: str) -> float:
        try:
            return self._balances[name]
        except KeyError:
            raise LedgerError(f"unknown account {name!r}") from None

    # -- movements -----------------------------------------------------------
    def mint(self, name: str, amount: float, memo: str = "mint") -> Transfer:
        """Create incentive out of thin air (buyer funding, point grants)."""
        if amount < 0:
            raise LedgerError("cannot mint a negative amount")
        self.ensure_account(name)
        self._balances[name] += amount
        return self._record("__mint__", name, amount, memo)

    def transfer(
        self, source: str, destination: str, amount: float, memo: str = ""
    ) -> Transfer:
        if amount < 0:
            raise LedgerError("cannot transfer a negative amount")
        if source not in self._balances:
            raise LedgerError(f"unknown source account {source!r}")
        if destination not in self._balances:
            raise LedgerError(f"unknown destination account {destination!r}")
        if self._balances[source] < amount - 1e-9:
            raise InsufficientFundsError(
                f"account {source!r} holds {self._balances[source]:.2f} "
                f"{self.unit}, cannot pay {amount:.2f}"
            )
        self._balances[source] -= amount
        self._balances[destination] += amount
        return self._record(source, destination, amount, memo)

    def _record(
        self, source: str, destination: str, amount: float, memo: str
    ) -> Transfer:
        transfer = Transfer(
            transfer_id=len(self._history),
            source=source,
            destination=destination,
            amount=amount,
            memo=memo,
        )
        self._history.append(transfer)
        return transfer

    # -- history ---------------------------------------------------------------
    def history(self, account: str | None = None) -> list[Transfer]:
        if account is None:
            return list(self._history)
        return [
            t for t in self._history
            if account in (t.source, t.destination)
        ]

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self._history)

    def total_minted(self) -> float:
        return math.fsum(
            t.amount for t in self._history if t.source == "__mint__"
        )

    def conservation_check(self) -> bool:
        """Invariant: total balances == total minted (nothing leaks), up to
        the rounding float64 balances can accumulate.

        Both totals are summed exactly (``math.fsum``), so each carries one
        final rounding.  Every balance update ``b ± amount`` rounds once, by
        at most 2**-53 of its result, and no result exceeds the minted total
        T (balances stay non-negative and sum to T), so each update drifts
        the balance total by at most 2**-53 * T.  A mint updates one
        balance and a transfer two, so after h recorded movements the
        drift is at most (2h + 2) * 2**-53 * T = (h + 1) * 2**-52 * T.
        The tolerance never drops below the 1e-6 that covers small ledgers
        (and the 1e-9 overdraft slack ``transfer`` allows).
        """
        minted = self.total_minted()
        tolerance = max(1e-6, (len(self._history) + 1) * 2.0 ** -52 * minted)
        return abs(math.fsum(self._balances.values()) - minted) <= tolerance

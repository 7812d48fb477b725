"""Exception types shared across the package, and its one rule for time budgets.

Budgeted functions take a deadline that only the command line makes, with
deadline_after; every check of it is expired.  No other module reads the
monotonic clock; properties reads time.perf_counter only to time its passes
for elapsed_ms.
"""

import time


class PcspError(Exception):
    """Base class for workbench-specific failures."""


class SignatureMismatchError(PcspError):
    """Two structures do not have the same signature."""


class FormatError(PcspError):
    """A text artifact (structure, table, instance) could not be parsed."""


class UnsupportedTargetError(PcspError):
    """No relaxation route exists for the requested target structure."""


class TimeBudgetExceeded(PcspError):
    """A search ran past its deadline and was aborted."""


def seconds(text) -> float:
    """A time budget in seconds: a float >= 0, inf included; NaN (no clock passes it) or < 0 is a ValueError.

    It is also the argparse type of every --time-budget, which reports the error as "invalid seconds value".
    """
    value = float(text)
    if not value >= 0:
        raise ValueError(f"a time budget must be seconds >= 0, got {text!r}")
    return value


def deadline_after(budget: float | None) -> float | None:
    """None for no budget, else time.monotonic() plus a budget that seconds accepts."""
    return None if budget is None else time.monotonic() + seconds(budget)


def expired(deadline: float | None) -> bool:
    """Has time.monotonic() passed `deadline`?  None never expires, and NaN always has."""
    return deadline is not None and not time.monotonic() <= deadline

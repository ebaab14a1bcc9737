"""Exception types, the two modes and the item budget, shared across the toolkit.

This is the package's leaf module: it imports none of the others, so the
counting bounds read the modes and the budget without the graph modules.
"""

from __future__ import annotations

import os
from typing import Iterable

ROOTED = "rooted"
UNROOTED = "unrooted"

BUDGET_ENV = "RETNET_BUDGET"
# 15!! <= 2^21 < 17!!: trees up to 9 leaves rooted and 10 unrooted; rooted N(4, 3)
# passes its top level's 7,335 x 13^2 moves, and N(8, 1) fails at 13!! x 15^2
DEFAULT_BUDGET = 1 << 21


class RetnetError(Exception):
    """Base class for all domain errors."""

    code = "ERROR"


class BudgetExceeded(RetnetError):
    """A request exceeds the item budget (RETNET_BUDGET) or a search cap."""

    code = "BUDGET_EXCEEDED"


class NotInImage(RetnetError):
    """A tree is not the encoding of any reticulation-labelled network.

    Raised by the decoder when reversing the pendant-pair construction
    violates a network or labelling invariant.  This is an expected
    outcome for most trees, not a failure.
    """

    code = "NOT_IN_IMAGE"


class InvalidLabelling(RetnetError):
    code = "INVALID_LABELLING"


class SwitchingMismatch(RetnetError):
    code = "SWITCHING_MISMATCH"


class ModeMismatch(RetnetError):
    code = "MODE_MISMATCH"


class LeafsetMismatch(RetnetError):
    code = "LEAFSET_MISMATCH"


class NotATree(RetnetError):
    code = "NOT_A_TREE"


class DomainError(RetnetError):
    code = "DOMAIN"


class TTooLarge(RetnetError):
    code = "T_TOO_LARGE"


class ParseError(RetnetError):
    code = "PARSE_ERROR"


def _budget() -> int:
    """RETNET_BUDGET, or the default if it is unset; a DomainError unless a positive integer."""
    env = os.environ.get(BUDGET_ENV)
    try:
        budget = int(env) if env else DEFAULT_BUDGET
    except ValueError:
        budget = 0
    if budget < 1:
        raise DomainError(f"{BUDGET_ENV} must be a positive integer, not {env!r}")
    return budget


def check_budget(factors: Iterable, what: str) -> int:
    """Refuse a job of more than RETNET_BUDGET items before any is built; return its item count.

    The item count is the product of `factors`, each at least 1, so the
    product is multiplied out only until it passes the budget.
    """
    budget = _budget()
    items = 1
    for f in factors:
        items *= f
        if items > budget:
            raise BudgetExceeded(f"{what} exceed the budget of {budget} items ({BUDGET_ENV})")
    return items

"""Exception types shared across the toolkit."""


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

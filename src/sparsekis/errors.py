"""Shared exception types for solver resource guards and answer checks."""


class ResourceLimit(RuntimeError):
    """Raised when a solver would exceed a configured size or memory cap.

    Carries enough context to report what blew up and at which limit.
    """

    def __init__(self, what: str, needed, cap) -> None:
        super().__init__(f"{what}: needed {needed}, cap {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


class VerificationError(RuntimeError):
    """Raised when an answer fails its re-check against the input, or a
    count fails an internal consistency check (a negative count, a
    clique total not divisible by its symmetry factor).

    An explicit exception rather than an `assert`, so the check also
    runs under `python -O`.
    """

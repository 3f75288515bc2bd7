"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: VerificationError -> 1, and
so EigensolverError too; InputError -> 2; StateCapError -> 3.
"""


class SiplabError(Exception):
    """Base class for all siplab errors."""


class InputError(SiplabError):
    """Malformed or inconsistent user input (graph files, presets, flags)."""


class StateCapError(SiplabError):
    """A requested state space exceeds the configured size cap."""


class VerificationError(SiplabError):
    """A checked identity or inequality failed beyond tolerance."""


class EigensolverError(VerificationError):
    """An eigensolve failed or left an eigenpair residual over tolerance: a
    check of the solve itself, reported as a verification failure."""

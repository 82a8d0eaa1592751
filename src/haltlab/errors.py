"""Error taxonomy shared by the library and the CLI.

Each class maps to a fixed process exit code so that scripted callers can
distinguish "you asked wrong" from "this would not fit on a desk".
"""

import sys


class HaltlabError(Exception):
    """Base class for all haltlab errors."""

    exit_code = 1


class ConfigError(HaltlabError):
    """Malformed machine descriptor, distribution file, or parameter combination."""

    exit_code = 2


class UndefinedConditionalError(ConfigError):
    """Conditioning event has measure zero; the requested ratio does not exist."""


class ResourceLimitError(HaltlabError):
    """An enumeration, output buffer, or precision request exceeded its cap.

    Caps are refusals, never silent truncation. Each of haltlab's caps is a
    module constant; none is read from the environment.
    """

    exit_code = 3


def digit_limit_error() -> ResourceLimitError:
    """The refusal for printing an int past Python's int-to-str digit limit."""
    return ResourceLimitError(
        f"the result holds a number of more than {sys.get_int_max_str_digits()} "
        "decimal digits; raise PYTHONINTMAXSTRDIGITS to print it"
    )


class DegenerateDistributionError(HaltlabError):
    """No halting program was found, so the runtime distribution has no mass."""

    exit_code = 4


class InvariantViolation(HaltlabError):
    """An internally certified inequality failed; indicates a haltlab bug."""

    exit_code = 5

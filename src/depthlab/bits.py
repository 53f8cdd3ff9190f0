"""Bit strings, input files, number parsing and the two failures a
command reports.

This is the package's leaf: it imports nothing from depthlab, so the
command line and the betting commands read their inputs and report
their failures without loading the machine.  Program indices rank bodies
in length-lexicographic order: the empty body is 0, "0" is 1, "1" is 2,
"00" is 3, and so on; body_index/index_to_body convert both ways.
"""

from __future__ import annotations


class DepthlabError(Exception):
    """Base class of the package's failures that a command reports as
    exit 2.  NoStageWithinBudget, an inconclusive search that exits 3,
    does not derive from it."""


class NoStageWithinBudget(Exception):
    """A stage search ran past its configured ceiling."""


# --------------------------------------------------------------------------
# bit strings and program indices


def check_bits(bits: str) -> str:
    if bits.strip("01") != "":
        raise ValueError(f"not a 0/1 string: {bits!r}")
    return bits


def body_index(body: str) -> int:
    """Length-lexicographic rank of a body among all finite 0/1 strings."""
    check_bits(body)
    return (1 << len(body)) - 1 + (int(body, 2) if body else 0)


def index_to_body(e: int) -> str:
    if e < 0:
        raise ValueError("index must be nonnegative")
    length = (e + 1).bit_length() - 1
    offset = e - ((1 << length) - 1)
    return format(offset, "b").zfill(length) if length else ""


def strings_of_length(n: int):
    """The 2^n strings of n bits, in lexicographic order."""
    if n == 0:
        return iter(("",))
    return (format(v, "b").zfill(n) for v in range(1 << n))


# --------------------------------------------------------------------------
# input files


def read_input(path, what: str, parse):
    """parse(lines) over the file at path, read one ASCII line at a time
    with its line ending cut off.  A fault in opening, decoding or parsing
    becomes one ValueError "<what> '<path>', line <n>: <fault>" naming the
    line being read when it arose; a fault found after the last line (an
    empty table, say) concerns the whole file and names no line."""
    at = 0

    def lines(fh):
        nonlocal at
        for at, raw in enumerate(fh, 1):
            yield raw.decode("ascii").rstrip("\r\n")
        at = 0

    try:
        with open(path, "rb") as fh:
            return parse(lines(fh))
    except (OSError, ValueError) as exc:
        fault = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        where = f", line {at}" if at else ""
        raise ValueError(f"{what} {str(path)!r}{where}: {fault}") from None


def _one_bit_line(lines) -> str:
    nonblank = (line.strip() for line in lines if line.strip())
    bits = check_bits(next(nonblank, ""))
    if next(nonblank, None) is not None:
        raise ValueError("a second nonblank line")
    return bits


def read_bits(text: str) -> str:
    """Bits from "bits:0101" or from a file whose one nonblank line holds
    the 0/1 characters."""
    if text.startswith("bits:"):
        return check_bits(text[5:])
    return read_input(text, "bit file", _one_bit_line)


# --------------------------------------------------------------------------
# numbers


def parse_int(token: str) -> int:
    """int(token); a ValueError that quotes the token otherwise."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{token!r} is not an integer") from None


def parse_fraction(text: str) -> Fraction:
    """An exact rational from "num/den" or "num"."""
    from fractions import Fraction

    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        raise ValueError(f"{text!r} is not a fraction num/den") from None
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)

"""Reference check for CLI outputs.

An output matches its reference when the text between numbers is identical
(keys, graph6 strings, S/T/K patterns, punctuation), every integer is
identical (so Fractions such as 7/2 are exact), and every other number is
within REL_TOL of the reference, relatively.  The exit code must match too.
"""

from __future__ import annotations

import math
import re

REL_TOL = 1e-9
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _is_integer(token: str) -> bool:
    return not any(c in token for c in ".eE")


def compare(output: str, reference: str):
    """None when output matches reference, else a one-line reason."""
    if output == reference:
        return None
    got, want = _NUMBER.split(output), _NUMBER.split(reference)
    if len(got) != len(want):
        return f"token count {len(got)} != reference {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g == w:
            continue
        if i % 2 == 0:          # text between numbers
            return f"text {g[:40]!r} != reference {w[:40]!r}"
        if _is_integer(g) and _is_integer(w):
            return f"integer {g} != reference {w}"
        if not math.isclose(float(g), float(w), rel_tol=REL_TOL, abs_tol=0.0):
            return f"number {g} != reference {w} (rel_tol {REL_TOL})"
    return None


def check(code, stdout: str, reference: str):
    """None when the invocation exited 0 with output matching reference
    (every pool entry exits 0 at the commit the references come from)."""
    if code is None:
        return "timed out"
    if code != 0:
        return f"exit code {code} != 0"
    return compare(stdout, reference)

"""Exact-arithmetic comparisons and deterministic report serialization.

Every inequality that feeds a verdict is stored as a ``Comparison`` over
exact rationals; square roots are eliminated by squaring with the sign case
recorded in ``note``.  Rationals serialize as "num/den" strings so no float
ever reaches a report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedCertificateError

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


def _exact(x) -> Fraction:
    """``x`` as a Fraction; a Fraction passes through unconverted."""
    return x if type(x) is Fraction else Fraction(x)


def frac_str(q) -> str:
    q = _exact(q)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedCertificateError(f"bad rational {s!r}") from exc


def parse_typed(x, kind: type):
    """``x`` when its type is exactly ``kind`` (int, str or bool); anything
    else, a JSON boolean where an integer belongs included, raises
    MalformedCertificateError."""
    if type(x) is not kind:
        raise MalformedCertificateError(f"expected a JSON {kind.__name__}, got {x!r}")
    return x


def parse_ints(xs) -> tuple[int, ...]:
    """A JSON array of integers as a tuple, each entry checked as
    ``parse_typed`` checks it."""
    if type(xs) is not list:
        raise MalformedCertificateError(f"expected a JSON array of integers, got {xs!r}")
    return tuple(parse_typed(x, int) for x in xs)


def ceil_frac(q) -> int:
    q = _exact(q)
    return -((-q.numerator) // q.denominator)


@dataclass(frozen=True)
class Comparison:
    """One named exact comparison ``lhs op rhs`` with its verdict."""

    name: str
    lhs: Fraction
    op: str
    rhs: Fraction
    holds: bool
    note: str = ""

    @staticmethod
    def make(name: str, lhs, op: str, rhs, note: str = "") -> "Comparison":
        lhs = _exact(lhs)
        rhs = _exact(rhs)
        return Comparison(name, lhs, op, rhs, _OPS[op](lhs, rhs), note)

    def reevaluate(self) -> bool:
        return _OPS[self.op](self.lhs, self.rhs)

    def to_payload(self) -> dict:
        payload = {
            "name": self.name,
            "lhs": frac_str(self.lhs),
            "op": self.op,
            "rhs": frac_str(self.rhs),
            "holds": self.holds,
        }
        if self.note:
            payload["note"] = self.note
        return payload

    @staticmethod
    def from_payload(p: dict) -> "Comparison":
        try:
            return Comparison(
                parse_typed(p["name"], str), parse_frac(p["lhs"]),
                parse_typed(p["op"], str), parse_frac(p["rhs"]),
                parse_typed(p["holds"], bool), parse_typed(p.get("note", ""), str),
            )
        except KeyError as exc:
            raise MalformedCertificateError(f"comparison missing field {exc}") from exc


@dataclass(frozen=True)
class NamedCheck:
    """A verifier finding: named boolean with a human-readable detail."""

    name: str
    holds: bool
    detail: str = ""

    def to_payload(self) -> dict:
        payload = {"name": self.name, "holds": self.holds}
        if self.detail:
            payload["detail"] = self.detail
        return payload


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[NamedCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.holds]

    def to_payload(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_payload() for c in self.checks],
        }


def sqrt_bound_comparison(name: str, value: Fraction, coeff_sq: Fraction,
                          direction: str, note: str = "") -> Comparison:
    """Compare ``value`` against ``sqrt(coeff_sq)`` exactly by squaring.

    direction "<": asserts value < sqrt(coeff_sq); direction ">=" asserts
    value >= sqrt(coeff_sq).  The sign case taken is recorded in the note.
    """
    value = _exact(value)
    coeff_sq = _exact(coeff_sq)
    if direction == "<":
        if value < 0:
            return Comparison(name, value * abs(value), "<", coeff_sq, True,
                              note=(note + " lhs negative, holds by sign").strip())
        return Comparison.make(name, value * value, "<", coeff_sq,
                               note=(note + " compared by squaring, lhs >= 0").strip())
    if direction == ">=":
        if value < 0:
            return Comparison(name, value * abs(value), ">=", coeff_sq, False,
                              note=(note + " lhs negative, fails by sign").strip())
        return Comparison.make(name, value * value, ">=", coeff_sq,
                               note=(note + " compared by squaring, lhs >= 0").strip())
    raise ValueError(f"unsupported direction {direction!r}")


def canonical_json(payload) -> str:
    """Stable JSON rendering: insertion-ordered keys, two-space indent."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def content_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()

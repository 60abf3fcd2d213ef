"""Exact-arithmetic comparisons and deterministic report serialization.

Every inequality that feeds a verdict is stored as a ``Comparison`` over
exact rationals; square roots are eliminated by squaring with the sign case
recorded in ``note``.  Rationals serialize as "num/den" strings so no float
ever reaches a report.

Each certificate type declares its wire format once, as a ``FIELDS`` table
of (JSON key, attribute, kind) rows on a ``Record`` subclass; one writer and
one reader here interpret every table.  The reader accepts only the
canonical form the writer emits, so every payload ``x`` it accepts satisfies
``to_payload(from_payload(x)) == x`` as JSON values.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

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


def ceil_frac(q) -> int:
    q = _exact(q)
    return -((-q.numerator) // q.denominator)


# -- the certificate codec ----------------------------------------------------

# How a field reads from JSON and writes to it (``write`` None: as it is).
# ``absent`` is the value an omitted key stands for, None for a key that must
# be present: the writer omits the key for it, the reader rejects a key that
# spells it.
Kind = namedtuple("Kind", "read write absent", defaults=(None, None))
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]*)/[1-9][0-9]*")
_LENGTH = re.compile(r"[1-9][0-9]*")


def _typed(x, kind: type):
    """``x`` when its type is exactly ``kind``, so a JSON boolean is no integer."""
    if type(x) is not kind:
        raise MalformedCertificateError(f"expected a JSON {kind.__name__}, got {x!r}")
    return x


def _read_rational(s) -> Fraction:
    """``frac_str``'s "num/den" in lowest terms; the pattern goes first, so
    no exponent is ever expanded."""
    if not _RATIONAL.fullmatch(_typed(s, str)) or frac_str(Fraction(s)) != s:
        raise MalformedCertificateError(f"expected num/den in lowest terms, got {s!r}")
    return Fraction(s)


def _read_witnesses(x) -> dict[int, tuple[int, ...]]:
    bad = [key for key in _typed(x, dict) if not _LENGTH.fullmatch(key)]
    if bad:
        raise MalformedCertificateError(f"expected decimal cycle lengths, got {bad}")
    return {int(key): INTS.read(cycle) for key, cycle in x.items()}


def array(item: Kind) -> Kind:
    """A JSON array of ``item`` values, held as a tuple."""
    write = list if item.write is None else (lambda v: [item.write(x) for x in v])
    return Kind(lambda xs: tuple(item.read(x) for x in _typed(xs, list)), write)


def record(*classes) -> Kind:
    """A nested record of the one of ``classes`` whose ``kind`` tag its
    "kind" key names; an untagged type is named by the key's absence."""
    def read(x):
        for cls in classes:
            if _typed(x, dict).get("kind") == cls.kind:
                return cls.from_payload(x)
        raise MalformedCertificateError(f"unknown kind {x.get('kind')!r}")

    return Kind(read, Record.to_payload)


INT, STR, BOOL, OBJECT = (Kind(partial(_typed, kind=t)) for t in (int, str, bool, dict))
NOTE = STR._replace(absent="")  # omitted when empty
RATIONAL = Kind(_read_rational, frac_str)
INTS = array(INT)
STRS = array(STR)
# cycle length -> cycle; the keys are decimal strings, written in order
WITNESSES = Kind(_read_witnesses,
                 lambda v: {str(t): list(w) for t, w in sorted(v.items())})


class Record:
    """A certificate type whose wire format is its ``FIELDS`` table of
    (JSON key, attribute, kind) rows, in payload order.  A ``kind`` tag (a
    branch's) is written first.  ``from_payload`` raises
    MalformedCertificateError on anything ``to_payload`` would not write."""

    FIELDS: tuple = ()
    kind = None

    def to_payload(self) -> dict:
        payload = {} if self.kind is None else {"kind": self.kind}
        for key, attr, kind in self.FIELDS:
            value = getattr(self, attr)
            if kind.absent is None or value != kind.absent:
                payload[key] = value if kind.write is None else kind.write(value)
        return payload

    @classmethod
    def from_payload(cls, payload):
        name = cls.__name__
        keys = {key for key, _, _ in cls.FIELDS}
        if cls.kind is not None:
            keys.add("kind")
        unknown = [key for key in _typed(payload, dict) if key not in keys]
        if unknown:
            raise MalformedCertificateError(f"{name}: unknown keys {unknown}")
        if payload.get("kind") != cls.kind:
            raise MalformedCertificateError(f"{name}: kind is not {cls.kind!r}")
        values = {}
        for key, attr, kind in cls.FIELDS:
            if key in payload:
                try:  # ValueError: int() refuses a string of over 4300 digits
                    values[attr] = kind.read(payload[key])
                except (MalformedCertificateError, ValueError) as exc:
                    raise MalformedCertificateError(f"{name}.{key}: {exc}") from None
                if values[attr] == kind.absent:
                    raise MalformedCertificateError(f"{name}.{key}: omitted when empty")
            elif kind.absent is None:
                raise MalformedCertificateError(f"{name}: missing key {key!r}")
            else:
                values[attr] = kind.absent
        return cls(**values)


@dataclass(frozen=True)
class Comparison(Record):
    """One named exact comparison ``lhs op rhs`` with its verdict."""

    name: str
    lhs: Fraction
    op: str
    rhs: Fraction
    holds: bool
    note: str = ""

    FIELDS = (("name", "name", STR), ("lhs", "lhs", RATIONAL), ("op", "op", STR),
              ("rhs", "rhs", RATIONAL), ("holds", "holds", BOOL), ("note", "note", NOTE))

    @staticmethod
    def make(name: str, lhs, op: str, rhs, note: str = "") -> "Comparison":
        lhs = _exact(lhs)
        rhs = _exact(rhs)
        return Comparison(name, lhs, op, rhs, _OPS[op](lhs, rhs), note)

    def reevaluate(self) -> bool:
        return _OPS[self.op](self.lhs, self.rhs)


CHECKS = array(record(Comparison))


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

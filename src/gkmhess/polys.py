"""Sparse multivariate polynomials with exact rational coefficients.

A :class:`MultiPoly` stores a map from exponent tuples (dense, fixed length)
to nonzero coefficients.  Coefficients are Python ``int`` whenever possible
and ``Fraction`` otherwise; the two interoperate transparently.  Default
variable names are ``t1..tn``; charts over cell coordinates pass their own
name list.

The textual format is canonical: exact coefficients, explicit ``*`` and
``^``, no spaces, terms in descending graded-lexicographic order.  It
round-trips through :func:`parse_poly`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

Coeff = int | Fraction


def _norm(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class MultiPoly:

    __slots__ = ("nvars", "terms", "names")

    def __init__(self, nvars: int, terms=None, names: Sequence[str] | None = None):
        self.nvars = nvars
        self.names = tuple(names) if names is not None else None
        cleaned = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    cleaned[exps] = _norm(coeff)
        self.terms = cleaned

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, names=None) -> "MultiPoly":
        return cls(nvars, {}, names)

    @classmethod
    def constant(cls, c: Coeff, nvars: int, names=None) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c}, names)

    @classmethod
    def one(cls, nvars: int, names=None) -> "MultiPoly":
        return cls.constant(1, nvars, names)

    @classmethod
    def variable(cls, index: int, nvars: int, names=None) -> "MultiPoly":
        """The single variable with 0-based ``index``."""
        exps = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(nvars, {exps: 1}, names)

    @classmethod
    def linear_form(cls, a: int, b: int, nvars: int) -> "MultiPoly":
        """``t_a - t_b`` for 1-based variable indices."""
        ea = tuple(1 if k == a - 1 else 0 for k in range(nvars))
        eb = tuple(1 if k == b - 1 else 0 for k in range(nvars))
        return cls(nvars, {ea: 1, eb: -1})

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.nvars, 0)

    # -- ring operations --------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.nvars, self.names)
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return MultiPoly(self.nvars, terms, self.names or other.names)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(
            self.nvars, {e: -c for e, c in self.terms.items()}, self.names
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.nvars, self.names)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly.zero(self.nvars, self.names)
            return MultiPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}, self.names
            )
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(exps, 0) + c1 * c2
                if acc:
                    terms[exps] = acc
                else:
                    terms.pop(exps, None)
        return MultiPoly(self.nvars, terms, self.names or other.names)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == ({} if not other else {(0,) * self.nvars: other})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- substitution and evaluation --------------------------------------

    def substitute_permutation(self, u) -> "MultiPoly":
        """Replace each ``t_i`` by ``t_{u(i)}`` for a permutation ``u`` of [n]."""
        if len(u) != self.nvars:
            raise ValueError("permutation size must match variable count")
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exps):
                if e:
                    new[u[i] - 1] = e
            terms[tuple(new)] = coeff
        return MultiPoly(self.nvars, terms, self.names)

    def substitute_var(self, a: int, b: int) -> "MultiPoly":
        """Set ``t_a := t_b`` (1-based indices)."""
        terms: dict = {}
        for exps, coeff in self.terms.items():
            if exps[a - 1]:
                new = list(exps)
                new[b - 1] += new[a - 1]
                new[a - 1] = 0
                exps = tuple(new)
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return MultiPoly(self.nvars, terms, self.names)

    def evaluate(self, values: Sequence[Coeff]) -> Coeff:
        if len(values) != self.nvars:
            raise ValueError("assignment length must match variable count")
        total: Coeff = 0
        for exps, coeff in self.terms.items():
            prod = coeff
            for v, e in zip(values, exps):
                if e:
                    prod *= v**e
            total += prod
        return _norm(Fraction(total)) if isinstance(total, Fraction) else total

    # -- canonical text form ------------------------------------------------

    def _name(self, index: int) -> str:
        return self.names[index] if self.names else f"t{index + 1}"

    def sorted_terms(self):
        """Descending graded-lexicographic order: degree first, then t1-major."""
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(self._name(i))
                elif e > 1:
                    factors.append(f"{self._name(i)}^{e}")
            mag = abs(coeff)
            body = "*".join(factors)
            if not factors:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += sign + body
        return text

    __repr__ = __str__


_TERM_RE = re.compile(r"^(?P<coeff>\d+(?:/\d+)?)?(?P<vars>(?:\*?[A-Za-z]\w*(?:\^\d+)?)*)$")


def parse_poly(text: str, nvars: int, names: Sequence[str] | None = None) -> MultiPoly:
    """Parse the canonical textual format produced by ``str(MultiPoly)``."""
    text = text.replace(" ", "")
    if not text or text == "0":
        return MultiPoly.zero(nvars, names)
    name_index = {
        (names[i] if names else f"t{i + 1}"): i for i in range(nvars)
    }
    pieces = re.findall(r"[+-]?[^+-]+", text)
    result = MultiPoly.zero(nvars, names)
    for piece in pieces:
        sign = 1
        if piece[0] == "+":
            piece = piece[1:]
        elif piece[0] == "-":
            sign, piece = -1, piece[1:]
        match = _TERM_RE.match(piece)
        if not match:
            raise ValueError(f"cannot parse term {piece!r}")
        coeff_text = match.group("coeff")
        coeff: Coeff = 1 if coeff_text is None else (
            Fraction(coeff_text) if "/" in coeff_text else int(coeff_text)
        )
        exps = [0] * nvars
        var_text = match.group("vars")
        if var_text:
            for factor in var_text.strip("*").split("*"):
                name, _, power = factor.partition("^")
                if name not in name_index:
                    raise ValueError(
                        f"unknown variable {name!r}: expected one of {', '.join(name_index)}"
                    )
                exps[name_index[name]] += int(power) if power else 1
        result = result + MultiPoly(nvars, {tuple(exps): sign * coeff}, names)
    return result


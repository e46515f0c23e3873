"""Sparse multivariate polynomials with exact rational coefficients.

A :class:`MultiPoly` stores a map ``packed`` from packed monomials to
nonzero coefficients.  A monomial in ``nvars`` variables packs into one
``int``: one 8-bit field per variable, the first variable most significant,
with the total degree above them all.  The top bit of each field is a
guard, so an exponent may reach 127 (``MAX_EXPONENT``).  A product of two
monomials is one integer addition; a sum that sets a guard bit raises
``OverflowError``, so no field ever carries into the next.  Integer order on
packed monomials is graded lexicographic order.  ``terms`` is the
tuple-keyed view of the same map.

Coefficients are Python ``int`` whenever possible and ``Fraction``
otherwise; the two interoperate transparently.  A polynomial carries no
variable names: they exist only at format time, ``t1..tn`` unless
:meth:`MultiPoly.format` is given others (the cell charts print their
coordinates that way).

``MultiPoly(nvars, terms)`` and :func:`parse_poly` check every exponent
tuple.  Ring operations and substitutions build their results through the
trusted ``_trusted``, which only turns a ``Fraction`` with denominator 1
into an ``int``.

The textual format is canonical: exact coefficients, explicit ``*`` and
``^``, no spaces, terms in descending graded-lexicographic order.  It
round-trips through :func:`parse_poly`.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Sequence

Coeff = int | Fraction

FIELD_BITS = 8
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_GUARD = 1 << (FIELD_BITS - 1)


def pack(exps: Sequence[int]) -> int:
    """The packed monomial of an exponent tuple, which is not checked."""
    m = sum(exps)
    for e in exps:
        m = m << FIELD_BITS | e
    return m


def unpack(m: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a packed monomial in ``nvars`` variables."""
    return tuple((m & _fields(nvars)).to_bytes(nvars, "big"))


def monomial_quotient(m: int, d: int, nvars: int) -> int | None:
    """``m / d`` for packed monomials, or None if ``d`` does not divide ``m``.

    With every guard bit of ``m`` set, no field of ``m - d`` borrows from the
    next one, and a field keeps its guard bit exactly where it does not go
    below zero.
    """
    guards = guard_bits(nvars)
    diff = (m | guards) - d
    if diff & guards != guards:
        return None
    return diff ^ guards


@functools.cache
def _fields(nvars: int) -> int:
    """The mask of every exponent field; the degree lies above it."""
    return (1 << FIELD_BITS * nvars) - 1


@functools.cache
def guard_bits(nvars: int) -> int:
    """The guard bit of every exponent field: a packed monomial with one of
    them set has an exponent above ``MAX_EXPONENT``."""
    return sum(_GUARD << FIELD_BITS * k for k in range(nvars))


def _variable(index: int, nvars: int) -> int:
    """The packed monomial of the variable with 0-based ``index``."""
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} outside 0..{nvars - 1}")
    return 1 << FIELD_BITS * nvars | 1 << FIELD_BITS * (nvars - 1 - index)


def _check_exponents(exps, nvars: int) -> tuple[int, ...]:
    exps = tuple(exps)
    if len(exps) != nvars:
        raise ValueError(f"exponent tuple {exps} has length {len(exps)}, expected {nvars}")
    for e in exps:
        if not isinstance(e, int) or not 0 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent tuple {exps}: each exponent must be an integer in 0..{MAX_EXPONENT}")
    return exps


def _overflow(where: str) -> OverflowError:
    return OverflowError(f"an exponent above {MAX_EXPONENT} in {where}")


def _norm(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


_new = object.__new__


def _trusted(nvars: int, packed: dict[int, Coeff]) -> "MultiPoly":
    """A polynomial on ``packed`` as it is: free of zero coefficients, every
    exponent in range.  Only a ``Fraction`` with denominator 1 is turned into
    an ``int``."""
    for c in packed.values():
        if type(c) is Fraction:
            for m, c in packed.items():
                if type(c) is Fraction and c.denominator == 1:
                    packed[m] = c.numerator
            break
    p = _new(MultiPoly)
    p.nvars = nvars
    p.packed = packed
    return p


class MultiPoly:

    __slots__ = ("nvars", "packed")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        packed = {}
        if terms:
            for exps, coeff in terms.items():
                exps = _check_exponents(exps, nvars)
                if coeff:
                    packed[pack(exps)] = _norm(coeff)
        self.packed = packed

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return _trusted(nvars, {})

    @classmethod
    def constant(cls, c: Coeff, nvars: int) -> "MultiPoly":
        return _trusted(nvars, {0: _norm(c)} if c else {})

    @classmethod
    def from_packed(cls, nvars: int, packed: dict[int, Coeff]) -> "MultiPoly":
        """The polynomial on a map of packed monomials, taken as it is: it
        must hold no zero coefficient and only monomials in ``nvars``
        variables with every exponent in range."""
        return _trusted(nvars, packed)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return _trusted(nvars, {0: 1})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        """The single variable with 0-based ``index``."""
        return _trusted(nvars, {_variable(index, nvars): 1})

    @classmethod
    def linear_form(cls, a: int, b: int, nvars: int) -> "MultiPoly":
        """``t_a - t_b`` for 1-based variable indices; 0 if ``a == b``."""
        if a == b:
            return cls.zero(nvars)
        return _trusted(nvars, {_variable(a - 1, nvars): 1, _variable(b - 1, nvars): -1})

    # -- predicates and readers -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def terms(self) -> dict[tuple[int, ...], Coeff]:
        """The tuple-keyed view ``{exponent tuple: coefficient}``, built on read."""
        return {unpack(m, self.nvars): c for m, c in self.packed.items()}

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        """The coefficient of the monomial with exponent tuple ``exps``."""
        return self.packed.get(pack(_check_exponents(exps, self.nvars)), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self.packed) >> FIELD_BITS * self.nvars if self.packed else -1

    def is_homogeneous(self, degree: int | None = None) -> bool:
        shift = FIELD_BITS * self.nvars
        degrees = {m >> shift for m in self.packed}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def constant_term(self) -> Coeff:
        return self.packed.get(0, 0)

    # -- ring operations --------------------------------------------------

    def _operand(self, other):
        """``other`` as a polynomial in the same variables, or None."""
        if type(other) is MultiPoly:
            if self.nvars != other.nvars:
                raise ValueError("variable-count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other, self.nvars)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = self.packed.copy()
        for m, c in other.packed.items():
            acc = terms.get(m, 0) + c
            if acc:
                terms[m] = acc
            else:
                del terms[m]
        return _trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.nvars, {m: -c for m, c in self.packed.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = self.packed.copy()
        for m, c in other.packed.items():
            acc = terms.get(m, 0) - c
            if acc:
                terms[m] = acc
            else:
                del terms[m]
        return _trusted(self.nvars, terms)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return MultiPoly.zero(self.nvars)
            if type(other) is Fraction and other.denominator == 1:
                other = other.numerator
            return _trusted(self.nvars, {m: c * other for m, c in self.packed.items()})
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        left, right = self.packed, other.packed
        if len(left) > len(right):
            left, right = right, left
        if not left:
            return _trusted(self.nvars, {})
        if len(left) == 1:
            # a monomial times a polynomial: distinct products, none zero
            [(m1, c1)] = left.items()
            terms = {m1 + m2: c1 * c2 for m2, c2 in right.items()}
        else:
            terms = {}
            get = terms.get
            for m1, c1 in left.items():
                for m2, c2 in right.items():
                    m = m1 + m2
                    terms[m] = get(m, 0) + c1 * c2
        # every sum is a key here, a cancelled one too
        if functools.reduce(operator.or_, terms, 0) & guard_bits(self.nvars):
            raise _overflow("a product")
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        return _trusted(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is MultiPoly:
            return self.nvars == other.nvars and self.packed == other.packed
        if isinstance(other, (int, Fraction)):
            return self.packed == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its number, which it equals
        packed = self.packed
        if not packed:
            return hash(0)
        if len(packed) == 1 and 0 in packed:
            return hash(packed[0])
        return hash((self.nvars, frozenset(packed.items())))

    # -- substitution and evaluation --------------------------------------

    def substitute_permutation(self, u) -> "MultiPoly":
        """Replace each ``t_i`` by ``t_{u(i)}`` for a permutation ``u`` of [n]."""
        n = self.nvars
        if len(u) != n:
            raise ValueError("permutation size must match variable count")
        # field u(i) of the image holds field i: image byte j is byte source[j]
        source = [0] * n
        for i in range(n):
            source[u[i] - 1] = i
        fields = _fields(n)
        terms = {}
        for m, c in self.packed.items():
            exps = (m & fields).to_bytes(n, "big")
            image = bytes(map(exps.__getitem__, source))
            terms[m - (m & fields) + int.from_bytes(image, "big")] = c
        return _trusted(n, terms)

    def substitute_var(self, a: int, b: int) -> "MultiPoly":
        """Set ``t_a := t_b`` (1-based indices)."""
        shift_a = FIELD_BITS * (self.nvars - a)
        shift_b = FIELD_BITS * (self.nvars - b)
        terms: dict = {}
        for m, coeff in self.packed.items():
            e = m >> shift_a & MAX_EXPONENT
            if e:
                m += (e << shift_b) - (e << shift_a)
                if m >> shift_b & _GUARD:
                    raise _overflow(f"t{a} := t{b}")
            acc = terms.get(m, 0) + coeff
            if acc:
                terms[m] = acc
            else:
                del terms[m]
        return _trusted(self.nvars, terms)

    def evaluate(self, values: Sequence[Coeff]) -> Coeff:
        n = self.nvars
        if len(values) != n:
            raise ValueError("assignment length must match variable count")
        fields = _fields(n)
        total: Coeff = 0
        for m, coeff in self.packed.items():
            prod = coeff
            if m:
                for v, e in zip(values, (m & fields).to_bytes(n, "big")):
                    if e:
                        prod *= v if e == 1 else v**e
            total += prod
        return _norm(Fraction(total)) if isinstance(total, Fraction) else total

    # -- canonical text form ------------------------------------------------

    def sorted_terms(self):
        """Descending graded-lexicographic order: degree first, then t1-major."""
        return [
            (unpack(m, self.nvars), c)
            for m, c in sorted(self.packed.items(), reverse=True)
        ]

    def format(self, names: Sequence[str] | None = None) -> str:
        """The canonical text form, the variables printed as ``names``
        (``t1..tn`` by default)."""
        if not self.packed:
            return "0"
        if names is None:
            names = [f"t{i + 1}" for i in range(self.nvars)]
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
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

    def __str__(self) -> str:
        return self.format()

    __repr__ = __str__


_TERM_RE = re.compile(r"^(?P<coeff>\d+(?:/\d+)?)?(?P<vars>(?:\*?[A-Za-z]\w*(?:\^\d+)?)*)$")


def parse_poly(text: str, nvars: int) -> MultiPoly:
    """Parse the canonical textual format produced by ``str(MultiPoly)``."""
    text = text.replace(" ", "")
    if not text or text == "0":
        return MultiPoly.zero(nvars)
    name_index = {f"t{i + 1}": i for i in range(nvars)}
    pieces = re.findall(r"[+-]?[^+-]+", text)
    if "".join(pieces) != text:
        raise ValueError(f"cannot parse {text!r}: a sign without a term")
    result = MultiPoly.zero(nvars)
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
        try:
            coeff: Coeff = 1 if coeff_text is None else (
                Fraction(coeff_text) if "/" in coeff_text else int(coeff_text)
            )
        except ZeroDivisionError:
            raise ValueError(f"cannot parse {text!r}: a zero denominator") from None
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
        result = result + MultiPoly(nvars, {tuple(exps): sign * coeff})
    return result

"""The tuple-keyed polynomial and the division that rebuilds its remainder:
the references for ``polys.MultiPoly`` on packed monomials and for
``classes._divide_general``.

``TupleMultiPoly`` stores ``{exponent tuple: coefficient}`` and cleans every
result in its constructor; a monomial product is a new tuple.
"""

from fractions import Fraction


def _norm(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class TupleMultiPoly:

    __slots__ = ("nvars", "terms", "names")

    def __init__(self, nvars, terms=None, names=None):
        self.nvars = nvars
        self.names = tuple(names) if names is not None else None
        self.terms = {
            tuple(exps): _norm(coeff) for exps, coeff in (terms or {}).items() if coeff
        }

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars, names=None):
        return cls(nvars, {(0,) * nvars: c}, names)

    @property
    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TupleMultiPoly.constant(other, self.nvars, self.names)
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return TupleMultiPoly(self.nvars, terms, self.names or other.names)

    __radd__ = __add__

    def __neg__(self):
        return TupleMultiPoly(self.nvars, {e: -c for e, c in self.terms.items()}, self.names)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TupleMultiPoly.constant(other, self.nvars, self.names)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TupleMultiPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}, self.names
            )
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, 0) + c1 * c2
        return TupleMultiPoly(self.nvars, terms, self.names or other.names)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == ({} if not other else {(0,) * self.nvars: other})
        if not isinstance(other, TupleMultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def substitute_permutation(self, u):
        """Replace each ``t_i`` by ``t_{u(i)}``."""
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exps):
                new[u[i] - 1] = e
            terms[tuple(new)] = coeff
        return TupleMultiPoly(self.nvars, terms, self.names)

    def substitute_var(self, a, b):
        """Set ``t_a := t_b`` (1-based, ``a != b``)."""
        terms = {}
        for exps, coeff in self.terms.items():
            new = list(exps)
            new[b - 1] += new[a - 1]
            new[a - 1] = 0
            key = tuple(new)
            terms[key] = terms.get(key, 0) + coeff
        return TupleMultiPoly(self.nvars, terms, self.names)

    def evaluate(self, values):
        total = 0
        for exps, coeff in self.terms.items():
            prod = coeff
            for v, e in zip(values, exps):
                prod *= v**e
            total += prod
        return _norm(Fraction(total)) if isinstance(total, Fraction) else total

    def sorted_terms(self):
        """Descending graded-lexicographic order: degree first, then t1-major."""
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    def __str__(self):
        if not self.terms:
            return "0"
        text = ""
        for exps, coeff in self.sorted_terms():
            factors = [
                (self.names[i] if self.names else f"t{i + 1}") + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps) if e
            ]
            mag = abs(coeff)
            body = "*".join(factors)
            if not factors:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if coeff < 0:
                text += "-" + body
            else:
                text += ("+" if text else "") + body
        return text


def divide_general(p, q):
    """Exact division by leading-term elimination (grlex), rebuilding the
    remainder ``remainder - term * q`` at every step; None if ``q`` does not
    divide ``p``."""
    quotient = TupleMultiPoly.zero(p.nvars)
    remainder = p
    q_lead_exp, q_lead_coeff = q.sorted_terms()[0]
    while not remainder.is_zero:
        r_lead_exp, r_lead_coeff = remainder.sorted_terms()[0]
        diff = tuple(a - b for a, b in zip(r_lead_exp, q_lead_exp))
        if any(d < 0 for d in diff):
            return None
        term = TupleMultiPoly(
            p.nvars, {diff: Fraction(r_lead_coeff) / Fraction(q_lead_coeff)}
        )
        quotient = quotient + term
        remainder = remainder - term * q
    return quotient

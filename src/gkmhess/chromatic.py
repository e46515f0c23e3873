"""Chromatic quasisymmetric functions and graded Frobenius characteristics.

The incomparability graph of a Hessenberg function has an edge ``{j, i}``
for every Hessenberg pair ``(j, i)`` in ``h.pairs``.  Colorings are
weighted by ascents: edges ``{j, i}`` with ``j < i`` and a strictly smaller
color at ``j``.  The colorings are counted, not listed: a transfer over
the vertices keeps only the colors of the earlier vertices that later ones
still see.  Each t-coefficient must come out symmetric, which the
construction asserts by comparing rearranged contents.

The graded character side takes traces of the exact action at one
representative per cycle type, its word written one cycle at a time so that
the first cycle's matrix is a prefix product of ``s_1 s_2 ...`` shared
across cycle types, and assembles the Frobenius characteristic in the
power-sum basis (``frobenius_of_degree`` converts it to complete
homogeneous coordinates).  The two sides agree after applying the
elementary/homogeneous involution: the check applies it to the power-sum
character, where it is a sign per cycle type, and compares with the
m-basis chromatic side through the counted p-to-m transition alone, so no
transition matrix is inverted.  Both are palindromic in t (the character
side by hard Lefschetz), so the check compares degree by degree and also
asks the characters to be palindromic; no mirrored statistic is tried.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .dot import ActionMatrix, degree_basis, generator_matrix
from .gkm import HessenbergFunction
from .perms import partitions
from .polys import Coeff
from .symfunc import SymFunc, z_mu


class SymmetryViolationError(AssertionError):
    """A t-coefficient failed to be a symmetric function."""


def chromatic_qsym(h: HessenbergFunction) -> list[SymFunc]:
    """Graded chromatic symmetric function, one m-basis vector per t-degree.

    Counts the proper colorings with colors in [n] by exact content vector
    and ascent count with the transfer of ``_coloring_counts``; the
    coefficient of a monomial basis element is the count at the sorted
    content.  There are ``len(h.pairs) + 1`` degrees, none zero: the
    coloring ``c(v) = n + 1 - v`` is proper with no ascent, and the
    function is palindromic in t.
    """
    n = h.n
    top = len(h.pairs)
    counts = _coloring_counts(h)
    _assert_symmetric(counts, n)

    graded: list[SymFunc] = []
    zero = [0] * (top + 1)
    plist = list(partitions(n))
    for k in range(top + 1):
        coeffs = {}
        for lam in plist:
            value = counts.get(tuple(lam) + (0,) * (n - len(lam)), zero)[k]
            if value:
                coeffs[lam] = Fraction(value)
        graded.append(SymFunc(n, "m", coeffs))
    return graded


def _coloring_counts(h: HessenbergFunction) -> dict[tuple[int, ...], list[int]]:
    """Proper colorings with colors in [n], counted by content and ascents.

    A transfer over the vertices 1..n.  The earlier neighbours of vertex
    ``i`` are the interval ``[first[i], i - 1]`` with ``first[i]`` the least
    ``j`` with ``h(j) >= i``, so a state needs only the colors of that window
    (in vertex order) and the content so far.  Each state maps to its counts
    by ascent, packed into one integer with ``bits`` bits per ascent count,
    and the content is packed in base ``n + 1``.  No count exceeds the
    ``n ** n`` colorings, so the packed counts never carry into each other.
    """
    n = h.n
    top = len(h.pairs)
    bits = (n**n).bit_length()
    place = [0] + [(n + 1) ** (c - 1) for c in range(1, n + 1)]
    first = [0] * (n + 2)
    j = 1
    for i in range(1, n + 2):
        while j < i and h(j) < i:
            j += 1
        first[i] = j

    states: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}
    for i in range(1, n + 1):
        drop = first[i + 1] - first[i]
        moves_of: dict[tuple[int, ...], list[tuple[tuple[int, ...], int, int]]] = {}
        following: dict[tuple[tuple[int, ...], int], int] = {}
        for (window, content), packed in states.items():
            moves = moves_of.get(window)
            if moves is None:
                moves = moves_of[window] = [
                    ((window + (c,))[drop:], place[c], bits * sum(d < c for d in window))
                    for c in range(1, n + 1)
                    if c not in window
                ]
            for next_window, step, shift in moves:
                key = (next_window, content + step)
                following[key] = following.get(key, 0) + (packed << shift)
        states = following

    mask = (1 << bits) - 1
    counts: dict[tuple[int, ...], list[int]] = {}
    for (_window, content), packed in states.items():
        key = tuple(content // place[c] % (n + 1) for c in range(1, n + 1))
        counts[key] = [(packed >> (bits * a)) & mask for a in range(top + 1)]
    return counts


def _assert_symmetric(counts: dict[tuple[int, ...], list[int]], n: int) -> None:
    """All content rearrangements of a partition must produce equal counts.

    Walks the table once, grouping the contents by their sorted form.  Each
    must carry the counts of the sorted content; a rearrangement missing from
    the table counts zero, so a sorted content with any nonzero count needs
    every one of its distinct rearrangements in the table.
    """
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for content in counts:
        groups.setdefault(tuple(sorted(content, reverse=True)), []).append(content)
    for padded, members in groups.items():
        reference = counts.get(padded, [0] * len(counts[members[0]]))
        for content in members:
            for k, value in enumerate(counts[content]):
                if value != reference[k]:
                    raise SymmetryViolationError(
                        f"content {content} count {value} != {reference[k]} at t^{k}"
                    )
        arrangements = math.factorial(n) // math.prod(
            math.factorial(m) for m in Counter(padded).values()
        )
        if len(members) < arrangements and any(reference):
            k = next(k for k, value in enumerate(reference) if value)
            raise SymmetryViolationError(
                f"content {padded} count {reference[k]} but "
                f"{arrangements - len(members)} rearrangements count 0 at t^{k}"
            )


# -- Frobenius characteristics -------------------------------------------------


def frobenius_of_degree(h: HessenbergFunction, k: int) -> SymFunc:
    """Character of degree 2k under the dot action, as an h-basis vector:
    ``_power_sum_character`` converted to complete homogeneous coordinates."""
    return _power_sum_character(h, k).to_basis("h")


def _power_sum_character(h: HessenbergFunction, k: int) -> SymFunc:
    """Frobenius characteristic of degree 2k, as a power-sum vector.

    Traces at one representative per cycle type, from one generator matrix
    per letter; the class function is assembled over power sums with
    centralizer normalization.
    """
    matrices_by_generator = {i: generator_matrix(i, k, h) for i in range(1, h.n)}
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for mu, chi in _cycle_type_traces(h, k, matrices_by_generator).items():
        if chi:
            coeffs[mu] = Fraction(chi, z_mu(mu))
    return SymFunc(h.n, "p", coeffs)


def _cycle_type_traces(h: HessenbergFunction, k: int,
                       matrices_by_generator: dict[int, ActionMatrix]) -> dict[tuple[int, ...], Coeff]:
    """Trace on degree 2k at one permutation of each cycle type.

    The representative of ``mu`` is the product of its increasing cycles
    on consecutive letters, one block
    ``s_a s_{a+1} ... s_{b-1}`` per part on the letters ``a..b``; the blocks
    act on disjoint letters, so they commute.  Its word is written block by
    block and split as ``L R``: ``L`` is the first block, a prefix of
    ``s_1 s_2 ... s_{n-1}`` shared by every ``mu`` with the same first part,
    and ``R`` is the rest; where the rest is empty (every other part is 1),
    ``R`` is the block's last letter.  No word's matrix is formed:
    ``trace(L R) = sum L[x, v] R[v, x]`` over the entries of ``R``.  The
    matrix of each factor is built along its prefixes, each prefix's
    product memoized for the degree; the memo goes when the traces are
    returned.
    """
    products: dict[tuple[int, ...], ActionMatrix] = {}

    def word_matrix(word: tuple[int, ...]) -> ActionMatrix | None:
        if not word:
            return None
        matrix = matrices_by_generator[word[0]]
        for end in range(2, len(word) + 1):
            prefix = word[:end]
            if prefix not in products:
                products[prefix] = matrix.compose(matrices_by_generator[word[end - 1]])
            matrix = products[prefix]
        return matrix

    traces: dict[tuple[int, ...], Coeff] = {}
    for mu in partitions(h.n):
        blocks = _cycle_blocks(mu)
        left_word, right_word = blocks[0], sum(blocks[1:], ())
        if not right_word:  # every other part is 1: R is the block's last letter
            left_word, right_word = left_word[:-1], left_word[-1:]
        left, right = word_matrix(left_word), word_matrix(right_word)
        if left is None:
            traces[mu] = right.trace() if right else len(degree_basis(h, k))
            continue
        left_columns = left.columns
        traces[mu] = sum(
            value * left_columns[v].get(x, 0)
            for x, column in enumerate(right.columns)
            for v, value in column.items()
        )
    return traces


def _cycle_blocks(mu: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The word ``a, a+1, ..., b-1`` of each cycle of the representative of
    ``mu``, on the letters ``a..b`` of its part."""
    blocks = []
    start = 1
    for part in mu:
        blocks.append(tuple(range(start, start + part - 1)))
        start += part
    return blocks


@dataclass
class SwReport:
    h: HessenbergFunction
    agree: bool
    per_degree: list[bool]


def verify_shareshian_wachs(h: HessenbergFunction) -> SwReport:
    """Equality of the chromatic function with the involuted graded
    Frobenius characteristic, degree by degree: ``omega`` of each power-sum
    character, by the sign rule on ``p``, against the m-basis chromatic
    coefficient, compared over the counted p-to-m transition only.

    ``agree`` also asks the characters to be palindromic, degree k equal to
    degree ``top - k``, as hard Lefschetz requires; ``per_degree`` holds the
    degreewise comparisons only.
    """
    graded = chromatic_qsym(h)
    top = len(h.pairs)
    # one degree's generator matrices at a time, freed before the next is built
    characters = [_power_sum_character(h, k) for k in range(top + 1)]
    per_degree = [characters[k].omega() == graded[k] for k in range(top + 1)]
    palindromic = all(characters[k] == characters[top - k] for k in range(top + 1))
    return SwReport(h=h, agree=all(per_degree) and palindromic, per_degree=per_degree)


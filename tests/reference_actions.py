"""Reference implementations that the tests compare the package against.

``walk_sigma_hat_vector`` is the ordinary symmetrized class summed over a
breadth-first walk of the cosets of the fine block subgroup in the coarse
one, one generator application per coset.  ``walk_auxiliary_terms`` builds
the auxiliary summands of the descent case from the inverse permutation and
re-derives the descent set of every permutation it builds.
``unmirrored_expansion`` runs the t = 0 descent recursion for every letter,
reading no expansion off its mirror, on the summands of
``walk_auxiliary_terms``.
``min_length_coset_reps`` finds the shortest element of each coset of the
fine block subgroup in the coarse one by a minimum search over Coxeter
lengths.  ``position_keyed_generator_matrix`` assembles a permutohedral
generator matrix by keying every ``unmirrored_expansion`` by position,
one-term columns included.  ``half_word_traces`` takes each cycle type's trace from
the two halves of its reduced word.  ``omega_through_e`` applies the
involution by converting to the elementary basis and retagging.
``build_auxiliary_class`` sums the auxiliary summands as expanded classes,
the reference for the master identity on root products.
``smooth_point_value`` is the product of the labels of the edges that leave
a class's support at a point, and ``cycle_type_representative`` the
permutation of a cycle type whose cycles are increasing runs of
consecutive letters.  ``flow_up_table`` holds every flow-up class of one h,
the eager basis that the package no longer builds.  ``descent_class`` scans
S_n for the permutations of one descent set, and
``scanned_wz_completeness`` is the lattice check that compares the descent
class with that scan instead of counting it.  ``tuples_type_multiset`` is
the generating function's tally over the tuples of ``tuples_summing``, one
number of parts at a time, and ``reference_closed_expansion`` the genfunc
check with its types, dimensions and total decided apart.
"""

import math
from collections import Counter
from itertools import chain, combinations

import gkmhess.decomp as decomp
from gkmhess.classes import EquivariantClass, RootProduct, permutohedral_class
from gkmhess.decomp import block_subgroups
from gkmhess.dot import (AuxiliaryTerm, ActionMatrix, auxiliary_terms, degree_basis, dot,
                         flow_up_class)
from gkmhess.gkm import GkmGraph
from gkmhess.perms import Permutation, partitions, young_subgroup


def min_length_coset_reps(w):
    """The element of least ``(length, one-line)`` in each coset ``v H``,
    with the cosets keyed by the image sets of the fine value blocks."""
    groups = block_subgroups(w)
    n = len(w)
    fine_blocks = [tuple(sorted(b)) for b in groups.fine_blocks]
    best = {}
    for v in young_subgroup(groups.coarse_blocks, n):
        key = tuple(frozenset(v(x) for x in block) for block in fine_blocks)
        candidate = (v.coxeter_length(), v)
        if key not in best or candidate < best[key]:
            best[key] = candidate
    return sorted(v for _, v in best.values())


def _coset_walk(blocks, vec, generators, matrices):
    """Vectors ``u . vec``, one per coset ``u H`` of the stabilizer ``H`` of
    the value blocks, walked breadth first by the steps ``s_i``, ``i`` in
    ``generators``.  The blocks must be intervals of values."""
    for block in blocks:
        if max(block) - min(block) + 1 != len(block):
            raise ValueError(f"block {sorted(block)} is not an interval of values")
    start = tuple(blocks)
    vectors = {start: vec}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            for i in generators:
                pair = {i, i + 1}
                moved = tuple(b ^ pair if len(b & pair) == 1 else b for b in key)
                if moved not in vectors:
                    vectors[moved] = matrices[i].apply_vector(vectors[key])
                    nxt.append(moved)
        frontier = nxt
    return list(vectors.values())


def walk_sigma_hat_vector(w, matrices):
    """Sum of ``v . e_w`` over the minimal coset representatives ``v`` of
    the fine block subgroup in the coarse one, keyed by basis position."""
    groups = block_subgroups(w)
    total = {}
    e_w = {matrices[1].basis_order.index(w): 1}
    for vec in _coset_walk(groups.fine_blocks, e_w,
                           groups.coarse_simple_generators(), matrices):
        for v, c in vec.items():
            total[v] = total.get(v, 0) + c
    return {v: c for v, c in total.items() if c}


def _descent_block_data(w, i):
    n = len(w)
    w_inv = w.inverse()
    if w_inv(i + 1) + 1 != w_inv(i):
        raise ValueError(f"values {i + 1},{i} are not adjacent-descending in {w}")
    d_here = w_inv(i + 1)
    descents = w.descents()
    index = descents.index(d_here)
    d_prev = descents[index - 1] if index > 0 else 0
    d_next = descents[index + 1] if index + 1 < len(descents) else n
    low = tuple(w(j) for j in range(d_prev + 1, d_here))
    high = tuple(w(j) for j in range(d_here + 2, d_next + 1))
    return d_prev, d_here, d_next, low, high


def walk_auxiliary_terms(w, i):
    """All ``(P, Q)``-summands of the auxiliary class for the descent case."""
    n = len(w)
    d_prev, d_here, d_next, low, high = _descent_block_data(w, i)

    def subsets(values):
        return chain.from_iterable(
            combinations(values, k) for k in range(len(values) + 1)
        )

    w_descents = set(w.descents())
    terms = []
    for p_set in subsets(low):
        for q_set in subsets(high):
            middle = sorted((set(low) | set(high) | {i}) - set(p_set) - set(q_set))
            images = (
                [w(j) for j in range(1, d_prev + 1)]
                + list(p_set)
                + [i + 1]
                + list(q_set)
                + middle
                + [w(j) for j in range(d_next + 1, n + 1)]
            )
            tilde = Permutation(images)
            corrected = list(images)
            tilde_descents = set(tilde.descents())
            if d_prev != 0 and d_prev not in tilde_descents:
                pos = d_prev
                corrected[pos - 1], corrected[pos] = corrected[pos], corrected[pos - 1]
                while (
                    pos - 1 >= 1
                    and pos - 1 in w_descents
                    and corrected[pos - 2] < corrected[pos - 1]
                ):
                    corrected[pos - 2], corrected[pos - 1] = (
                        corrected[pos - 1],
                        corrected[pos - 2],
                    )
                    pos -= 1
            if d_next != n and d_next not in tilde_descents:
                pos = d_next
                corrected[pos - 1], corrected[pos] = corrected[pos], corrected[pos - 1]
                while (
                    pos + 1 <= n - 1
                    and pos + 1 in w_descents
                    and corrected[pos] < corrected[pos + 1]
                ):
                    corrected[pos], corrected[pos + 1] = (
                        corrected[pos + 1],
                        corrected[pos],
                    )
                    pos += 1
            target = Permutation(corrected)
            expected = (w_descents - {d_here}) | {d_prev + len(p_set) + len(q_set) + 1}
            if set(target.descents()) != expected:
                raise AssertionError(
                    f"descent correction failed: w={w}, i={i}, P={p_set}, Q={q_set}"
                )
            mover = tilde * target.inverse()
            terms.append(AuxiliaryTerm(tilde=tilde, target=target, mover=mover))
    return terms


def unmirrored_expansion(w, i, memo):
    """The t = 0 expansion of ``s_i . sigma_w`` as ``{v: int}``: a one-term
    move read off the positions of ``i`` and ``i+1``, or the descent
    recursion, run for every letter ``i`` and held in ``memo`` by ``(w, i)``.
    Each summand other than ``sigma_w`` adds ``(1 - s_i)`` of its mover
    applied to its target."""
    n = len(w)
    j, k = w.index(i), w.index(i + 1)
    if j + 1 == k:
        return {w: 1}
    if k + 1 != j:
        return {Permutation.simple(i, n) * w: 1}
    if (w, i) in memo:
        return memo[(w, i)]
    result = {w: 1}
    for term in walk_auxiliary_terms(w, i):
        if term.tilde == w:
            continue
        summand = {term.target: 1}
        for gen in reversed(term.mover.reduced_word()):
            moved = {}
            for v, c in summand.items():
                for u, d in unmirrored_expansion(v, gen, memo).items():
                    moved[u] = moved.get(u, 0) + c * d
            summand = moved
        for v, c in summand.items():
            result[v] = result.get(v, 0) + c
            for u, d in unmirrored_expansion(v, i, memo).items():
                result[u] = result.get(u, 0) - c * d
    memo[(w, i)] = {v: c for v, c in result.items() if c}
    return memo[(w, i)]


def position_keyed_generator_matrix(i, k, h, memo=None):
    """Matrix of ``s_i`` on permutohedral degree 2k: each column is the
    unmirrored t = 0 expansion ``unmirrored_expansion(w, i, memo)``, keyed
    by position in the degree basis, one-term columns included.  Pass one
    ``memo`` to several calls of one n to share the recursion."""
    order = degree_basis(h, k)
    memo = {} if memo is None else memo
    position = {w: j for j, w in enumerate(order)}
    columns = []
    for w in order:
        image = unmirrored_expansion(w, i, memo)
        try:
            columns.append({position[v]: c for v, c in image.items()})
        except KeyError as exc:
            raise AssertionError(
                f"s_{i} . sigma_{w} leaves degree {k}: it reaches {exc.args[0]}"
            ) from None
    return ActionMatrix(order, columns)


def cycle_type_representative(mu):
    """Canonical permutation with cycle type mu: concatenated increasing cycles."""
    images = []
    start = 1
    for part in mu:
        block = list(range(start, start + part))
        images.extend(block[1:] + block[:1])
        start += part
    return Permutation(images)


def half_word_traces(h, k, matrices_by_generator):
    """Trace at each ``cycle_type_representative``: its reduced word split
    in two halves ``L R``, each built along its prefixes, and
    ``trace(L R) = sum L[x, v] R[v, x]``."""
    products = {}
    traces = {}
    for mu in partitions(h.n):
        word = cycle_type_representative(mu).reduced_word()
        if len(word) < 2:
            traces[mu] = (matrices_by_generator[word[0]].trace() if word
                          else len(degree_basis(h, k)))
            continue
        half = len(word) // 2
        halves = []
        for segment in (word[:half], word[half:]):
            matrix = matrices_by_generator[segment[0]]
            for end in range(2, len(segment) + 1):
                prefix = segment[:end]
                if prefix not in products:
                    products[prefix] = matrix.compose(matrices_by_generator[segment[end - 1]])
                matrix = products[prefix]
            halves.append(matrix.columns)
        left, right = halves
        traces[mu] = sum(
            value * left[v].get(x, 0)
            for x, column in enumerate(right)
            for v, value in column.items()
        )
    return traces


def omega_through_e(f):
    """The involution of ``f``: to the elementary basis, retagged as
    complete homogeneous, back to ``f``'s basis."""
    return f.to_basis("e").omega().to_basis(f.basis)


def build_auxiliary_class(w, i, terms=None):
    """The sum ``sum_{P,Q} mover . sigma_target`` of ``terms`` (by default
    ``auxiliary_terms(w, i)``) as an explicit class."""
    total = EquivariantClass.zero(len(w))
    for term in auxiliary_terms(w, i) if terms is None else terms:
        total = total + dot(term.mover, permutohedral_class(term.target))
    return total


def smooth_point_value(w, v, h, support):
    """Product of labels on edges out of ``v`` leaving the support."""
    return RootProduct.of_labels(
        (a, b) for target, a, b in GkmGraph(h).neighbors(v) if target not in support
    ).expand(h.n)


def flow_up_table(h):
    """``{w: flow_up_class(w, h).cls}`` for every w of S_n."""
    return {w: flow_up_class(w, h).cls for w in Permutation.all(h.n)}


def descent_class(a):
    """The permutations whose descent set is S(a), by a scan of S_n."""
    target = a.descent_set()
    return [w for w in Permutation.all(a.n) if w.descents() == target]


def scanned_wz_completeness(a):
    """Lattice vertices vs composition-preserving coset translates, each
    compared with the descent class of a: equal to it when the composition
    is a run of ones followed by at most one larger part, and inside it
    otherwise.  The pieces are read off the ``decomp`` module, so a fault
    planted there reaches this check too."""
    graph = decomp.composition_graph(a)
    from_graph = {decomp.w_z(a, z) for z in graph.vertices}
    w0 = decomp.generator_permutation(a)
    reps = decomp.symmetrizer_coset_reps(w0)
    by_cosets = {v * w0 for v in reps if (v * w0).descents() == w0.descents()}
    if from_graph != by_cosets:
        return False
    if sum(1 for p in a if p > 1) <= 1 and len(decomp.admissible_decomposition(a)) == 1:
        return from_graph == set(descent_class(a))
    return from_graph <= set(descent_class(a))


def tuples_summing(total, parts, minimum):
    """The tuples of ``parts`` integers, each at least ``minimum``, summing to
    ``total``, by recursion on the first part."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in tuples_summing(total - first, parts - 1, minimum):
            yield (first,) + rest


def tuples_type_multiset(n, k):
    """``decomp.expected_type_multiset`` over ``tuples_summing``: the tuples
    of ``m`` parts at least 2 summing to ``n + 1``, for each ``m``."""
    out = {}
    for m in range(1, (n + 1) // 2 + 1):
        for ks in tuples_summing(n + 1, m, minimum=2):
            coeffs = [1]
            for ki in ks:
                coeffs = decomp._poly_mul(coeffs, [1] * (ki - 1))
            shifted_degree = k - (m - 1)
            if 0 <= shifted_degree < len(coeffs) and coeffs[shifted_degree]:
                key = tuple(ks[:-1]) + (ks[-1] - 1,)
                out[key] = out.get(key, 0) + coeffs[shifted_degree]
    return out


def reference_closed_expansion(n):
    """(verdict, total dimension) of the genfunc check, with the types and
    the dimensions decided apart against ``tuples_type_multiset`` and the
    Eulerian numbers; the total is 0 unless it is n factorial."""
    agree_types = agree_dims = True
    total = 0
    for k in range(n):
        observed = Counter(tuple(decomp.erased_composition(w.descent_composition()))
                           for w in decomp.g_set(n, k))
        dim = sum(count * decomp.module_dimension(a_hat) for a_hat, count in observed.items())
        agree_types = agree_types and observed == tuples_type_multiset(n, k)
        agree_dims = agree_dims and dim == decomp.eulerian_number(n, k)
        total += dim
    total = total if total == math.factorial(n) else 0
    return agree_types and agree_dims and total > 0, total

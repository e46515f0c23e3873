"""Erasing-marks machinery and permutation-module decompositions.

Fix the permutohedral Hessenberg function.  Erasing a descent set removes 1
and every descent whose predecessor is also a descent; the surviving marks
cut a coarser composition.  For each degree ``k`` the generators are the
permutations with ``k`` descents whose class support contains the longest
element; symmetrizing such a class over cosets of the block subgroup of its
erased composition produces a generator whose orbit spans one permutation
module, and the modules over all generators decompose the whole degree.
The module types of each degree match a closed product formula, the
generating function of ``expected_type_multiset``.

The check runs in ordinary cohomology: a symmetrized class comes from the
generator matrices of the dot action by a symmetrizer factorized along
parabolic subgroups, and its orbit by one walk over cosets; the equivariant
``sigma_hat`` is the reference they are tested against.  A degree's modules
are built once, by ``verify_decomposition``, whose report keeps the rows it ranked.

The lattice graphs attached to compositions organize the permutations with
a fixed descent composition as words in commuting simple reflections; they
drive the positivity statement for the leading part of each symmetrized
class and give the coset-representative bookkeeping.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .classes import EquivariantClass, permutohedral_class
from .dot import ActionMatrix, degree_basis, dot, generator_matrix
from .gkm import HessenbergFunction
from .perms import Composition, Permutation, young_subgroup
from .polys import Coeff


def erase(descents) -> frozenset[int]:
    """Keep ``d`` unless ``d == 1`` or ``d - 1`` is also a descent."""
    marks = frozenset(descents)
    return frozenset(d for d in marks if d != 1 and d - 1 not in marks)


def erased_composition(a: Composition) -> Composition:
    return Composition.from_descent_set(erase(a.descent_set()), a.n)


def generator_permutation(a: Composition) -> Permutation:
    """The permutation whose descent composition is ``a`` and whose class
    support contains the longest element: descending blocks of consecutive
    runs ``n-d_1+1..n | n-d_2+1..n-d_1 | ... | 1..n-d_k``."""
    n = a.n
    cuts = (0,) + a.descent_set() + (n,)
    images: list[int] = []
    for s in range(len(cuts) - 1):
        lo = n - cuts[s + 1] + 1
        hi = n - cuts[s]
        images.extend(range(lo, hi + 1))
    return tuple.__new__(Permutation, images)


def g_set(n: int, k: int) -> list[Permutation]:
    """Module generators in degree k: one per (k+1)-composition of n."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"degree {k} outside [0,{n - 1}]")
    return sorted(
        generator_permutation(a) for a in Composition.all(n, k + 1)
    )


# -- block subgroups and coset representatives -------------------------------


@dataclass(frozen=True)
class BlockSubgroups:
    """Value blocks of w (descent blocks) and of its erased composition."""

    fine_blocks: tuple[frozenset[int], ...]   # J_s, one per descent block
    coarse_blocks: tuple[frozenset[int], ...]  # J-hat_t, per erased block

    def coarse_simple_generators(self) -> list[int]:
        """Indices i with both values i, i+1 in one coarse block."""
        return sorted(i for block in self.coarse_blocks for i in block if i + 1 in block)


def block_subgroups(w: Permutation) -> BlockSubgroups:
    def blocks(cuts):
        cuts = (0,) + tuple(sorted(cuts)) + (len(w),)
        return tuple(frozenset(w(m) for m in range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:]))

    descents = w.descents()
    return BlockSubgroups(fine_blocks=blocks(descents), coarse_blocks=blocks(erase(descents)))


def symmetrizer_coset_reps(w: Permutation) -> list[Permutation]:
    """Minimal-length representatives of (coarse subgroup)/(fine subgroup),
    sorted: the ``v`` that increase on every fine value block.  Swapping two
    values of a block that ``v`` maps out of order stays in ``v H`` and
    shortens ``v``, so the shortest element of each coset is this one.
    """
    groups = block_subgroups(w)
    fine_blocks = [sorted(b) for b in groups.fine_blocks]
    return sorted(
        v for v in young_subgroup(groups.coarse_blocks, len(w))
        if all(v[a - 1] < v[b - 1] for block in fine_blocks for a, b in zip(block, block[1:]))
    )


def sigma_hat(w: Permutation) -> EquivariantClass:
    """Symmetrization of the basis class over the erased-block cosets."""
    n = len(w)
    total = EquivariantClass.zero(n)
    base = permutohedral_class(w)
    for v in symmetrizer_coset_reps(w):
        total = total + dot(v, base)
    return total


# -- composition graphs --------------------------------------------------------


def admissible_decomposition(a: Composition) -> list[Composition]:
    """Greedy left-to-right split into maximal blocks ``1,..,1,big,..,big``.

    A new block starts at each 1 that follows a part larger than 1; the
    erasure of the whole composition is then the concatenation of the block
    erasures and the number of blocks is minimal.
    """
    blocks: list[Composition] = []
    current: list[int] = []
    for part in a:
        if part == 1 and any(p > 1 for p in current):
            blocks.append(Composition(current))
            current = []
        current.append(part)
    if current:
        blocks.append(Composition(current))
    return blocks


@dataclass(frozen=True)
class CompositionGraph:
    """Product of the simplex-lattice graphs of the admissible blocks."""

    a: Composition
    blocks: tuple[Composition, ...]
    vertices: tuple[tuple[tuple[int, ...], ...], ...]
    # edges: (source vertex, target vertex, simple-reflection label) with
    # target one step up in one coordinate of one factor
    edges: tuple[tuple[tuple, tuple, int], ...]

    def origin(self) -> tuple[tuple[int, ...], ...]:
        return tuple((0,) * _ones_count(block) for block in self.blocks)


def _ones_count(block: Composition) -> int:
    """Number of leading ones: the lattice dimension of the block graph."""
    m = 0
    for part in block:
        if part == 1:
            m += 1
        else:
            break
    return m


def _block_vertices(block: Composition) -> list[tuple[int, ...]]:
    m = _ones_count(block)
    if m == 0:
        return [()]
    if len(block) == m:  # all ones, no large part
        return [(0,) * m]
    cap = block[m] - 1
    out = []
    for combo in itertools.combinations_with_replacement(range(cap + 1), m):
        out.append(tuple(sorted(combo, reverse=True)))
    return sorted(set(out), reverse=True)


def _block_edge_label(block: Composition, z_j: int, j: int) -> int:
    """Label of the edge raising coordinate ``j`` (0-based) from ``z_j``."""
    return block.n - _ones_count(block) + j - z_j


def _offsets(blocks) -> list[int]:
    """Per block, the total weight of the blocks after it: its label shift."""
    return [sum(b.n for b in blocks[i + 1:]) for i in range(len(blocks))]


def composition_graph(a: Composition) -> CompositionGraph:
    blocks = tuple(admissible_decomposition(a))
    per_block = [_block_vertices(b) for b in blocks]
    offsets = _offsets(blocks)
    vertices = [tuple(v) for v in itertools.product(*per_block)]
    edges = []
    for vertex in vertices:
        for bi, block in enumerate(blocks):
            z = vertex[bi]
            m = _ones_count(block)
            if len(block) == m or m == 0:
                continue
            cap = block[m] - 1
            for j in range(m):
                up = z[j] + 1
                if up > cap or (j > 0 and up > z[j - 1]):
                    continue
                raised = z[:j] + (up,) + z[j + 1:]
                target = vertex[:bi] + (raised,) + vertex[bi + 1:]
                label = _block_edge_label(block, z[j], j) + offsets[bi]
                edges.append((vertex, target, label))
    return CompositionGraph(
        a=a, blocks=blocks, vertices=tuple(sorted(vertices, reverse=True)),
        edges=tuple(edges),
    )


def w_z(a: Composition, z) -> Permutation:
    """Permutation attached to a lattice vertex: apply the edge labels of a
    shortest path from the origin, as value swaps, to the generator."""
    graph = composition_graph(a)
    z = tuple(tuple(part) for part in z)
    if z not in graph.vertices:
        raise ValueError(f"{z} is not a vertex of the graph of {tuple(a)}")
    result = generator_permutation(a)
    for block, coords, offset in zip(graph.blocks, z, _offsets(graph.blocks)):
        for j, top in enumerate(coords):
            for z_j in range(top):
                label = _block_edge_label(block, z_j, j) + offset
                if not 0 < label < a.n:  # a labelling fault, not the caller's
                    raise AssertionError(f"label {label} of {tuple(a)} at {z} outside [1,{a.n - 1}]")
                result = Permutation.simple(label, a.n) * result
    return result


def verify_wz_completeness(a: Composition) -> bool:
    """Lattice vertices vs composition-preserving coset translates.

    The two always agree; when the composition is a run of ones followed by
    at most one larger part they moreover exhaust the whole descent class,
    which the check then also asserts.  The translates keep the generator's
    descents, so once those are S = S(a) the translates lie in the descent
    class, and they exhaust it when they are as many as its size
    ``beta_n(S)``: by inclusion-exclusion, the signed sum over T in S of the
    module dimension of the composition of T.  S_n is never scanned.
    """
    graph = composition_graph(a)
    from_graph = {w_z(a, z) for z in graph.vertices}
    w0 = generator_permutation(a)
    reps = symmetrizer_coset_reps(w0)
    by_cosets = {
        v * w0 for v in reps if (v * w0).descents() == w0.descents()
    }
    marks = a.descent_set()
    if from_graph != by_cosets or w0.descents() != marks:
        return False
    if sum(1 for p in a if p > 1) <= 1 and len(admissible_decomposition(a)) == 1:
        size = sum((-1) ** (len(marks) - k)
                   * module_dimension(Composition.from_descent_set(t, a.n))
                   for k in range(len(marks) + 1)
                   for t in itertools.combinations(marks, k))
        return len(from_graph) == size
    return True


# -- decomposition verification -------------------------------------------------


_MOD_PRIME = 2_147_483_647  # 2^31 - 1
_FALLBACK_PRIME = 2_147_483_629


def _rank_mod_p(rows: list[dict[int, int]], p: int = _MOD_PRIME) -> int:
    """Rank modulo the prime ``p`` of sparse integer rows ``{column: value}``.

    Rows are taken shortest first and brought to echelon form: each is
    reduced by the pivot rows so far in increasing pivot column, and what is
    left takes its smallest column as pivot.  A pivot row is stored scaled
    to 1 at its pivot, with that column dropped; its other columns all lie
    above the pivot, so reducing by it never reopens a column already done.
    """
    pivots: dict[int, dict[int, int]] = {}
    for source in sorted(rows, key=len):
        row = {c: v % p for c, v in source.items() if v % p}
        pending = [c for c in row if c in pivots]
        heapq.heapify(pending)
        while pending:
            col = heapq.heappop(pending)
            factor = row.pop(col, 0)
            if not factor:
                continue  # pushed twice, or cancelled by an earlier pivot
            for c, v in pivots[col].items():
                if c in row:
                    value = (row[c] - factor * v) % p
                    if value:
                        row[c] = value
                    else:
                        del row[c]
                else:
                    row[c] = -factor * v % p
                    if c in pivots:
                        heapq.heappush(pending, c)
        if row:
            col = min(row)
            inverse = pow(row.pop(col), -1, p)
            pivots[col] = {c: v * inverse % p for c, v in row.items()}
    return len(pivots)


def _certified_rank(rows: list[dict[int, int]], expected: int) -> int:
    """Rank of integer rows, retried at a second prime when short of
    ``expected``: a rank mod p never exceeds the rational rank, so the
    larger one is the better lower bound."""
    rank = _rank_mod_p(rows)
    if rank != expected:
        rank = max(rank, _rank_mod_p(rows, p=_FALLBACK_PRIME))
    return rank


def _check_intervals(blocks) -> None:
    for block in blocks:
        if max(block) - min(block) + 1 != len(block):
            raise ValueError(f"block {sorted(block)} is not an interval of values")


def coset_orbit_vectors(
    w: Permutation,
    vec: dict[int, Coeff],
    matrices: dict[int, ActionMatrix],
) -> list[dict[int, Coeff]]:
    """Ordinary vectors ``u . vec``, one per coset ``u H`` of the coarse block
    subgroup ``H`` of ``w``, walked breadth first by the steps ``s_i``: a
    coset is keyed by the image sets of the blocks, and a step swaps the
    values ``i`` and ``i+1`` in the key.  The coarse blocks must be intervals
    of values (``ValueError`` otherwise), as for generators; ``H`` is then
    parabolic, and each coset is first reached through its minimal ``u``."""
    start = block_subgroups(w).coarse_blocks
    _check_intervals(start)
    vectors = {start: vec}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            for i in range(1, len(w)):
                pair = {i, i + 1}
                moved = tuple(b ^ pair if len(b & pair) == 1 else b for b in key)
                if moved not in vectors:
                    vectors[moved] = matrices[i].apply_vector(vectors[key])
                    nxt.append(moved)
        frontier = nxt
    return list(vectors.values())


def sigma_hat_vector(w: Permutation,
                     matrices: dict[int, ActionMatrix]) -> dict[int, Coeff]:
    """Ordinary image of ``sigma_hat(w)``: the reduction commutes with the
    dot action and takes the class of ``w`` to ``e_w``, so it is the sum of
    ``v . e_w`` over the minimal coset representatives ``v`` of the fine
    block subgroup in the coarse one.  The fine subgroup fixes ``e_w``, so
    that is the sum over the whole coarse subgroup over ``|W_fine|``; on a
    coarse block ``[p..q]`` the sum over ``S_[p..m]`` is ``(1 + s_{m-1} +
    s_{m-2} s_{m-1} + ... + s_p ... s_{m-1})`` times the sum over
    ``S_[p..m-1]``.  The blocks must be intervals of values (``ValueError``
    otherwise), which holds exactly for generators; a fine generator that
    moves ``e_w``, or a sum that ``|W_fine|`` does not divide, raises
    ``AssertionError``, as does a ``w`` outside the degree basis of its
    descent count, the basis that ``matrices`` must act on."""
    groups = block_subgroups(w)
    _check_intervals(groups.fine_blocks + groups.coarse_blocks)
    k = len(w.descents())
    basis = degree_basis(HessenbergFunction.permutohedral(len(w)), k)
    start = bisect_left(basis, w)
    if basis[start:start + 1] != (w,):
        raise AssertionError(f"generator {w} lies outside the degree-{k} basis")
    e_w = {start: 1}
    for block in groups.fine_blocks:
        for i in range(min(block), max(block)):
            if matrices[i].apply_vector(e_w) != e_w:
                raise AssertionError(f"s_{i} of the fine block subgroup moves e_{w}")
    total = e_w
    for block in groups.coarse_blocks:
        p = min(block)
        for m in range(p + 1, max(block) + 1):
            summed = dict(total)
            moved = total
            for j in range(m - 1, p - 1, -1):
                moved = matrices[j].apply_vector(moved)
                for v, c in moved.items():
                    summed[v] = summed.get(v, 0) + c
            total = summed
    order = math.prod(math.factorial(len(block)) for block in groups.fine_blocks)
    if any(c % order for c in total.values()):
        raise AssertionError(f"the symmetrized sum of e_{w} is not divisible by |W_fine| = {order}")
    return {v: c // order for v, c in total.items() if c}


@dataclass
class ModuleReport:
    """The module of generator ``w``; ``rows`` is its orbit, one sparse integer
    row per coset keyed by degree-basis position, as ranked and as
    ``decompose --emit-basis`` prints it."""

    w: Permutation
    a: tuple[int, ...]
    a_hat: tuple[int, ...]
    dim_expected: int
    dim_computed: int
    stabilizer_exact: bool
    rows: list[dict[int, int]] = field(repr=False)

    @property
    def module_type(self) -> tuple[int, ...]:
        return tuple(sorted(self.a_hat, reverse=True))


@dataclass
class DecompositionReport:
    n: int
    k: int
    modules: list[ModuleReport]
    direct_sum: bool
    total_dim: int
    eulerian: int
    genfunc_match: bool
    # generators outside the degree basis of the matrices: no module, a failure
    outside_basis: list[Permutation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            not self.outside_basis
            and self.direct_sum
            and self.total_dim == self.eulerian
            and all(m.dim_computed == m.dim_expected for m in self.modules)
            and all(m.stabilizer_exact for m in self.modules)
            and self.genfunc_match
        )


def expected_type_multiset(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Multiset of erased compositions in degree k from the generating
    function: each composition ``k_1..k_m`` of ``n + 1`` with every part at
    least 2, read as ``k_i = c_i + 1`` off a composition ``c`` of ``n + 1 - m``,
    contributes ``(k_1, ..., k_{m-1}, k_m - 1)`` with multiplicity the t^k
    coefficient of ``t^{m-1} prod [k_i - 1]_t``."""
    out: dict[tuple[int, ...], int] = {}
    for m in range(1, (n + 1) // 2 + 1):
        for c in Composition.all(n + 1 - m, m):
            coeffs = [1]
            for part in c:
                coeffs = _poly_mul(coeffs, [1] * part)
            shifted_degree = k - (m - 1)
            if 0 <= shifted_degree < len(coeffs) and coeffs[shifted_degree]:
                key = tuple(part + 1 for part in c[:-1]) + (c[-1],)
                out[key] = out.get(key, 0) + coeffs[shifted_degree]
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def module_dimension(a_hat) -> int:
    """``n!/|S_a_hat|``, the dimension of the permutation module of ``a_hat``."""
    return math.factorial(sum(a_hat)) // math.prod(map(math.factorial, a_hat))


def eulerian_number(n: int, k: int) -> int:
    """Permutations of [n] with k descents, by the recurrence
    A(m, j) = (j + 1) A(m - 1, j) + (m - j) A(m - 1, j - 1), so that it
    checks the degree bases that ``gkm.degree_bases`` reads off its table."""
    row = [1]  # A(1, 0), and A(0, 0) for the empty permutation
    for m in range(2, n + 1):
        padded = [0] + row + [0]
        row = [(j + 1) * padded[j + 1] + (m - j) * padded[j] for j in range(m)]
    return row[k] if 0 <= k < len(row) else 0


def verify_closed_expansion(n: int) -> tuple[bool, int]:
    """The module types of each degree, read off the generators' erased
    compositions, against ``expected_type_multiset``, and the degree
    dimensions against the descent counts.  Returns the verdict and the sum
    of the module dimensions, or 0 where that sum is not n factorial."""
    passed, total = True, 0
    for k in range(n):
        observed = Counter(tuple(erased_composition(w.descent_composition()))
                           for w in g_set(n, k))
        dim = sum(count * module_dimension(a_hat) for a_hat, count in observed.items())
        if observed != expected_type_multiset(n, k) or dim != eulerian_number(n, k):
            passed = False
        total += dim
    return passed, total if total == math.factorial(n) else 0


def verify_decomposition(n: int, k: int) -> DecompositionReport:
    """Check the degree-k permutation-module decomposition exactly.

    Per generator: the orbit of the symmetrized class spans a module of
    dimension ``n!/|block subgroup|`` whose stabilizer is exactly that
    subgroup; the spans over all generators are independent and fill the
    degree.  The symmetrized class and its orbit are ordinary vectors built
    from the generator matrices (``sigma_hat_vector``, ``coset_orbit_vectors``);
    each module's report keeps its orbit as the integer rows that are ranked.

    The rows of all modules are stacked and ranked once, modulo a large
    prime, which is exact in the passing direction: a full rank certifies
    the direct sum and, since each module contributes exactly its expected
    number of rows, the independence of every module's rows.  A short rank
    is retried at a second prime; only if the direct sum still falls short
    is each module ranked on its own, to name the modules at fault.  A
    generator outside the degree basis builds no module and fails the
    report, named in ``outside_basis``.
    """
    h = HessenbergFunction.permutohedral(n)
    matrices = {i: generator_matrix(i, k, h) for i in range(1, n)}
    basis = set(degree_basis(h, k))
    generators = g_set(n, k)
    outside = [w for w in generators if w not in basis]

    modules: list[ModuleReport] = []
    for w in generators:
        if w in outside:
            continue
        vec = sigma_hat_vector(w, matrices)
        rows = coset_orbit_vectors(w, vec, matrices)
        a = w.descent_composition()
        a_hat = tuple(erased_composition(a))
        expected_dim = module_dimension(a_hat)
        if len(rows) != expected_dim:
            raise AssertionError(
                f"coset walk found {len(rows)} cosets, expected {expected_dim}"
            )
        modules.append(ModuleReport(
            w=w, a=tuple(a), a_hat=a_hat, dim_expected=expected_dim, dim_computed=expected_dim,
            stabilizer_exact=_stabilizer_exact(w, vec, matrices), rows=rows,
        ))

    total = sum(m.dim_expected for m in modules)
    stacked = [row for m in modules for row in m.rows]
    direct_sum = _certified_rank(stacked, total) == total
    if not direct_sum:
        for m in modules:
            m.dim_computed = _certified_rank(m.rows, m.dim_expected)

    genfunc_match = Counter(m.a_hat for m in modules) == expected_type_multiset(n, k)

    return DecompositionReport(
        n=n,
        k=k,
        modules=modules,
        direct_sum=direct_sum,
        total_dim=total,
        eulerian=eulerian_number(n, k),
        genfunc_match=genfunc_match,
        outside_basis=outside,
    )


def _stabilizer_exact(
    w: Permutation,
    vec: dict[int, Coeff],
    matrices: dict[int, ActionMatrix],
) -> bool:
    """Every simple generator of the block subgroup fixes the vector; every
    other simple reflection moves it (exactness then follows from the
    dimension count)."""
    inside = set(block_subgroups(w).coarse_simple_generators())
    return all((i in inside) == (matrices[i].apply_vector(vec) == vec) for i in range(1, len(w)))

"""Exact integer linear algebra and coset enumeration.

Everything here runs over Python's arbitrary-precision integers; no
floating point and no modular shortcuts.  A matrix is held as sparse
rows, and the Smith normal form works on them: it records its row and
column operations, which reach a diagonal form (not always the
divisibility chain, which is read off that diagonal) so any result can
be replayed and checked against the input matrix.  The coset enumerator
is a deterministic HLT-style procedure with a hard coset budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod

from .presentation import GroupPresentation, Word, _cyclic, _reduce
# bound here for bench/test_bench.py::test_wrappers_rebind_every_name_and_restore_originals
from .presentation import simplify  # noqa: F401
from .verdicts import (FiniteOrder, InfiniteOrder, OrderVerdict, UnknownOrder)

DEFAULT_COSET_BUDGET = 100_000


@dataclass(frozen=True)
class IntMatrix:
    """Integer matrix as sparse rows (read-only): ``nonzero[i]`` is row i,
    a ``{column: value}`` dict with no zeros; a missing entry reads 0.

    >>> m = IntMatrix.from_rows([[2, 0, 0], [0, 0, -3]])
    >>> m.nonzero, m[1, 2], m[1, 0]
    (({0: 2}, {2: -3}), -3, 0)
    """

    rows: int
    cols: int
    nonzero: tuple[dict[int, int], ...]

    def __post_init__(self):
        if len(self.nonzero) != self.rows:
            raise ValueError("row count does not match shape")
        if not all(v and 0 <= j < self.cols for row in self.nonzero for j, v in row.items()):
            raise ValueError("a stored zero or a column out of range")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, tuple([{j: v for j, v in enumerate(r) if v} for r in rows]))

    def __getitem__(self, idx):
        return self.nonzero[idx[0]].get(idx[1], 0)


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant-factor form of a finitely generated abelian group.

    ``torsion`` is the divisibility chain d_1 | d_2 | ... with each
    d_i >= 2, so e.g. Z/2 + Z/4 is (2, 4) and Z/3 + Z/5 is (15,).
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError("torsion coefficients must form a chain")


# -- Smith normal form -----------------------------------------------------

def _apply(a: list[dict[int, int]], op):
    """One elementary move on sparse rows, ``{column: value}`` dicts that
    hold no zeros."""
    kind, i = op[0], op[1]
    if kind == "add_row":  # row_i += k * row_j
        _, _, j, k = op
        row = a[i]
        for c, v in a[j].items():
            x = row.get(c, 0) + k * v
            if x:
                row[c] = x
            else:
                row.pop(c, None)
    elif kind == "add_col":  # col_i += k * col_j
        _, _, j, k = op
        for row in a:
            if j in row:
                x = row.get(i, 0) + k * row[j]
                if x:
                    row[i] = x
                else:
                    row.pop(i, None)
    elif kind == "swap_rows":
        j = op[2]
        a[i], a[j] = a[j], a[i]
    elif kind == "swap_cols":
        j = op[2]
        for row in a:
            x, y = row.pop(i, 0), row.pop(j, 0)
            if y:
                row[i] = y
            if x:
                row[j] = x
    elif kind == "negate_row":
        a[i] = {c: -v for c, v in a[i].items()}
    elif kind == "negate_col":
        for row in a:
            if i in row:
                row[i] = -row[i]
    else:  # pragma: no cover
        raise ValueError(f"unknown transform {kind!r}")


def apply_transforms(m: IntMatrix, transforms) -> IntMatrix:
    """Replay recorded row/column operations on a matrix."""
    a = [dict(r) for r in m.nonzero]
    for op in transforms:
        _apply(a, op)
    return IntMatrix(m.rows, m.cols, tuple(a))


def _place_lone(a: list[dict[int, int]], cols: int, ops: list) -> int:
    """Put every entry that is alone in its row and its column onto the
    leading diagonal, made nonnegative, in row order; returns how many.

    A column that only rows of one entry hold is first brought down to
    one such row by Euclid's row moves among them, which touch no other
    row.  The moves are appended to ``ops`` as ``add_row``, ``swap_rows``,
    ``swap_cols`` and ``negate_row`` ops that replay to the same matrix,
    but the columns are relabelled once for all of them.  One pass over
    the nonzero entries finds the columns, and a matrix without a row of
    one entry is not read at all.
    """
    if 1 not in map(len, a):
        return 0
    # column -> the rows that hold it as their only entry
    alone: dict[int, list[int]] = {}
    shared: set[int] = set()
    for i, row in enumerate(a):
        if len(row) == 1:
            for j in row:
                alone.setdefault(j, []).append(i)
        else:
            shared.update(row)
    lone = []
    for j, held in alone.items():
        if j in shared:
            continue
        while len(held) > 1:
            held.sort(key=lambda i: abs(a[i][j]))
            p = held[0]
            for r in held[1:]:
                q, x = divmod(a[r][j], a[p][j])
                ops.append(("add_row", r, p, -q))
                a[r] = {j: x} if x else {}
            held = [i for i in held if a[i]]
        lone.append((held[0], j, a[held[0]][j]))
    if not lone:
        return 0
    lone.sort()
    col_at = list(range(cols))
    col_pos = col_at[:]
    for t, (i, j, v) in enumerate(lone):
        # the lone rows come in row order, so row i has not moved yet
        if i != t:
            ops.append(("swap_rows", t, i))
            a[t], a[i] = a[i], a[t]
        p = col_pos[j]
        if p != t:
            ops.append(("swap_cols", t, p))
            col_at[t], col_at[p] = j, col_at[t]
            col_pos[j], col_pos[col_at[p]] = t, p
        if v < 0:
            ops.append(("negate_row", t))
        a[t] = {t: abs(v)}
    k = len(lone)
    # a lone column holds nothing else, so the other rows keep off them
    a[k:] = [{col_pos[c]: v for c, v in row.items()} for row in a[k:]]
    return k


def _diagonalize(a: list[dict[int, int]], cols: int) -> list[tuple]:
    """Diagonalize sparse rows with unimodular row/column moves; returns
    the op list.

    The entries alone in their row and column are placed first
    (:func:`_place_lone`), so a matrix that is diagonal up to the order of
    its rows and columns, like the reduced relation matrix of a canonical
    spine, takes no pivot step.  Then, pivot choice: the nonzero entry of
    smallest absolute value in the remaining submatrix, ties broken by
    (row, col), so the order of the row dicts does not matter.  The pivot
    clears its column, then its row, and a remainder re-picks the pivot.
    The pivot search and the moves read only nonzero entries, plus one
    membership test per row for a column.  The diagonal reached is
    nonnegative but need not be a divisibility chain.
    """
    ops: list[tuple] = []
    t = _place_lone(a, cols, ops)
    rows = len(a)
    last = min(rows, cols)
    while t < last:
        # rows are scanned in order, so a later row never wins a tie
        least, pi, pj = 0, t, t
        for i in range(t, rows):
            for j, v in a[i].items():
                v = abs(v)
                if not least or v < least or (v == least and i == pi and j < pj):
                    least, pi, pj = v, i, j
            if least == 1:
                break  # a unit: no later row can win the tie
        if not least:
            break
        if pi != t:
            ops.append(("swap_rows", t, pi))
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            ops.append(("swap_cols", t, pj))
            _apply(a, ops[-1])
        if a[t][t] < 0:
            ops.append(("negate_row", t))
            a[t] = {c: -v for c, v in a[t].items()}
        pivot = a[t][t]
        dirty = False
        # rows above t hold nothing in column t
        for i in range(t + 1, rows):
            if t in a[i]:
                q = a[i][t] // pivot
                if q:
                    ops.append(("add_row", i, t, -q))
                    _apply(a, ops[-1])
                dirty = dirty or t in a[i]
        if not dirty:
            # column t now holds the pivot alone, so a column move changes
            # row t alone: its entry drops to the remainder
            row = a[t]
            for j in sorted(row):
                if j == t:
                    continue
                q, r = divmod(row[j], pivot)
                if q:
                    ops.append(("add_col", j, t, -q))
                    if r:
                        row[j] = r
                    else:
                        del row[j]
                dirty = dirty or r != 0
        if not dirty:
            t += 1
    return ops


def _chain(diagonal) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (each >= 2) of the group
    Z/e_1 + Z/e_2 + ... for positive ``diagonal`` entries e_i: pairwise
    (gcd, lcm) moves, then the units dropped."""
    d = [e for e in diagonal if e != 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple([e for e in d if e != 1])


def smith_normal_form(m: IntMatrix):
    """Invariant factors of the cokernel Z^cols / (row space of m).

    Returns ``(AbelianInvariants, transforms)`` where the transforms are
    the recorded elementary operations; replaying them on the input with
    :func:`apply_transforms` reproduces *a* diagonal form, which makes the
    computation independently checkable.  It need not be the Smith form:
    :func:`_chain` of its nonzero entries gives the invariant factors.
    """
    a = [dict(r) for r in m.nonzero]
    ops = _diagonalize(a, m.cols)
    nonzero = [d for row in a for d in row.values()]
    return AbelianInvariants(m.cols - len(nonzero), _chain(nonzero)), tuple(ops)


def _column_matrix(transforms, n: int) -> list[dict[int, int]]:
    """The column operations accumulated into the unimodular matrix V
    with (input) @ V = (diagonal form), as sparse rows.  No runtime path
    calls it: it is the tests' reference route for the image of a word in
    H1, and the benchmark's replay layer traces it."""
    v = [{i: 1} for i in range(n)]
    for op in transforms:
        if op[0] in ("swap_cols", "negate_col", "add_col"):
            _apply(v, op)
    return v


def _exponents(word: Word, index: dict[str, int]) -> dict[int, int]:
    """Exponent sums of ``word``, cancelled ones dropped, as a sparse row."""
    row: dict[int, int] = {}
    for n, e in word.syllables:
        row[index[n]] = row.get(index[n], 0) + e
    return {j: e for j, e in row.items() if e}


def relation_matrix(pres: GroupPresentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    index = {n: j for j, n in enumerate(pres.generator_names())}
    return IntMatrix(len(pres.relators), len(index),
                     tuple([_exponents(r, index) for r in pres.relators]))


def abelianization(group: GroupPresentation | OrderOracle) -> AbelianInvariants:
    """First homology of the presented group, in invariant-factor form: the
    order oracle's ``invariants``.  A bare presentation gets an oracle."""
    if not isinstance(group, OrderOracle):
        group = OrderOracle(group)
    return group.invariants


# -- Todd-Coxeter coset enumeration ----------------------------------------

@dataclass(frozen=True)
class Exhausted:
    """Enumeration hit the coset budget before the table closed."""

    budget: int
    defined: int


class CosetTable:
    """Completed coset table over the trivial subgroup: the action of each
    generator is a bijection of the group's elements.

    ``action[name]`` maps coset -> coset for the generator and
    ``inverse[name]`` for its inverse.  Coset 0 is the identity.
    """

    def __init__(self, action: dict[str, tuple[int, ...]],
                 inverse: dict[str, tuple[int, ...]]):
        self.action = action
        self.cosets = len(next(iter(action.values()))) if action else 1
        self._inverse = inverse

    def permutation_order(self, word: Word) -> int:
        """Order of the permutation ``word`` induces on the cosets, which
        over the trivial subgroup is the order of the element."""
        perm = list(range(self.cosets))
        for name, e in word.syllables:
            step = self.action[name] if e > 0 else self._inverse[name]
            for _ in range(abs(e)):
                perm = [step[c] for c in perm]
        seen = [False] * self.cosets
        order = 1
        for i in range(self.cosets):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            order = lcm(order, length)
        return order


class _Overflow(Exception):
    """The coset budget ran out inside ``todd_coxeter``."""


def todd_coxeter(pres: GroupPresentation,
                 budget: int = DEFAULT_COSET_BUDGET) -> CosetTable | Exhausted:
    """HLT-style coset enumeration over the trivial subgroup.

    Deterministic: cosets are defined in a fixed order (relators scanned
    shortest first, ties in presentation order, at each live coset, then
    remaining entries filled), so identical inputs give identical tables.
    Scanning short relators first defines fewer cosets when a long power
    relator comes after the relators that merge them.  The budget caps
    the total number of cosets ever defined; exceeding it returns
    ``Exhausted`` rather than an answer.
    """
    # column 2i applies generator i and column 2i + 1 its inverse, so
    # c ^ 1 is the inverse column of c
    names = pres.generator_names()
    ncols = 2 * len(names)
    index = {n: i for i, n in enumerate(names)}
    relator_cols = [[2 * index[n] + (e < 0) for n, e in r.syllables
                     for _ in range(abs(e))]
                    for r in sorted(pres.relators, key=Word.length) if not r.is_empty]

    # a definition appends a row, so len(table) counts the cosets defined
    table: list[list[int | None]] = [[None] * ncols]
    p = [0]
    dead_queue: deque[int] = deque()

    def rep(k):
        l = k
        while p[l] != l:
            l = p[l]
        while p[k] != l:
            p[k], k = l, p[k]
        return l

    def define(alpha, x):
        beta = len(table)
        if beta >= budget:
            raise _Overflow
        table.append([None] * ncols)
        p.append(beta)
        table[alpha][x] = beta
        table[beta][x ^ 1] = alpha

    def merge(k, l):
        k, l = rep(k), rep(l)
        if k != l:
            if k > l:
                k, l = l, k
            p[l] = k
            dead_queue.append(l)

    def coincidence(alpha, beta):
        merge(alpha, beta)
        while dead_queue:
            gamma = dead_queue.popleft()
            for x in range(ncols):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(alpha, cols):
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            define(f, cols[i])

    try:
        alpha = 0
        while alpha < len(table):
            if rep(alpha) != alpha:
                alpha += 1
                continue
            for cols in relator_cols:
                scan_and_fill(alpha, cols)
                if rep(alpha) != alpha:
                    break
            if rep(alpha) == alpha:
                for x in range(ncols):
                    if table[alpha][x] is None:
                        define(alpha, x)
            alpha += 1
    except _Overflow:
        return Exhausted(budget, len(table))

    live = [i for i in range(len(table)) if rep(i) == i]
    number = {c: i for i, c in enumerate(live)}
    action, inverse = {}, {}
    for gi, name in enumerate(names):
        action[name] = tuple(number[rep(table[c][2 * gi])] for c in live)
        inverse[name] = tuple(number[rep(table[c][2 * gi + 1])] for c in live)
    return CosetTable(action, inverse)


# -- element order ----------------------------------------------------------

def _without(word: Word, names) -> Word:
    """The word with every syllable of a generator in ``names`` deleted."""
    kept = [s for s in word.syllables if s[0] not in names]
    return word if len(kept) == len(word.syllables) else Word(kept)


def _delete(pres: GroupPresentation, names) -> GroupPresentation:
    """``pres`` with the generators in ``names`` deleted from the generators
    and the relators, and the relators left empty dropped: the quotient by
    those generators, and an isomorphic presentation when each is trivial."""
    relators = (_without(r, names) for r in pres.relators)
    return GroupPresentation(tuple([g for g in pres.generators if g.name not in names]),
                             tuple([r for r in relators if not r.is_empty]))


def _cyclic_core(syllables, names) -> tuple:
    """Reduced syllables with those of the generators in ``names`` deleted,
    then freely and cyclically reduced."""
    kept = [s for s in syllables if s[0] not in names]
    return _cyclic(syllables if len(kept) == len(syllables) else _reduce(kept))


def _power_index(relators: tuple[Word, ...]):
    """The generators the relators prove trivial, and the power bounds of
    the others: ``(powers, trivial)``.

    One worklist over the relators: a relator with the trivial generators
    deleted and cyclically reduced that reads x^m puts |m| into x's gcd in
    ``powers``.  A gcd of 1 makes x trivial, and every relator that holds
    x goes back on the list unless it is on it already, unread since x
    turned trivial; so each relator is read once, and once more after the
    last of its generators turns trivial.  Deleting a generator equal to
    the identity is a Tietze move, and deleting identity factors from a
    relator leaves a relator up to conjugacy, so every x^m = 1 holds in
    the group.  The result does not depend on the order of the reads: a
    relator that reads x^m reads it again after more deletions unless x
    itself is deleted, and every relator is read after its last deletion.
    """
    words = [r.syllables for r in relators]
    holding: dict[str, list[int]] = {}
    for i, s in enumerate(words):
        # a name twice in a relator lists it twice; ``queued`` skips the copy
        for name, _ in s:
            holding.setdefault(name, []).append(i)
    powers: dict[str, int] = {}
    trivial: set[str] = set()
    work = deque(range(len(words)))
    queued = set(work)
    while work:
        i = work.popleft()
        queued.discard(i)
        s = _cyclic_core(words[i], trivial)
        if len(s) == 1:
            name, exp = s[0]
            powers[name] = gcd(powers.get(name, 0), exp)
            if powers[name] == 1:
                trivial.add(name)
                for j in holding[name]:
                    if j not in queued:
                        queued.add(j)
                        work.append(j)
    return powers, frozenset(trivial)


def _power_relator_bound(index, image: Word) -> int | None:
    """Sound upper bound on the order of ``image`` from the relators.

    ``index`` is :func:`_power_index` of the presentation, and ``image`` a
    word with its trivial generators deleted.  For an image conjugate to
    x^e, the power relators x^m certify order(x^e) | m/gcd(m, e), with m
    their gcd.  Returns 0 when the image is trivial, and None for an image
    of several syllables or with no power relator.
    """
    w = image.cyclically_reduced()
    if w.is_empty:
        return 0
    if len(w.syllables) > 1:
        return None
    name, exp = w.syllables[0]
    m = index[0].get(name, 0)
    return m // gcd(m, abs(exp)) if m else None


class OrderOracle:
    """Certificate state for element orders in one presentation.

    One reduction (:func:`_power_index`) finds the generators the relators
    prove trivial and the power bound of every other generator;
    ``reduced`` is the presentation with the trivial generators deleted,
    and a word's image is the word with them deleted.  The reduction,
    ``reduced``, its relation matrix and ``invariants`` (the matrix's
    Smith invariants, the H1 that :func:`abelianization` reads) are built
    on first need and shared by every question.  The order of an image in
    H1 is read off the Smith invariants Q of that matrix with the image
    added as one more row, which present H1 / <image>: the image is
    infinite when Q has a smaller free rank than H1, and otherwise its
    order is the quotient of the torsion products.  Each question that
    needs a coset table enumerates its own, under its own budget, and
    nothing else is kept.  Every verdict is certified:

    1. Infinite when the abelianized image has infinite order;
    2. Finite when a power bound meets the abelianized lower bound
       (pinning the order exactly), or when the word's image is the
       identity;
    3. Finite via the permutation order on a coset table that closed
       within budget; a table is tried only when the abelianization is
       finite, since an infinite group has no finite table;
    4. otherwise Unknown(budget): abstention, never a guess.

    The oracle serves bare presentations.  The order of a branch circle
    of a graph needs none: ``stratifold.analysis.black_orders`` reads it
    off the graph exactly.
    """

    def __init__(self, pres: GroupPresentation):
        self.pres = pres
        self._names = frozenset(pres.generator_names())

    @cached_property
    def _index(self):
        return _power_index(self.pres.relators)

    @cached_property
    def reduced(self) -> GroupPresentation:
        """The presentation with its trivial generators deleted and the
        relators left empty dropped; it presents the same group."""
        return _delete(self.pres, self._index[1])

    @cached_property
    def _matrix(self) -> IntMatrix:
        return relation_matrix(self.reduced)

    @cached_property
    def invariants(self) -> AbelianInvariants:
        """H1, the Smith invariants of ``reduced``."""
        return smith_normal_form(self._matrix)[0]

    def order(self, word: Word, budget: int = DEFAULT_COSET_BUDGET) -> OrderVerdict:
        bad = word.names() - self._names
        if bad:
            raise ValueError(f"word uses undeclared generators {sorted(bad)}")
        if word.is_empty:
            return FiniteOrder(1, "empty word")
        image = _without(word, self._index[1])
        h1 = self.invariants
        m = self._matrix
        row = _exponents(image, {n: j for j, n in enumerate(self.reduced.generator_names())})
        quotient, _ = smith_normal_form(IntMatrix(m.rows + 1, m.cols, m.nonzero + (row,)))
        if quotient.free_rank < h1.free_rank:
            return InfiniteOrder(f"abelianized image is infinite: killing it drops the "
                                 f"free rank of H1 from {h1.free_rank} to {quotient.free_rank}")
        lower = prod(h1.torsion) // prod(quotient.torsion)
        witness = f"abelianized image has order {lower}"
        upper = _power_relator_bound(self._index, image)
        if upper == 0 or upper == 1:
            return FiniteOrder(1, "word reduces to the identity under Tietze moves")
        if upper is not None and upper == lower:
            return FiniteOrder(upper, f"power relator bound {upper} meets {witness}")
        if h1.free_rank:
            # H1 has a free summand: the group is infinite, so no coset
            # table over the trivial subgroup can close
            return UnknownOrder(budget)
        table = todd_coxeter(self.pres, budget)
        if isinstance(table, CosetTable):
            k = table.permutation_order(word)
            return FiniteOrder(k, f"coset enumeration closed with {table.cosets} cosets")
        return UnknownOrder(budget)

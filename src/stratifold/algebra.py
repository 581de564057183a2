"""Exact integer linear algebra and coset enumeration.

Everything here runs over Python's arbitrary-precision integers; no
floating point and no modular shortcuts.  The Smith normal form works on
sparse rows and records its row and column operations, which reach a
diagonal form (not always the divisibility chain, which is read off that
diagonal) so any result can be replayed and checked against the input
matrix.  The coset enumerator is a deterministic HLT-style procedure
with a hard coset budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .presentation import GroupPresentation, SimplifyResult, Word, rewrite_through, simplify
from .verdicts import (FiniteOrder, InfiniteOrder, OrderVerdict, UnknownOrder)

DEFAULT_COSET_BUDGET = 100_000


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, tuple([x for r in rows for x in r]))

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i * self.cols + j]


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


def _sparse_rows(m: IntMatrix) -> list[dict[int, int]]:
    c = m.cols
    return [{j: v for j, v in enumerate(m.entries[i * c:(i + 1) * c]) if v}
            for i in range(m.rows)]


def apply_transforms(m: IntMatrix, transforms) -> IntMatrix:
    """Replay recorded row/column operations on a matrix."""
    a = _sparse_rows(m)
    for op in transforms:
        _apply(a, op)
    rows = [[row.get(j, 0) for j in range(m.cols)] for row in a]
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, m.cols, ())


def _diagonalize(a: list[dict[int, int]], cols: int) -> list[tuple]:
    """Diagonalize sparse rows with unimodular row/column moves; returns
    the op list.

    Pivot choice: the nonzero entry of smallest absolute value in the
    remaining submatrix, ties broken by (row, col).  The pivot clears its
    column, then its row, and a remainder re-picks the pivot.  The pivot
    search and the moves read only nonzero entries, plus one membership
    test per row for a column.  The diagonal reached is nonnegative but
    need not be a divisibility chain.
    """
    ops = []

    def record(op):
        ops.append(op)
        _apply(a, op)

    rows = len(a)
    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j, v in a[i].items():
                if best is None or (abs(v), i, j) < best:
                    best = (abs(v), i, j)
            if best is not None and best[0] == 1:
                break  # a unit: no later row can win the tie
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            record(("swap_rows", t, pi))
        if pj != t:
            record(("swap_cols", t, pj))
        if a[t][t] < 0:
            record(("negate_row", t))
        pivot = a[t][t]
        dirty = False
        # rows above t hold nothing in column t
        for i in range(t + 1, rows):
            if t in a[i]:
                q = a[i][t] // pivot
                if q:
                    record(("add_row", i, t, -q))
                dirty = dirty or t in a[i]
        if not dirty:
            for j in sorted(a[t].keys() - {t}):
                q = a[t][j] // pivot
                if q:
                    record(("add_col", j, t, -q))
                dirty = dirty or j in a[t]
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
    a = _sparse_rows(m)
    ops = _diagonalize(a, m.cols)
    nonzero = [d for row in a for d in row.values()]
    return AbelianInvariants(m.cols - len(nonzero), _chain(nonzero)), tuple(ops)


def _column_matrix(transforms, n: int) -> list[dict[int, int]]:
    """Accumulate the column operations into the unimodular matrix V with
    (input) @ V = (diagonal form), as sparse rows: one ``{column: value}``
    dict per row."""
    v = [{i: 1} for i in range(n)]
    for op in transforms:
        if op[0] in ("swap_cols", "negate_col", "add_col"):
            _apply(v, op)
    return v


def relation_matrix(pres: GroupPresentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    names = pres.generator_names()
    index = {n: j for j, n in enumerate(names)}
    rows = []
    for r in pres.relators:
        row = [0] * len(names)
        for n, e in r.syllables:
            row[index[n]] += e
        rows.append(row)
    if not rows:
        return IntMatrix(0, len(names), ())
    return IntMatrix.from_rows(rows)


def abelianization(group: GroupPresentation | OrderOracle) -> AbelianInvariants:
    """First homology of the presented group, in invariant-factor form,
    from the SNF of the Tietze-simplified (isomorphic) presentation.

    An :class:`OrderOracle` already holds that SNF for its presentation,
    so its H1 is read off without simplifying or reducing again.
    """
    if isinstance(group, OrderOracle):
        return group._abelian.invariants
    inv, _ = smith_normal_form(relation_matrix(simplify(group).presentation))
    return inv


class _AbelianImage:
    """Diagonal coordinates for images in the abelianization of a
    simplified presentation (words rewritten through its eliminations).

    The column operations recorded by the SNF form a unimodular matrix V,
    kept as sparse rows, with (relation matrix) @ V = D diagonal, though
    not always a divisibility chain.  Transporting an exponent vector x to
    x @ V puts coordinate j in Z/d_j (Z when d_j = 0), where the order of
    the image is read off directly.  Column j of M @ V is d_j times a
    column of a unimodular matrix, which is primitive, so d_j is the gcd
    of coordinate j over the relators.
    """

    def __init__(self, sr: SimplifyResult):
        pres = sr.presentation
        m = relation_matrix(pres)
        inv, ops = smith_normal_form(m)
        self.invariants = inv
        # generator name -> its row of V
        self.rows = dict(zip(pres.generator_names(), _column_matrix(ops, m.cols)))
        self.diag = [0] * m.cols
        for r in pres.relators:
            for j, c in self._coordinates(r).items():
                self.diag[j] = gcd(self.diag[j], c)

    def _coordinates(self, word: Word) -> dict[int, int]:
        """x @ V for the word's exponent sums x; absent coordinates are 0."""
        y: dict[int, int] = {}
        for name, e in word.syllables:
            for j, v in self.rows[name].items():
                y[j] = y.get(j, 0) + e * v
        return y

    def order(self, image: Word):
        """(order, witness), order None when infinite."""
        order = 1
        for j, c in sorted(self._coordinates(image).items()):
            d = self.diag[j]
            if d == 0:
                if c:
                    return None, f"free coordinate {j} of the abelianized image is {c}"
            elif d >= 2 and c % d:
                order = lcm(order, d // gcd(d, c % d))
        return order, f"abelianized image has order {order}"


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
    in presentation order at each live coset, then remaining entries
    filled), so identical inputs give identical tables.  The budget caps
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
                    for r in pres.relators if not r.is_empty]

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

def _power_index(relators: tuple[Word, ...]):
    """The cyclic relators indexed for the power bound: ``(powers,
    by_count)``, where ``powers`` maps each generator x to the gcd of the
    exponents m of its single-syllable relators x^m, and ``by_count``
    holds every other nontrivial relator, cyclically reduced and with its
    length, keyed by its syllable count."""
    powers: dict[str, int] = {}
    by_count: dict[int, list[tuple[Word, int]]] = {}
    for r in relators:
        rc = r.cyclically_reduced()
        if len(rc.syllables) == 1:
            name, exp = rc.syllables[0]
            powers[name] = gcd(powers.get(name, 0), abs(exp))
        elif rc.syllables:
            by_count.setdefault(len(rc.syllables), []).append((rc, rc.length()))
    return powers, by_count


def _power_relator_bound(index, image: Word) -> int | None:
    """Sound upper bound on the order of ``image`` from the relators.

    ``index`` is :func:`_power_index` of the simplified (isomorphic)
    presentation, and ``image`` a word rewritten into it.  A relator equal
    to w^k as a cyclic word certifies order(w) | k; for a single-syllable
    image x^e, every power relator x^m certifies order(x^e) | m/gcd(m,e).
    All such bounds are combined by gcd.  Returns None when no bound is
    found, 0 when the image is trivial.

    A single-syllable image can equal a power only of a single-syllable
    relator, and the gcd of those exponents gives the best such bound,
    so it is one lookup.  An image of s >= 2 syllables is compared only
    with the relators of k*s syllables and k times its length.
    """
    w = image.cyclically_reduced()
    if w.is_empty:
        return 0
    powers, by_count = index
    s = len(w.syllables)
    if s == 1:
        name, exp = w.syllables[0]
        m = powers.get(name, 0)
        return m // gcd(m, abs(exp)) if m else None
    g = 0
    wlen = w.length()
    inverse = w.inverse()
    for count, relators in by_count.items():
        if count % s:
            continue
        k = count // s
        for rc, rlen in relators:
            if rlen != k * wlen:
                continue
            # both words are cyclically reduced, so a rotation taking one
            # to the other cuts at a syllable boundary; shifting w^k by a
            # whole w is no rotation at all
            for v in (w, inverse):
                p = v.power(k).syllables
                if any(rc.syllables == p[i:] + p[:i] for i in range(s)):
                    g = gcd(g, k)
                    break
    return g or None


class OrderOracle:
    """Certificate state for element orders in one presentation.

    The simplified presentation, its abelianization transform and the
    power-relator index (:func:`_power_index`: per generator the gcd of
    its power relators, the other relators by syllable count) are built
    on first need and a coset table only when a question needs one, so a
    census of many words reuses them.  A word with an eliminated
    generator is rewritten through the simplifier's eliminations in
    order (:func:`rewrite_through`); a word with none is its own image.
    Both bounds read that image.
    The coset budget belongs to each question, and the oracle keeps one
    budget slot, a tuple replaced whole when another budget is asked:
    the latest budget, the verdicts given under it, and a one-item list
    that holds the coset table once one is built.  A question reads the
    slot once, so another question that replaces it meanwhile changes
    nothing for this one.  Every verdict is certified:

    1. Infinite when the abelianized image has infinite order;
    2. Finite when a Tietze-derived power bound meets the abelianized
       lower bound (pinning the order exactly), or when the word's image
       simplifies to the identity;
    3. Finite via the permutation order on a coset table that closed
       within budget; a table is tried only when the abelianization is
       finite, since an infinite group has no finite table;
    4. otherwise Unknown(budget): abstention, never a guess.
    """

    def __init__(self, pres: GroupPresentation):
        self.pres = pres
        self._names = frozenset(pres.generator_names())
        self._slot: tuple = (None, {}, [None])

    @cached_property
    def simplified(self) -> SimplifyResult:
        return simplify(self.pres)

    @cached_property
    def _eliminated(self) -> frozenset[str]:
        return frozenset([name for name, _ in self.simplified.eliminations])

    @cached_property
    def _index(self):
        return _power_index(self.simplified.presentation.relators)

    def _image(self, word: Word) -> Word:
        if word.names().isdisjoint(self._eliminated):
            return word
        return rewrite_through(word, self.simplified.eliminations)

    @cached_property
    def _abelian(self) -> _AbelianImage:
        return _AbelianImage(self.simplified)

    def order(self, word: Word, budget: int = DEFAULT_COSET_BUDGET) -> OrderVerdict:
        bad = word.names() - self._names
        if bad:
            raise ValueError(f"word uses undeclared generators {sorted(bad)}")
        slot = self._slot  # read once: a question asked meanwhile may replace it
        if slot[0] != budget:
            slot = self._slot = budget, {}, [None]
        _, verdicts, table = slot
        verdict = verdicts.get(word)
        if verdict is None:
            verdict = verdicts[word] = self._certify(word, budget, table)
        return verdict

    def _certify(self, word: Word, budget: int, table: list) -> OrderVerdict:
        if word.is_empty:
            return FiniteOrder(1, "empty word")
        image = self._image(word)
        lower, witness = self._abelian.order(image)
        if lower is None:
            return InfiniteOrder(witness)
        upper = _power_relator_bound(self._index, image)
        if upper == 0 or upper == 1:
            return FiniteOrder(1, "word reduces to the identity under Tietze moves")
        if upper is not None and upper == lower:
            return FiniteOrder(upper, f"power relator bound {upper} meets {witness}")
        if 0 in self._abelian.diag:
            # H1 has a free summand: the group is infinite, so no coset
            # table over the trivial subgroup can close
            return UnknownOrder(budget)
        if table[0] is None:
            table[0] = todd_coxeter(self.pres, budget)
        if isinstance(table[0], CosetTable):
            k = table[0].permutation_order(word)
            return FiniteOrder(k, f"coset enumeration closed with {table[0].cosets} cosets")
        return UnknownOrder(budget)

    def quotient_invariants(self, words: tuple[Word, ...]) -> AbelianInvariants:
        """H1 of the group modulo the normal closure of ``words``.

        H1(G/<<S>>) = H1(G)/<images of S>: the SNF of the simplified
        presentation's relation rows plus one row per word, each rewritten
        through the same eliminations, so nothing is simplified again.  An
        image that is a single generator to the power +-1 is a unit row,
        so that generator's column is dropped instead.
        """
        sp = self.simplified
        images = [self._image(w) for w in words]
        dead = {im.syllables[0][0] for im in images
                if len(im.syllables) == 1 and abs(im.syllables[0][1]) == 1}
        gens = tuple([g for g in sp.presentation.generators if g.name not in dead])
        rows = (Word([s for s in r.syllables if s[0] not in dead])
                for r in sp.presentation.relators + tuple(images))
        pres = GroupPresentation(gens, tuple([r for r in rows if not r.is_empty]))
        inv, _ = smith_normal_form(relation_matrix(pres))
        return inv


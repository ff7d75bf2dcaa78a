"""Permutation groups with deterministic stabilizer chains.

Orbits, point stabilizers read off the stabilizer chain, exact orders,
bounded element enumeration, and double-coset machinery.  Every
operation is deterministic: transversals are grown breadth-first with
the generators in their given order, a group's chain starts at the
smallest point any generator moves (0 for a transitive group), and each
later base point is the smallest point moved by the residue of the
fixpoint scan that opened it, one that sifted through all the levels so
far without becoming the identity, so the base need not be 0, 1, 2, ....

A group's elements are numbered by the chain: element r is
u_0 * u_1 * ... for the transversal rows u_i = reps[i_i] of each level i,
where i_0, i_1, ... are r's mixed-radix digits over the transversals'
sizes, level 0 the most significant (|G| is their product).
``element_array`` lists them in that order.  The chain also names each
left coset xH by one of its rows (``_coset_keys``).

Element sets (the enumerated group, connection sets, the sets split into
double cosets) are held as rows of an integer array of images, converted
into that layout by ``_image_rows`` alone and composed a whole array at a
time by ``take``, not by fancy indexing: ``_compose`` composes rows
pairwise with rows of a table, as one ``take`` from the flattened table,
and ``_compose_all`` composes every row of a table with every row, as one
``take`` along the table's images.  Rows are gathered by ``take`` along
the rows too.  They are indexed whole, by one void value per row over
its big-endian images (``_row_view``), whose values sort as the rows
do: ``_lex_order`` sorts and deduplicates rows by their values, and a
``_RowTable`` looks rows up by binary search on its sorted values, so
every order and lookup is that of whole rows.

Rows are the only form in which elements cross a boundary inside the
package: a group keeps its generators, given as rows or ``Permutation``
objects, as rows (``_gen_rows``) and decides membership by sifting a
batch of rows through the chain (``_contains_rows``).  ``Permutation``
objects are built only by the accessors that hand them to callers:
``generators``, ``elements()``, ``ConnectionSet.elements`` and
``double_coset_representatives``.

The stabilizer chain is held in the same layout (Seress, *Permutation
Group Algorithms*, 2003, sections 4.1-4.2): each level keeps its strong
generators, the generator rows it spans, its transversal and the
transversal's inverses as rows.  It is built by a deterministic
incremental Schreier-Sims.  Level 0 spans the group's own generators,
whose Schreier generators generate G_b (Schreier's lemma), so its
transversal is the group's kept ``transversal(b)``, grown once.  A
deeper level spans the strong generators found for it and the levels
below, and only grows: a new span row is applied to the orbit points
so far and the orbit grown breadth-first from the points it reaches, so
every transversal row is composed once.  Each level flags, per pair of
an orbit point and a span row, whether the pair's Schreier generator has
sifted to the identity, and the fixpoint scan forms only the other
pairs, a block at a time.  A block absorbs every residue it meets
before the scan moves on: the first residue that is not the identity
becomes a strong generator, the block's rows not yet verified are
sifted again through the grown chain, and so on until none is left;
the scan then resumes at the deepest level that took a residue.  One
breadth-first routine (``_grow``) grows every transversal, the chain's
and each one a group keeps, one batched ``_sift`` strips rows through the
chain, and ``_schreier`` forms a level's Schreier generators for a
block of pairs at a time.  A point stabilizer G_p is read off a chain
based at p, as the group at its second level: the group's own chain
when p is its first base point, and otherwise one built at p, whose
first level is the group's kept ``transversal(p)``.  Each stabilizer is
built once per point and kept.  Orbits are component labels
(``_component_minima``), kept per group (``orbit_labels``).

A connection set S is held as its subgroup H and one row per left coset
s*H (``cosets``); its rows, their lookup table and its double cosets'
smallest rows are formed only when read.  Its indicator operator, the
n x n count K[x, y] = #{s in S : s(y) = x}, is counted on each call coset
by coset, K[x, y] = sum_w C[u_w^-1(x), y] over the coset rows u_w with C
counting H's elements by one ``bincount`` per block of H's rows, and not
kept; only eq2 reads it.  Given as elements, S is listed from the start:
it finds its elements' inverses once, by one scatter into the rows'
dtype, and looks them up to decide inverse closure; the inverse rows are
not kept.  Its H-double-coset split looks up right products only: with
S = S^-1 and S*h inside S for each generator h, h*s = (s^-1 * h^-1)^-1
is in S too, and the left moves are read off the right ones through the
inverses.  Given as {g : g(p) in T} (``ConnectionSet.of_point``), it is
Sabidussi's decomposition into the left cosets u_w*G_p, w in T, so
neither the group nor the set is listed and no row of S is inverted:
its G_p-double cosets are counted as G_p's orbits on T, inverse closure
is read off the k transversal rows u_w (S = S^-1 exactly when every
u_w^-1(p) lies in T), and g is a member exactly when u_{g(p)}^-1 * g
sifts through G_p's chain.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from .errors import SizeLimitError, StructureError
from .perms import Permutation

#: Default cap on explicit element enumeration.
DEFAULT_ELEMENT_CAP = 10**6

#: Images per block of Schreier generators formed and sifted at once by
#: the chain's fixpoint scan (about 2 MiB of uint16 images, plus NumPy's
#: intp index temporaries).
_SCHREIER_BLOCK = 1 << 20

#: Images per block of the subgroup's rows counted at once by
#: ``ConnectionSet.operator`` (128 KiB of intp cells).
_COUNT_BLOCK = 1 << 14

#: An element set as ``Permutation`` objects or as rows of images.
_Elements = Union[Iterable[Permutation], np.ndarray]


def _image_dtype(degree: int) -> np.dtype:
    """The smallest unsigned integer type that holds the points 0..degree-1."""
    return np.min_scalar_type(max(degree - 1, 0))


def _row_view(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one void value over its big-endian
    images, so that the values' byte order is the rows' lexicographic
    order whatever the row dtype.  The one index of element rows: they
    are sorted, deduplicated and looked up by these values alone."""
    rows = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).reshape(-1)


def _lex_order(
    rows: np.ndarray, distinct: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic argsort of unsigned 2-D rows, or with
    ``distinct`` its first index of each distinct row; and the rows'
    values (``_row_view``) in that order.  One stable ``argsort`` of the
    values; a row equal to the one before it in that order is a
    duplicate."""
    view = _row_view(rows)
    order = np.argsort(view, kind="stable")
    view = view.take(order)
    if distinct:
        keep = np.ones(len(view), dtype=bool)
        keep[1:] = view[1:] != view[:-1]
        order, view = order[keep], view[keep]
    return order, view


def _image_rows(elements: _Elements, degree: int | None = None) -> np.ndarray:
    """Element images as the rows of a new array in the smallest unsigned
    dtype for the degree, in the order given.  ``Permutation`` objects
    were checked when built, so only their shared degree is checked; a
    2-D integer array must hold a permutation of 0..degree-1 in each row.
    Any other item raises TypeError.  The degree defaults to the first
    element's (1 for none) or the width.
    """
    if isinstance(elements, np.ndarray):
        if elements.ndim != 2 or not np.issubdtype(elements.dtype, np.integer):
            raise ValueError("element rows must be a 2-D integer array")
        if degree not in (None, elements.shape[1]):
            raise ValueError(f"degree mismatch: {elements.shape[1]} vs {degree}")
        images, degree = elements, elements.shape[1]
        # kind="stable" is a radix sort on the small unsigned dtypes.
        if not (np.sort(images, axis=1, kind="stable") == np.arange(degree)).all():
            raise ValueError(f"element rows are not permutations of 0..{degree - 1}")
    else:
        images = []
        for g in elements:
            if not isinstance(g, Permutation):
                raise TypeError(f"{g!r} is not a Permutation; rows go in a 2-D array")
            images.append(g.images)
        if degree is None:
            degree = len(images[0]) if images else 1
        for x in images:
            if len(x) != degree:
                raise ValueError(f"degree mismatch: {len(x)} vs {degree}")
    return np.array(images, dtype=_image_dtype(degree)).reshape(-1, degree)


def _sorted_distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, in lexicographic order."""
    return rows.take(_lex_order(rows, distinct=True)[0], axis=0)


def _permutations(rows: np.ndarray) -> tuple[Permutation, ...]:
    """One ``Permutation`` per row, in row order, converted one row at a
    time; the rows are known to be permutations and are not re-checked."""
    return tuple([Permutation._trusted(tuple(row.tolist())) for row in rows])


def _inverse_rows(rows: np.ndarray) -> np.ndarray:
    """Row i holds the images of the inverse of row i, in the rows' dtype:
    one scatter, inverse[i, row_i[x]] = x."""
    m, degree = rows.shape
    inverse = np.empty_like(rows)
    inverse[np.arange(m)[:, None], rows] = np.arange(degree, dtype=rows.dtype)
    return inverse


def _compose(table: np.ndarray, which: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows composed pairwise with table rows: row i of the result is
    table[which[i]] * rows[i], the images table[which[i], rows[i, x]].
    ``which`` (an intp array) and ``rows`` broadcast against each other
    with one more axis on ``which``, the images' own.  One ``take`` from
    the flat table at which * width + rows: for these shapes it is a few
    times faster than the fancy index table[which[:, None], rows].
    """
    return table.ravel().take(which[..., None] * table.shape[-1] + rows)


def _compose_all(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Every table row composed with every row: element (i, j) of the
    result (or j, for a table of one 1-D row) is table[i] * rows[j], the
    images table[i, rows[j, x]].  One ``take`` along the table's images,
    a few times faster than the fancy index table[:, rows]."""
    return table.take(rows, axis=-1)


def _grow(
    reps: np.ndarray,
    index: np.ndarray,
    orbit: np.ndarray,
    gen_rows: np.ndarray,
    start: int = 0,
) -> np.ndarray:
    """Grow the transversal of an orbit closed under ``gen_rows[:start]``
    into the transversal of the orbit under all the generator rows, and
    return the grown ``reps`` (see ``_transversal``).  ``orbit`` lists the
    orbit's points in the rows' order and ``index`` (updated in place)
    numbers them; the rows already there are kept as they are.

    The first layer is each orbit point, in order, under each row from
    ``start`` on: one ``take`` finds the points it reaches.  Later layers
    are grown breadth-first from the new points alone, under every row in
    order, u_q = g * u_p for the first generator g that reaches q.  The
    breadth-first tree (each new point's parent and generator) is walked
    on Python ints; the new rows are then composed one layer at a time, so
    the work is one gather per layer, not one product per point."""
    images = gen_rows[start:].take(orbit, axis=1).T.ravel()
    fresh = np.flatnonzero(index.take(images) < 0)
    if not len(fresh):
        return reps
    n, width = len(reps), len(gen_rows) - start
    look = index.tolist()
    points, parent, via = [], [], []
    for f, q in zip(fresh.tolist(), images.take(fresh).tolist()):
        if look[q] < 0:
            look[q] = n + len(points)
            points.append(q)
            parent.append(f // width)
            via.append(start + f % width)
    layers = [n, n + len(points)]
    rows = gen_rows.tolist()
    while layers[-2] < layers[-1]:
        for at in range(layers[-2], layers[-1]):
            p = points[at - n]
            for i, g in enumerate(rows):
                q = g[p]
                if look[q] < 0:
                    look[q] = n + len(points)
                    points.append(q)
                    parent.append(at)
                    via.append(i)
        layers.append(n + len(points))
    index[points] = np.arange(n, layers[-1])
    parent, via = np.array(parent), np.array(via)
    grown = np.empty((layers[-1], reps.shape[1]), dtype=reps.dtype)
    grown[:n] = reps
    for a, b in zip(layers[:-2], layers[1:-1]):
        grown[a:b] = _compose(
            gen_rows, via[a - n : b - n], grown.take(parent[a - n : b - n], axis=0)
        )
    return grown


def _transversal(point: int, gen_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transversal of the point's orbit under the generator rows:
    ``reps``, one row u_q with u_q(point) = q per orbit point q, and
    ``index``, the row of u_q at q (-1 off the orbit).

    The orbit is grown breadth-first from the point (``_grow``), with the
    generators in their given order."""
    degree = gen_rows.shape[1]
    index = np.full(degree, -1)
    index[point] = 0
    reps = np.arange(degree, dtype=gen_rows.dtype)[None, :]
    return _grow(reps, index, np.array([point]), gen_rows), index


class _ChainLevel:
    """One level of a stabilizer chain: a base point b; its strong
    generators as rows (``gens``: they fix all earlier base points and
    move b); the generator rows it spans (``span``), which generate the
    group at this level; and the transversal of b's orbit under them: its
    ``reps`` and ``index`` (see ``_transversal``) and the reps' inverses.
    ``verified`` is a |reps| x |span| boolean array: entry (q, s) is set
    once the Schreier generator u_{s(q)}^-1 * s * u_q of transversal row
    u_q and span row s has sifted to the identity through the deeper
    levels, so that pair is never formed again.

    Level 0 spans the group's own generators and takes the group's kept
    transversal at its base point (``PermutationGroup.transversal``),
    which is the group's first base point or a point whose stabilizer is
    asked for (``PermutationGroup.stabilizer``); a deeper level spans
    the strong generators of its own and the deeper levels, in the order
    they were found.  A deeper level only grows (``extend``): a new span row is
    appended and the orbit extended from it, and the rows, index entries,
    inverses and flags already there stay as they are."""

    __slots__ = ("basepoint", "gens", "span", "reps", "index", "inverse", "verified")

    def __init__(self, basepoint: int, span: np.ndarray, reps: np.ndarray):
        """The level of ``span`` over the transversal ``reps`` of b's orbit
        under it, with no pair verified; its strong generators are the
        span rows that move b."""
        self.basepoint = basepoint
        self.span = span
        self.gens = span[span[:, basepoint] != basepoint]
        self.reps = reps
        self.index = np.full(reps.shape[1], -1)
        self.index[reps[:, basepoint]] = np.arange(len(reps))
        self.inverse = _inverse_rows(reps)
        self.verified = np.zeros((len(reps), len(span)), dtype=bool)

    def extend(self, g: np.ndarray) -> None:
        """Append the row g to the span and grow the orbit from it
        (``_grow``): the new points' rows, index entries and inverses are
        appended, and the flags grow by a column for g and a row per new
        point, all unverified."""
        self.span = np.concatenate([self.span, g[None, :]])
        n = len(self.reps)
        orbit = self.reps[:, self.basepoint]
        reps = _grow(self.reps, self.index, orbit, self.span, len(self.span) - 1)
        if len(reps) > n:
            self.inverse = np.concatenate([self.inverse, _inverse_rows(reps[n:])])
            self.reps = reps
        verified = np.zeros((len(reps), len(self.span)), dtype=bool)
        verified[:n, :-1] = self.verified
        self.verified = verified


def _chain_products(levels: Sequence[_ChainLevel], degree: int) -> np.ndarray:
    """Every product u_0 * u_1 * ... of one transversal row u_i = reps[i_i]
    per level, the product for digits i_0, i_1, ... at their mixed-radix
    number, level 0 the most significant.  Deepest level first, each
    level's ``reps`` compose with all rows so far at once
    (``_compose_all``)."""
    rows = np.arange(degree, dtype=_image_dtype(degree))[None, :]
    for level in reversed(levels):
        rows = _compose_all(level.reps, rows).reshape(-1, degree)
    return rows


def _sift(
    levels: Sequence[_ChainLevel], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Strip each row through the levels: the residues, and each row's
    first failing level (len(levels) for a row that passes them all).

    Only the rows still passing are carried from level to level; a row
    that fails is written to the residues as it stands."""
    at = np.full(len(rows), len(levels))
    if not levels:
        return rows, at
    residues = np.empty_like(rows)
    live = np.arange(len(rows))
    for i, level in enumerate(levels):
        pos = level.index.take(rows[:, level.basepoint])
        failed = pos < 0
        if failed.any():
            residues[live[failed]] = rows[failed]
            at[live[failed]] = i
            passed = ~failed
            live, pos, rows = live[passed], pos[passed], rows[passed]
        rows = _compose(level.inverse, pos, rows)
    residues[live] = rows
    return residues, at


def _schreier(level: _ChainLevel, at: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The Schreier generators u_{s(q)}^-1 * s * u_q of the level's
    transversal, one row per pair: u_q the transversal row at each
    position of ``at`` and s the span row at the same position of
    ``which``."""
    su = _compose(level.span, which, level.reps.take(at, axis=0))
    back = level.index.take(su[:, level.basepoint])
    return _compose(level.inverse, back, su)


def _schreier_blocks(level: _ChainLevel, at: np.ndarray, which: np.ndarray):
    """The level's Schreier generators for the pairs (``at``, ``which``)
    (``_schreier``), in order, in blocks of about ``_SCHREIER_BLOCK``
    images: each block's first pair and its rows."""
    step = max(1, _SCHREIER_BLOCK // level.reps.shape[1])
    for a in range(0, len(at), step):
        yield a, _schreier(level, at[a : a + step], which[a : a + step])


def _verify(levels: list[_ChainLevel], i: int) -> int | None:
    """Scan level i's unverified Schreier generators, a block at a time,
    until a block adds a strong generator; return the deepest level that
    took one, or None once every pair of level i is verified.

    The pairs are formed in flat order (transversal rows in order, each
    row's unverified span rows in order), in blocks of about
    ``_SCHREIER_BLOCK`` images (``_schreier_blocks``).  A block's rows are
    sifted whole through the deeper levels, and each pair whose row sifts
    to the identity is flagged verified.  The first residue that is not
    the identity is absorbed (``_absorb``), and the block's rows still
    unverified, the Schreier rows themselves, are sifted again through the
    grown chain, until none is left.  Every level from 1 to the deepest
    that took a residue has new unverified pairs, so the scan resumes
    there.  A verified pair stays verified as the chain grows: the levels
    only append rows, so its sift is unchanged."""
    level = levels[i]
    at, which = np.nonzero(~level.verified)
    for a, rows in _schreier_blocks(level, at, which):
        pairs = np.arange(a, a + len(rows))
        deepest = i
        while True:
            residues, failed = _sift(levels[i + 1 :], rows)
            bad = _moved(residues)
            good = pairs[~bad]
            level.verified[at[good], which[good]] = True
            if not bad.any():
                break
            first = int(np.argmax(bad))
            j = i + 1 + int(failed[first])
            _absorb(levels, residues[first], j)
            deepest = max(deepest, j)
            pairs, rows = pairs[bad], rows[bad]
        if deepest > i:
            return deepest
    return None


def _absorb(levels: list[_ChainLevel], g: np.ndarray, j: int) -> None:
    """Make the row g a strong generator of level j, which its sift
    failed at: a new level past the last opens at the smallest point g
    moves.  Levels 1..j take g into their spans
    (``_ChainLevel.extend``); level 0 spans the group's own generators."""
    if j == len(levels):
        identity = np.arange(len(g), dtype=g.dtype)[None, :]
        b = int(np.flatnonzero(g != identity[0])[0])
        levels.append(_ChainLevel(b, identity[:0], identity))
    levels[j].gens = np.concatenate([levels[j].gens, g[None, :]])
    for level in levels[1 : j + 1]:
        level.extend(g)


def _moved(rows: np.ndarray) -> np.ndarray:
    """Whether each row moves some point (is not the identity)."""
    return (rows != np.arange(rows.shape[1])).any(axis=1)


def _distinct_moved(rows: np.ndarray) -> np.ndarray:
    """The rows that are not the identity, each once, at its first place."""
    rows = rows[_moved(rows)]
    return rows.take(np.sort(_lex_order(rows, distinct=True)[0]), axis=0)


class PermutationGroup:
    """A group of permutations of {0, ..., degree-1} given by generators,
    ``Permutation`` objects or a 2-D integer array of image rows (each
    checked by ``_image_rows``), and kept as rows.

    The stabilizer chain, the element list, the orbit labels and each
    transversal and point stabilizer asked for are built lazily, once, and
    cached.  The chain's level 0 is based at the smallest point any
    generator moves; a later level is opened by a residue of the fixpoint
    scan that sifts through every existing level without becoming the
    identity, at the smallest point that residue moves.  So past level 0
    the base follows the generators, not the points' order: a level's
    base point need not be the smallest point its group moves.  A point
    stabilizer shares the deeper levels of the chain it was read off, so
    its own chain starts wherever that chain's second level does.
    """

    def __init__(self, degree: int, generators: _Elements = ()):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self._gen_rows = _distinct_moved(_image_rows(generators, degree))
        self._chain: list[_ChainLevel] | None = None
        self._rows: np.ndarray | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._transversals: dict[int, np.ndarray] = {}
        self._stabilizers: dict[int, PermutationGroup] = {}
        self._labels: np.ndarray | None = None

    @classmethod
    def trivial(cls, degree: int) -> PermutationGroup:
        return cls(degree, ())

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """The generators as ``Permutation`` objects, built when read."""
        return _permutations(self._gen_rows)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"PermutationGroup(degree={self.degree}, <{gens}>)"

    # -- orbits and transversals -------------------------------------------

    def _point(self, point: int) -> int:
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")
        return point

    def orbit_labels(self) -> np.ndarray:
        """Each point's orbit label, the least point of its orbit
        (``_component_minima`` over the generator rows).  They are
        computed once and kept, read-only."""
        if self._labels is None:
            labels = _component_minima(self.degree, self._gen_rows)
            labels.setflags(write=False)
            self._labels = labels
        return self._labels

    def orbit(self, point: int) -> set[int]:
        """The orbit of a point under the group."""
        label = self.orbit_labels()
        return set(np.flatnonzero(label == label[self._point(point)]).tolist())

    def transversal(self, point: int) -> np.ndarray:
        """The transversal of the point's orbit as rows of images: one row
        u_q with u_q(point) = q per orbit point q, in the breadth-first
        order the orbit is grown in (generators in their given order).
        It is grown once per point and kept, read-only."""
        point = self._point(point)
        rows = self._transversals.get(point)
        if rows is None:
            rows = _transversal(point, self._gen_rows)[0]
            rows.setflags(write=False)
            self._transversals[point] = rows
        return rows

    def is_transitive(self) -> bool:
        return not self.orbit_labels().any()

    def stabilizer(self, point: int) -> PermutationGroup:
        """The point stabilizer G_p, the group at the second level of a
        stabilizer chain based at p: generated by the strong generators of
        the deeper levels, which are its chain (shared, not rebuilt).  At
        the first base point of the group's own chain that chain is the
        group's; at any other point one is built at p (``_build_chain``).
        It is built once per point and kept.

        Satisfies the orbit-stabilizer identity
        order(self) == len(orbit(point)) * order(stabilizer(point)).
        """
        point = self._point(point)
        stab = self._stabilizers.get(point)
        if stab is None:
            chain = self._stabilizer_chain()
            if not chain or chain[0].basepoint != point:
                chain = self._build_chain(point)
            deeper = chain[1:]
            stab = PermutationGroup(
                self.degree,
                np.vstack([self._gen_rows[:0]] + [level.gens for level in deeper]),
            )
            stab._chain = deeper
            self._stabilizers[point] = stab
        return stab

    # -- stabilizer chain ---------------------------------------------------

    def _build_chain(self, first: int | None = None) -> list[_ChainLevel]:
        """A stabilizer chain based first at the point ``first``, by
        default the smallest point any generator moves (none for the
        trivial group, whose default chain is empty)."""
        # Level 0 spans the generators over the group's kept transversal.
        # Fixpoint: every Schreier generator of every level must sift to
        # the identity through the deeper levels.  Scan bottom-up; a block
        # of level i's unverified pairs absorbs each residue it meets into
        # the chain (``_verify``), and the scan resumes at the deepest
        # level that took one.
        if first is None:
            moved = (self._gen_rows != np.arange(self.degree)).any(axis=0)
            if not moved.any():
                return []
            first = int(np.argmax(moved))
        levels = [_ChainLevel(first, self._gen_rows, self.transversal(first))]
        i = 0
        while i >= 0:
            deepest = _verify(levels, i)
            i = i - 1 if deepest is None else deepest
        return levels

    def _stabilizer_chain(self) -> list[_ChainLevel]:
        if self._chain is None:
            self._chain = self._build_chain()
        return self._chain

    def order(self) -> int:
        """Exact group order (product of orbit sizes along the chain)."""
        n = 1
        for level in self._stabilizer_chain():
            n *= len(level.reps)
        return n

    def _check_order(self, cap: int) -> None:
        """SizeLimitError unless the group's order is at most cap."""
        order = self.order()
        if order > cap:
            raise SizeLimitError(
                f"group order {order} exceeds enumeration cap {cap}"
            )

    def __contains__(self, g: object) -> bool:
        if not isinstance(g, Permutation) or g.degree != self.degree:
            return False
        return bool(self._contains_rows(_image_rows([g], self.degree))[0])

    def _contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Whether each row, known to be a permutation of the group's
        degree, is in the group: it sifts through the chain to the
        identity.  The whole batch is sifted at once."""
        residues, _ = _sift(self._stabilizer_chain(), rows)
        return ~_moved(residues)

    def _coset_keys(self, rows: np.ndarray) -> np.ndarray:
        """One fixed row of the left coset xH of this group H for each row
        x, the same for every row of a coset (Seress 2003, section 4).
        Level by level, x becomes x * u_p for the orbit point p of the
        level's base point b at which x is least: the rows of x * H_i that
        send b to that value are x * u_p * H_(i+1), so one row is left."""
        everyone = np.arange(len(rows))
        for level in self._stabilizer_chain():
            at = np.argmin(rows.take(level.reps[:, level.basepoint], axis=1), axis=1)
            rows = _compose(rows, everyone, level.reps.take(at, axis=0))
        return rows

    # -- enumeration --------------------------------------------------------

    def element_array(self, cap: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
        """All elements as a read-only array with one row of images per
        element, rows in chain order, if order <= cap.

        Each element is u_0 * u_1 * ... * u_last for exactly one choice of
        u_i = reps[i_i] in the transversal of chain level i, and it is row
        r for the mixed-radix digits i_0, i_1, ... of r over the
        transversals' sizes, level 0 the most significant
        (``_chain_products``).
        """
        self._check_order(cap)
        return self._all_rows()

    def _all_rows(self) -> np.ndarray:
        """``element_array()`` without the cap: built once and kept."""
        if self._rows is None:
            rows = _chain_products(self._stabilizer_chain(), self.degree)
            rows.setflags(write=False)
            self._rows = rows
        return self._rows

    def elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> list[Permutation]:
        """All elements, in the order of ``element_array``, if order <= cap."""
        rows = self.element_array(cap)
        if self._elements is None:
            self._elements = _permutations(rows)
        return list(self._elements)


def _query_rows(rows, degree: int) -> np.ndarray:
    """Query rows as an array; ValueError unless it is 2-D with one column
    per point."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != degree:
        raise ValueError(
            f"query rows must be a 2-D array of width {degree} (the degree), "
            f"not of shape {rows.shape}"
        )
    return rows


class _RowTable:
    """Distinct permutations of one degree as the rows of an integer array,
    sorted lexicographically, looked up by binary search on their values.

    The table keeps its sorted rows and their values (``_row_view``).  A
    query is found by one ``searchsorted`` on the values; only a query
    that had to be cast to the rows' dtype is confirmed again, on the
    rows as given."""

    __slots__ = ("rows", "_view")

    def __init__(self, elements: _Elements, degree: int | None = None):
        self._sort(_image_rows(elements, degree))

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> _RowTable:
        """A table over rows known to be permutations, such as a group's
        elements: sorted and deduplicated as the constructor does, but not
        re-checked."""
        table = object.__new__(cls)
        table._sort(rows)
        return table

    def _sort(self, rows: np.ndarray) -> None:
        """Hold the distinct rows in lexicographic order, read-only, and
        their values: the one path that sorts rows into a table."""
        order, self._view = _lex_order(rows, distinct=True)
        self.rows = rows.take(order, axis=0)
        self.rows.setflags(write=False)

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The index of each given row, or -1 where the row is missing.

        Matches are confirmed on the rows as given, so a row with an image
        outside 0..degree-1 is missing.  ValueError unless the rows form a
        2-D array with one column per point."""
        n, degree = self.rows.shape
        rows = _query_rows(rows, degree)
        if not n:
            return np.full(len(rows), -1)
        query = rows.astype(self.rows.dtype, copy=False)
        view = _row_view(query)
        at = np.minimum(np.searchsorted(self._view, view), n - 1)
        hit = self._view[at] == view
        if query is not rows:
            # A cast query may have wrapped onto a row: confirm it whole.
            hit[hit] = (self.rows[at[hit]] == rows[hit]).all(axis=1)
        return np.where(hit, at, -1)


def _component_minima(size: int, moves: Sequence[np.ndarray]) -> np.ndarray:
    """The smallest index in the component of each of range(size), for the
    graph with an edge i -- move[i] for every move (each a permutation of
    range(size)).

    Min-label propagation along both directions of every edge, with
    pointer jumping: a label is always an index in the same component.
    """
    label = np.arange(size)
    while True:
        new = label.copy()
        for move in moves:
            np.minimum(new, label[move], out=new)
            new[move] = np.minimum(new[move], label)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _double_coset_split(
    table: _RowTable, h: PermutationGroup, inverse: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The smallest row of each H-double coset of the table's set, in
    increasing order, and the moves s -> h*s, s -> s*h per generator h
    that split it; StructureError unless the set is a union of them.

    ``inverse``, the index of each element's inverse, is given only for an
    inverse-closed set.  Then closure under right products by the
    generators is the whole check: h*s = (s^-1 * h^-1)^-1 lies in the set
    for every h in H.  The right move s -> s*h read through the inverses
    is s -> h^-1 * s, whose edges are those of left multiplication, so no
    left product is looked up.  Without ``inverse`` both sides are.
    """

    def move(products: np.ndarray) -> np.ndarray:
        found = table.find(products)
        if (found < 0).any():
            raise StructureError(
                "set is not a union of full double cosets of the subgroup"
            )
        return found

    moves = []
    for g_row in h._gen_rows:
        right = move(_compose_all(table.rows, g_row))
        if inverse is None:
            left = move(_compose_all(g_row, table.rows))
        else:
            left = inverse[right[inverse]]
        moves += [left, right]
    label = _component_minima(len(table.rows), moves)
    return table.rows[label == np.arange(len(label))], moves


def double_coset_representatives(
    elements: _Elements, h: PermutationGroup
) -> list[Permutation]:
    """Split an H-bi-invariant set into its double cosets.

    Returns the lexicographically smallest element of each double coset,
    in increasing order.  Raises StructureError if the set is not a union
    of full H-double cosets.

    The set is a union of full H-double cosets exactly when it is closed
    under multiplication by each generator of H on either side; the
    double cosets are then the components of the graph those products
    draw on the set.  For an inverse-closed set only the right products
    are looked up (see ``_double_coset_split``).
    """
    table = _RowTable(elements, h.degree)
    inverse = table.find(_inverse_rows(table.rows))
    reps, _ = _double_coset_split(table, h, inverse if (inverse >= 0).all() else None)
    return list(_permutations(reps))


_NOT_BI_INVARIANT = "connection set is not bi-invariant under the subgroup"
_NOT_INVERSE_CLOSED = "connection set is not inverse-closed"


class ConnectionSet:
    """An inverse-closed union of H-double cosets driving a coset graph.

    The set is held as its subgroup H, one row per left coset s*H (the
    read-only ``cosets``) and ``n_double_cosets``, the number of its
    H-double cosets; its size is the number of cosets times |H|.  Its
    elements are listed only where they are read: the read-only ``rows``,
    distinct and in lexicographic order, with their lookup table;
    ``elements``, the rows as ``Permutation`` objects; and the read-only
    ``representatives``, the smallest row of each H-double coset, in
    increasing order.

    The set's indicator operator (``operator``), the n x n count
    K[x, y] = #{s in S : s(y) = x}, is counted coset by coset on each call
    and not kept: eq2 compares it with the bipartite matrix and drops it.

    Built from elements (``Permutation`` objects or image rows), the set
    is listed from the start.  Inverse closure is decided by looking up
    every element's inverse, and H-bi-invariance by splitting the set into
    its H-double cosets with right products only: S*h inside S for each
    generator h, together with S = S^-1, puts h*s = (s^-1 * h^-1)^-1 in S
    as well.  The smallest row of each component of those products is a
    double coset's, and of each component of the right products a left
    coset's, and membership is a lookup in the table.  ``of_point`` builds
    {g in G : g(p) in T} from its cosets instead: it decides both on its k
    transversal rows, keeps them as its cosets, counts its double cosets
    as H's orbits on T, and lists the set only when ``rows``,
    ``elements`` or ``representatives`` is read.
    """

    __slots__ = (
        "degree",
        "subgroup",
        "cosets",
        "n_double_cosets",
        "_point",
        "_table",
        "_representatives",
        "_elements",
    )

    def __init__(self, elements: _Elements, subgroup: PermutationGroup):
        table = _RowTable(elements, subgroup.degree)
        inverse = table.find(_inverse_rows(table.rows))
        if (inverse < 0).any():
            raise StructureError(_NOT_INVERSE_CLOSED)
        try:
            reps, moves = _double_coset_split(table, subgroup, inverse)
        except StructureError:
            raise StructureError(_NOT_BI_INVARIANT) from None
        label = _component_minima(len(table.rows), moves[1::2])
        self._fill(subgroup, table.rows[label == np.arange(len(label))], len(reps))
        reps.setflags(write=False)
        self._table, self._representatives = table, reps

    @classmethod
    def of_point(
        cls,
        group: PermutationGroup,
        point: int,
        targets: Sequence[int],
        cap: int = DEFAULT_ELEMENT_CAP,
    ) -> ConnectionSet:
        """The set {g in G : g(point) in targets}, over H = G_point, built
        from cosets of H without enumerating G or listing the set:
        SizeLimitError if the group's order exceeds cap, as for
        ``element_array(cap)``.

        By Sabidussi's decomposition the set is the disjoint union of the
        left cosets u_w*H, for w in targets within the point's orbit and
        u_w the transversal row sending the point to w, so it is held as
        those k rows and H, whose element rows are listed here, once.  It
        is closed under right products by H by construction, and under
        left products exactly when H maps those targets into themselves,
        which is checked.  Then H maps the other points into themselves
        too, so the inverse (u_w*h)^-1 sends the point to
        h^-1(u_w^-1(point)), a target exactly when u_w^-1(point) is: the
        set is inverse-closed exactly when every u_w^-1(point) is a
        target, which is checked on the k transversal rows.  Its H-double
        coset through g is {g' : g'(point) in H.g(point)}, so the double
        cosets are H's orbits on the targets, and they are counted so.
        """
        group._check_order(cap)
        subgroup = group.stabilizer(point)
        t = group.transversal(point)
        # A target outside 0..degree-1 selects nothing.
        targets = np.array(list(targets), dtype=np.intp)
        wanted = np.zeros(group.degree, dtype=bool)
        wanted[targets[(0 <= targets) & (targets < group.degree)]] = True
        t = t[wanted[t[:, point]]]
        inside = np.zeros(group.degree, dtype=bool)
        inside[t[:, point]] = True
        if not inside[subgroup._gen_rows[:, inside]].all():
            raise StructureError(_NOT_BI_INVARIANT)
        # u_w^-1(point) is the place where row u_w holds the point.
        if not inside[np.argmax(t == point, axis=1)].all():
            raise StructureError(_NOT_INVERSE_CLOSED)
        # H keeps its element rows, for the operator and the set's rows.
        subgroup.element_array(cap)
        # H keeps the targets, so each of its orbits on them holds its least
        # point: the double cosets are the targets that are orbit minima.
        label = subgroup.orbit_labels()
        count = int(np.count_nonzero(inside & (label == np.arange(group.degree))))
        connection = object.__new__(cls)
        connection._fill(subgroup, t, count, point)
        return connection

    def _fill(
        self,
        subgroup: PermutationGroup,
        cosets: np.ndarray,
        n_double_cosets: int,
        point: int | None = None,
    ) -> None:
        """Hold the set as its subgroup, its left cosets' rows, read-only,
        and its double-coset count; ``point`` is an ``of_point`` set's
        point, and None for a set given as elements."""
        cosets.setflags(write=False)
        self.degree = subgroup.degree
        self.subgroup = subgroup
        self.cosets = cosets
        self.n_double_cosets = n_double_cosets
        self._point = point
        self._table = self._representatives = None
        self._elements: tuple[Permutation, ...] | None = None

    def _row_table(self) -> _RowTable:
        """The set's rows and their lookup table, formed when first read:
        every coset row composed with every element of H, sorted."""
        if self._table is None:
            rows = _compose_all(self.cosets, self.subgroup._all_rows())
            self._table = _RowTable._of_rows(rows.reshape(-1, self.degree))
        return self._table

    @property
    def rows(self) -> np.ndarray:
        return self._row_table().rows

    @property
    def representatives(self) -> np.ndarray:
        if self._representatives is None:
            # A double coset's smallest row is the first row that sends the
            # point into its H-orbit: the least row index per orbit label.
            rows = self.rows
            first = np.full(self.degree, len(rows))
            at = self.subgroup.orbit_labels().take(rows[:, self._point])
            np.minimum.at(first, at, np.arange(len(rows)))
            reps = rows.take(np.sort(first[first < len(rows)]), axis=0)
            reps.setflags(write=False)
            self._representatives = reps
        return self._representatives

    def operator(self) -> np.ndarray:
        """The n x n float matrix K of convolving by the set's indicator,
        K[x, y] = #{s in S : s(y) = x}, so that (K @ v)(x) =
        sum_s v(s^-1(x)); built on every call and not kept.

        S is the disjoint union of its left cosets u_w*H, and u_w*h sends
        y to x exactly when h sends y to u_w^-1(x), so
        K[x, y] = sum_w C[u_w^-1(x), y] with C[z, y] = #{h in H : h(y) = z}.
        C counts every element of H, one ``bincount`` of the cells
        (h(y), y) per block of H's rows of about ``_COUNT_BLOCK`` images,
        and K adds C's rows gathered through each coset row's inverse, one
        coset at a time.  That is the count of every element of S,
        regrouped: exact, with no row of S and no |S| x n array formed."""
        n = self.degree
        h_rows = self.subgroup._all_rows()
        counts = np.zeros(n * n, dtype=np.intp)
        step = max(1, _COUNT_BLOCK // n)
        for a in range(0, len(h_rows), step):
            cells = h_rows[a : a + step].astype(np.intp)
            cells *= n
            cells += np.arange(n)
            counts += np.bincount(cells.ravel(), minlength=n * n)
        counts = counts.reshape(n, n)
        kernel = np.zeros((n, n))
        for u_inverse in _inverse_rows(self.cosets):
            kernel += counts.take(u_inverse, axis=0)
        return kernel

    @property
    def elements(self) -> tuple[Permutation, ...]:
        if self._elements is None:
            self._elements = _permutations(self.rows)
        return self._elements

    def __len__(self) -> int:
        return len(self.cosets) * self.subgroup.order()

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: object) -> bool:
        if not isinstance(g, Permutation) or g.degree != self.degree:
            return False
        return bool(self.contains_rows(np.array([g.images]))[0])

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Whether each row of images, of the set's degree, is in the set:
        a row with an image outside 0..degree-1 is not.  ValueError unless
        the rows form a 2-D array of the set's width.

        A set given as elements looks the rows up in its table.  An
        ``of_point`` set holds g exactly when g(p) is a target w and
        u_w^-1 * g, which fixes p, is in H: it sifts through H's chain to
        the identity, which no row that is not a permutation does."""
        if self._point is None:
            return self._table.find(rows) >= 0
        rows = _query_rows(rows, self.degree)
        g = np.clip(rows, 0, self.degree - 1).astype(self.cosets.dtype)
        inside = np.flatnonzero((g == rows).all(axis=1))
        g = g[inside]
        coset = np.full(self.degree, -1)
        coset[self.cosets[:, self._point]] = np.arange(len(self.cosets))
        w = coset.take(g[:, self._point])
        hit = w >= 0
        back = _compose(_inverse_rows(self.cosets), w[hit], g[hit])
        member = np.zeros(len(rows), dtype=bool)
        member[inside[hit]] = self.subgroup._contains_rows(back)
        return member

    def __repr__(self) -> str:
        return f"ConnectionSet(degree={self.degree}, size={len(self)})"

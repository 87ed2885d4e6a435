"""Stratum enumeration of square-tiled surfaces, and the involution scans over it.

Enumeration fixes h to the representative of its cycle type; a kernel tests
one v per right coset v C(h) of the centralizer of h (the rows of a coset
share their corner permutation), counting fixed points before the full cycle
type, and expands the passing cosets.  It is pure Python below degree 8,
where importing numpy costs more than the scan, and numpy from degree 8 on,
with one batch of int8 arrays per cycle type of h.  A class is one orbit of
the rows under conjugation by C(h).  Below degree 8 the class loop marks
each orbit at its first row; from degree 8 on one rule keeps one row per
orbit (_orbit_representatives), which the classes code once and the
involution scan tests once; each of them drops the disconnected kept rows
with a test it runs anyway.  Enumeration stops at degree 10, where the numpy
kernel holds all 10! permutations.  Its entry points, origamis_in_stratum and
stratum_pairs_raw of flatkit.origami and hyperelliptic_scan of flatkit.spin,
import it when they run, and its funnels log on the loggers of those modules.
"""

from __future__ import annotations

import math
from itertools import permutations, product
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .origami import Origami, Perm, _canonical_code, cycles_of, invert_perm
from .spin import _involution_core
from .strata import int_partitions, normalize_orders

if TYPE_CHECKING:
    import numpy as np


def _cycle_type_rep(parts: Sequence[int]) -> Perm:
    """The permutation with consecutive cycles of the given lengths."""
    images = []
    base = 0
    for length in parts:
        images.extend(list(range(base + 1, base + length)) + [base])
        base += length
    return tuple(images)


def _centralizer_subset(parts: Sequence[int]) -> list[Perm]:
    """The elements of the centralizer of _cycle_type_rep(parts) that fix its fixed points.

    Each one maps every non-trivial cycle of h, rotated, onto a cycle of the
    same length, so there are prod_{k>=2} m_k! * k^m_k of them when h has
    m_k cycles of length k.  The identity comes first.
    """
    bases: dict[int, list[int]] = {}
    base = 0
    for length in parts:
        if length > 1:
            bases.setdefault(length, []).append(base)
        base += length
    moves_by_length = [
        [
            [
                (src + j, dst + (j + shift) % length)
                for src, dst, shift in zip(starts, targets, shifts)
                for j in range(length)
            ]
            for targets in permutations(starts)
            for shifts in product(range(length), repeat=len(starts))
        ]
        for length, starts in bases.items()
    ]
    out = []
    for moves in product(*moves_by_length):
        c = list(range(base))
        for group in moves:
            for src, dst in group:
                c[src] = dst
        out.append(tuple(c))
    return out


def _centralizer(parts: Sequence[int]) -> list[Perm]:
    """The centralizer C(h) of h = _cycle_type_rep(parts): each element of
    _centralizer_subset(parts) combined with each permutation of the fixed
    points n..d-1 of h, prod_k m_k! * k^m_k elements, k = 1 included."""
    n = sum(length for length in parts if length > 1)
    return [c[:n] + p for c in _centralizer_subset(parts) for p in permutations(range(n, len(c)))]


def _centralizer_order(parts: Sequence[int]) -> int:
    """|C(h)| = prod_k m_k! * k^m_k when h has m_k cycles of length k."""
    order = 1
    for length in set(parts):
        m = parts.count(length)
        order *= math.factorial(m) * length**m
    return order


def _coset_pairs(parts: Sequence[int]) -> list[tuple[int, int]]:
    """Position pairs (i, j) with v[i] < v[j] exactly on the representatives
    of the right cosets v C(h), for h = _cycle_type_rep(parts).

    [h, v c] = [h, v] for every c in C(h), so the corner permutation is the
    same on the whole coset.  Composing v with c on the right permutes the
    positions of v: the fixed points of h freely, each cycle block by a
    rotation, and blocks of equal length among themselves.  Each coset thus
    holds one v whose entries on the fixed points increase, whose cycle
    blocks start with their least entry, and whose blocks of equal length
    have increasing first entries.
    """
    pairs = []
    chains: dict[int, list[int]] = {}
    base = 0
    for length in parts:
        pairs.extend((base, base + j) for j in range(1, length))
        chains.setdefault(length, []).append(base)
        base += length
    for starts in chains.values():
        pairs.extend(zip(starts, starts[1:]))
    return pairs


def _target_type(d: int, orders: Sequence[int]) -> tuple[int, ...]:
    """The corner cycle type of the orders; the caller knows that d squares carry them."""
    lengths = sorted((m + 1 for m in orders), reverse=True)
    return tuple(lengths + [1] * (d - sum(lengths)))


def _coset_representatives(parts: Sequence[int]) -> list[Perm]:
    """The representatives of the right cosets v C(h) (_coset_pairs), in
    lexicographic order, for h = _cycle_type_rep(parts).

    Each position is bounded below by at most one earlier position: a cycle
    block's later entries by its first entry, a block's first entry by the
    first entry of the previous block of the same length (fixed points are
    blocks of length 1).  So filling the positions in order, each with the
    free values above its bound taken in increasing order, lists exactly the
    permutations that pass the _coset_pairs test, in the order of
    itertools.permutations, without walking all d! of them.
    """
    d = sum(parts)
    bound = [-1] * d
    for i, j in _coset_pairs(parts):
        bound[j] = i
    v = [0] * d
    free = [True] * d
    out: list[Perm] = []

    def fill(p: int) -> None:
        if p == d:
            out.append(tuple(v))
            return
        for x in range(v[bound[p]] + 1 if bound[p] >= 0 else 0, d):
            if free[x]:
                free[x] = False
                v[p] = x
                fill(p + 1)
                free[x] = True

    fill(0)
    return out


def _python_batches(
    d: int, orders: tuple[int, ...]
) -> Iterator[tuple[Perm, Perm, list[Perm], list[Perm]]]:
    """(h, h^-1, C(h), rows) per cycle type of h, h its type representative.

    The corner cycle type is tested once per right coset v C(h), on its
    representative (_coset_representatives), and a passing coset gives all
    its rows v c, sorted into the order of itertools.permutations: the rows
    a test of all d! permutations would pass, in that order.  As in the
    numpy kernel, a representative is dropped uninverted when the conjugate
    t = v^-1 h v h^-1 of the corner permutation has the wrong number of
    fixed points, the s with h(v(h^-1(s))) = v(s).
    """
    target = list(_target_type(d, orders))
    fixed = target.count(1)
    squares = range(d)
    for parts in int_partitions(d):
        h = _cycle_type_rep(parts)
        hinv = invert_perm(h)
        centralizer = _centralizer(parts)
        rows = []
        for v in _coset_representatives(parts):
            if sum([h[v[hinv[s]]] == v[s] for s in squares]) != fixed:
                continue
            vinv = invert_perm(v)
            comm = [h[v[hinv[vinv[s]]]] for s in squares]
            if sorted(map(len, cycles_of(comm)), reverse=True) == target:
                rows.extend(tuple(map(v.__getitem__, c)) for c in centralizer)
        rows.sort()
        yield h, hinv, centralizer, rows


_NUMPY_DEGREE = 8  # the numpy kernel scans from this degree on, the Python kernel below it
_RAW_DEGREE = 9  # stratum_pairs_raw yields raw pairs from this degree on, classes below it
_MAX_DEGREE = 10  # at degree 11 the d! permutations alone would take about 440 MB
_BLOCK = 65536  # columns per numpy piece in _inverse_columns, _orbit_representatives,
# the class-order pass of _classes and _propagations, which bounds their temporaries


def _stratum_orders(d: int, orders: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The normalized orders, or None when d squares cannot carry them.

    Degrees above _MAX_DEGREE raise RuntimeError before anything is scanned.
    """
    orders = normalize_orders(orders)
    if d > _MAX_DEGREE:
        raise RuntimeError(
            f"budget exceeded: stratum enumeration stops at degree {_MAX_DEGREE}, got {d}"
        )
    if sum(m + 1 for m in orders) > d:
        return None
    return orders


def _all_perms_array(d: int):
    """All d! permutations of 0..d-1, one per column of a (d, d!) int8 array.

    Built by insertion.  Keeping the squares down the rows makes every
    reduction over one permutation an elementwise pass over d rows.
    """
    import numpy as np

    out = np.zeros((1, 1), dtype=np.int8)
    for k in range(2, d + 1):
        prev = out
        m = prev.shape[1]
        new = np.empty((k, m * k), dtype=np.int8)
        for pos in range(k):
            block = new[:, pos * m : (pos + 1) * m]
            block[:pos] = prev[:pos]
            block[pos] = k - 1
            block[pos + 1 :] = prev[pos:]
        out = new
    return out


def _flat_index(rows):
    """Flat positions, in a (d, n) array, of entry [rows[s, r], r] for every s, r.

    Indexing the raveled array with them applies permutation column r to
    the entries of column r, with no intermediate array beyond the result.
    """
    import numpy as np

    at = rows.astype(np.intp)
    at *= rows.shape[1]
    at += np.arange(rows.shape[1])
    return at


class PairBatch(NamedTuple):
    """The raw pairs of one cycle type of h, as int8 arrays: h and hinv of
    shape (d,), v one permutation per row, vinv their inverses.  The rows
    are whole right cosets v C(h), one coset per run of |C(h)| rows, so
    their number is a multiple of |C(h)|; they are not in scan order.
    """

    cycle_type: tuple[int, ...]
    h: np.ndarray
    hinv: np.ndarray
    v: np.ndarray
    vinv: np.ndarray


def _stratum_batches(d: int, orders: Sequence[int]) -> Iterator[PairBatch]:
    """Raw (h, v) pairs with the given corner cycle type, one batch per type of h.

    Vectorized test of the coset representatives (_coset_pairs), d!/|C(h)|
    columns per type.  The corner permutation h v h^-1 v^-1 is never formed:
    its conjugate t = v^-1 h v h^-1 has the same cycle type, and the fixed
    points of t solve h(v(h^-1(s))) = v(s), with no inversion of v.  On the
    columns passing that count, the fixed points of the powers of t pin down
    the multiplicity of every cycle length up to the largest target length.
    The rows v c^-1 of the passing cosets are gathered from the passing
    representatives through C(h)^-1, paired row by row with their inverses
    c v^-1 = _centralizer_array(parts)[vinv], one whole coset after another
    and NOT in scan order: a reader that needs that order sorts by
    _scan_rank.  Connectivity is NOT checked and isomorphic duplicates are
    NOT removed.  Every cycle type of h gets a batch, possibly empty;
    degrees too small to carry the orders give none.
    """
    import numpy as np

    orders = _stratum_orders(d, orders)
    if orders is None:
        return
    target = _target_type(d, orders)
    counts = {length: target.count(length) for length in set(target)}
    max_len = max(target)
    expected_fix = {
        k: sum(length * n for length, n in counts.items() if k % length == 0)
        for k in range(1, max_len + 1)
    }

    all_perms = _all_perms_array(d)
    squares = np.arange(d, dtype=np.int8)[:, None]
    for parts in int_partitions(d):
        h = np.array(_cycle_type_rep(parts), dtype=np.int8)
        hinv = _inverse_columns(h[:, None])[:, 0]
        v = all_perms[:, _coset_columns(all_perms, _coset_pairs(parts))]
        g = h[v[hinv]]
        keep = (g == v).sum(axis=0, dtype=np.int8) == expected_fix[1]
        v = np.compress(keep, v, axis=1)
        vinv = _inverse_columns(v)
        conj = vinv.ravel()[_flat_index(np.compress(keep, g, axis=1))]
        conj_at = _flat_index(conj)
        mask = np.ones(v.shape[1], dtype=bool)
        power = conj
        for k in range(2, max_len + 1):
            if not mask.any():
                break
            power = power.ravel()[conj_at]
            mask &= (power == squares).sum(axis=0, dtype=np.int8) == expected_fix[k]
        v, vinv = np.compress(mask, v, axis=1), np.compress(mask, vinv, axis=1)
        if v.size:  # an empty type skips its centralizer, which can hold 10! elements
            centralizer = _centralizer_array(parts)
            v = v[_inverse_columns(centralizer)].transpose(0, 2, 1).reshape(d, -1)
            vinv = centralizer[vinv].reshape(d, -1)
        yield PairBatch(parts, h, hinv, v.T, vinv.T)


def _coset_columns(perms, pairs):
    """Indices of the columns of perms that represent their coset (_coset_pairs)."""
    import numpy as np

    keep = np.ones(perms.shape[1], dtype=bool)
    for i, j in pairs:
        keep &= perms[i] < perms[j]
    return np.flatnonzero(keep)


def _centralizer_array(parts: Sequence[int]):
    """The elements of C(h), one per column of a (d, |C(h)|)
    int8 array, built with _all_perms_array: the fixed points alone give up
    to 10! elements."""
    import numpy as np

    subset = np.array(_centralizer_subset(parts), dtype=np.int8).T
    n = sum(length for length in parts if length > 1)  # the fixed points of h are n..d-1
    if n == len(subset):
        return subset
    out = np.repeat(subset, math.factorial(len(subset) - n), axis=1)
    out[n:] = np.tile(n + _all_perms_array(len(subset) - n), subset.shape[1])
    return out


def _inverse_columns(perms):
    """The inverses of the columns of a (d, n) int8 array, C-ordered, in _BLOCK pieces."""
    import numpy as np

    out = np.empty(perms.shape, dtype=np.int8)
    squares = np.arange(len(perms), dtype=np.int8)[:, None]
    for lo in range(0, perms.shape[1], _BLOCK):
        piece = perms[:, lo : lo + _BLOCK]
        inverse = np.empty(piece.shape, dtype=np.int8)  # C order: ravel() is a view
        inverse.ravel()[_flat_index(piece)] = squares
        out[:, lo : lo + _BLOCK] = inverse
    return out


def _scan_rank(vinv):
    """Column index in _all_perms_array(d) of each permutation, from its
    inverse (one per column of vinv): column sum_{k=2..d} (k-1)! * p_k holds
    the permutation whose largest k - 1 is preceded by p_k of 0..k-2, so p_k
    counts the e < k - 1 with vinv[e] < vinv[k - 1].  So the rank is the
    position of the permutation in a scan of all d! columns.
    """
    import numpy as np

    rank = np.zeros(vinv.shape[1], dtype=np.int32)
    weight = 1
    for k in range(2, vinv.shape[0] + 1):
        weight *= k - 1
        rank += weight * (vinv[: k - 1] < vinv[k - 1]).sum(axis=0, dtype=np.int32)
    return rank


def _least_conjugates(parts: Sequence[int], vinv):
    """Indices of the columns of vinv, F-canonical rows (_orbit_representatives),
    that no k in K, followed by the F-relabeling, takes to a lower _scan_rank.

    k fixes F, so the chain of k v k^-1 leaving square s is the chain of v
    leaving k^-1(s).  In an F-canonical v the chain of root r is the run
    start[r] .. start[r] + lens[r] - 1, so the F-relabeling of k v k^-1
    moves each run to the place of its root k(r) in the new root order: the
    result is p v p^-1, with p = k on 0..n-1 and the run shifts on F.
    """
    import numpy as np

    d, m = vinv.shape
    n = sum(length for length in parts if length > 1)
    alive = np.arange(m)
    # _scan_rank orders rows by digits[j] = #{e < j : vinv[e] < vinv[j]}, from the last.
    digits = np.stack([(vinv[:j] < vinv[j]).sum(axis=0, dtype=np.int8) for j in range(d)])
    relabel = n > 0 and d - n > 1  # a single fixed point never moves
    if relabel:
        # The root of each F square: the heads come in increasing root order.
        root = np.maximum.accumulate(np.where(vinv[n:] < n, vinv[n:], -1), axis=0)
        lens = np.stack([(root == r).sum(axis=0) for r in range(n)])
        start = np.cumsum(lens, axis=0) - lens
        fixed = np.arange(n, d)[:, None]
    for c in _centralizer_subset(parts)[1:] if m else ():  # [0], the identity, fixes every row
        if not len(alive):
            break
        cinv = invert_perm(c)
        if not relabel:  # the conjugate's last row first, the rest where it ties
            images = np.array(c, dtype=np.int8)
            top = images[vinv[cinv[d - 1]]]
        else:
            moved = lens[list(cinv[:n])]
            shift = (np.cumsum(moved, axis=0) - moved)[list(c[:n])] - start
            p = np.empty(vinv.shape, dtype=np.int8)
            p[:n] = np.array(c[:n], dtype=np.int8)[:, None]
            p[n:] = fixed + shift.ravel()[_flat_index(root)]
            pinv = np.empty(vinv.shape, dtype=np.int8)
            pinv[:n] = np.array(cinv[:n], dtype=np.int8)[:, None]
            pinv[n:].ravel()[_flat_index(p[n:] - n)] = fixed
            conj = p.ravel()[_flat_index(vinv.ravel()[_flat_index(pinv)])]
            top = conj[d - 1]
        keep = top >= vinv[d - 1]
        tied = np.flatnonzero(top == vinv[d - 1])
        conj = conj[:, tied] if relabel else images[vinv[:, tied][list(cinv)]]
        for j in range(d - 2, 0, -1):
            if not len(tied):
                break
            digit = (conj[:j] < conj[j]).sum(axis=0, dtype=np.int8)
            keep[tied[digit < digits[j, tied]]] = False
            same = digit == digits[j, tied]
            tied, conj = tied[same], conj[:, same]
        if not keep.all():
            alive, vinv, digits = (np.compress(keep, a, axis=-1) for a in (alive, vinv, digits))
            if relabel:
                root, lens, start = (np.compress(keep, a, axis=1) for a in (root, lens, start))
    return alive


def _orbit_representatives(batch: PairBatch):
    """One row per orbit of C(h) acting on the connected rows of the batch by
    conjugation, and some disconnected rows.

    Returns the indices, ascending, of the kept rows, then the number of
    F-canonical rows.  F = n..d-1 are the fixed points of h, and
    C(h) = K x Sym(F) with K = _centralizer_subset.  The F-relabeling of v
    walks, from each square of 0..n-1 in order, the v-chain through F, and
    labels the F squares n, n+1, ... as met.  A row is F-canonical when that
    is the identity: each f in F heads a chain (v^-1(f) < n), the heads in
    the order of the squares they leave, or follows f - 1 in its chain
    (v^-1(f) = f - 1 in F); when h is the identity (n = 0) the one chain
    starts at square 0.  A v-cycle inside F breaks the rule and disconnects
    the pair, so each Sym(F)-orbit of connected rows holds exactly one
    F-canonical row.  An F-canonical row is kept when no K-conjugate of it,
    F-relabeled, has a lower _scan_rank (_least_conjugates).  So each
    isomorphism class of the batch is kept once, and a kept connected row
    stands for |C(h)| / |Aut| rows.  Connectivity is NOT tested: it is the
    same on a whole orbit, and each consumer drops the disconnected kept
    rows with a test it runs anyway.
    """
    import numpy as np

    n = sum(length for length in batch.cycle_type if length > 1)
    first = max(n, 1)  # the one chain of h = id starts at square 0
    follow = np.arange(first - 1, len(batch.h) - 1)[:, None]  # f - 1 for f in F
    kept = []
    f_canonical = 0
    for lo in range(0, len(batch.v), _BLOCK):
        # Heads (v^-1(f) < n) in root order, the roots being distinct; other f follow f - 1.
        pred = batch.vinv[lo : lo + _BLOCK, first:].T  # v^-1(f) for f in F
        root = np.where(pred < n, pred, -1)
        ok = np.where(pred < n, root == np.maximum.accumulate(root, axis=0), pred == follow)
        rows = lo + np.flatnonzero(ok.all(axis=0))
        f_canonical += len(rows)
        kept.append(rows[_least_conjugates(batch.cycle_type, batch.vinv[rows].T.copy())])
    return (np.concatenate(kept) if kept else np.arange(0)), f_canonical


def _classes(d: int, orders: Sequence[int]) -> Iterator[Origami]:
    """One canonical origami per isomorphism class, in discovery order.

    With h fixed to its type representative, the class of (h, v) is its
    orbit {c v c^-1 : c in C(h)}, and the classes come in the scan order of
    the first row of each orbit: the order of itertools.permutations below
    _NUMPY_DEGREE, the column order of _all_perms_array (_scan_rank) from it
    on.  Below _NUMPY_DEGREE the loop walks each type's rows of the Python
    kernel (_python_batches), skips the rows already marked, and at the
    first unmarked row marks its whole orbit and computes one canonical
    code, None exactly when the orbit is disconnected; numpy is never
    imported there.  From _NUMPY_DEGREE on, each kept row of
    _orbit_representatives is coded once, the rows coded None (the
    disconnected ones) are dropped, and the classes come in the order of
    the least scan rank of their orbits; each cycle type of h logs its
    funnel at DEBUG on the flatkit.origami logger: raw pairs, F-canonical
    rows, kept rows and classes.  Each class is built from its code with no
    second check of the permutations.
    """
    if d < _NUMPY_DEGREE:
        orders = _stratum_orders(d, orders)
        if orders is None:
            return
        for h, hinv, centralizer, rows in _python_batches(d, orders):
            conjugators = [(c, invert_perm(c)) for c in centralizer] if rows else []
            marked: set[Perm] = set()
            for v in rows:
                if v in marked:
                    continue
                marked.update(
                    tuple(map(c.__getitem__, map(v.__getitem__, cinv))) for c, cinv in conjugators
                )
                code = _canonical_code(d, h, v, hinv, invert_perm(v))
                if code is not None:
                    yield Origami._trusted(d, code[1 : 1 + d], code[1 + d :])
        return

    import logging

    import numpy as np

    log = logging.getLogger("flatkit.origami")
    for batch in _stratum_batches(d, orders):
        kept, f_canonical = _orbit_representatives(batch)
        h, hinv = batch.h.tolist(), batch.hinv.tolist()
        codes = [
            _canonical_code(d, h, v, hinv, vinv)
            for v, vinv in zip(batch.v[kept].tolist(), batch.vinv[kept].tolist())
        ]
        classes = [i for i, code in enumerate(codes) if code is not None]
        log.debug(
            "origamis_in_stratum d=%d h type %s: %d pairs, %d F-canonical, %d kept, %d classes",
            d, batch.cycle_type, len(batch.v), f_canonical, len(kept), len(classes),
        )
        if not classes:  # skip the centralizer, which can hold 10! elements
            continue
        # The least scan rank over the C(h)-orbit of each class, in pieces
        # of about _BLOCK conjugates.
        kept = kept[classes]
        centralizer = _centralizer_array(batch.cycle_type)
        cinv, size = _inverse_columns(centralizer), centralizer.shape[1]
        first = np.empty(len(kept), dtype=np.int32)
        step = max(1, _BLOCK // size)
        for lo in range(0, len(kept), step):
            vinv = batch.vinv[kept[lo : lo + step]].T
            conj = centralizer[vinv[cinv], np.arange(size)[:, None]]  # (d, |C(h)|, rows)
            first[lo : lo + step] = _scan_rank(conj.reshape(d, -1)).reshape(size, -1).min(axis=0)
        for i in np.argsort(first):
            code = codes[classes[i]]
            yield Origami._trusted(d, code[1 : 1 + d], code[1 + d :])


def _raw_pairs(d: int, orders: Sequence[int]) -> Iterator[tuple[Perm, Perm]]:
    """origami.stratum_pairs_raw: the classes below _RAW_DEGREE, every batch row from it on."""
    if d < _RAW_DEGREE:
        for o in _classes(d, orders):
            yield o.h, o.v
        return
    for batch in _stratum_batches(d, orders):
        h = tuple(batch.h.tolist())
        for row in batch.v[_scan_rank(batch.vinv.T).argsort()].tolist():
            yield h, tuple(row)


def _propagations(
    batch: PairBatch, commuting: bool = False, starts: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Per row of a batch, the number of squares t among starts from which
    sigma(0) = t propagates to a map defined on every square without a clash.

    The involution propagation (commuting False) applies
    sigma(h(s)) = h^-1(sigma(s)) and sigma(v(s)) = v^-1(sigma(s)); a flat
    involution is such a map, so every row with one has a nonzero count.
    The commuting propagation applies sigma(h(s)) = h(sigma(s)) and
    sigma(v(s)) = v(sigma(s)); on a connected row its maps are the
    automorphisms of the pair, so the count is |Aut| >= 1.  Either rule
    reaches only the component of square 0, so every disconnected row counts
    0.  Either map sends the h-cycle of 0 to an h-cycle as long, so the
    default starts are the t whose h-cycle is as long as that of 0; from
    starts (0,) the commuting count is 1 exactly on the connected rows.
    Each round applies both rules to the whole state matrix at once, int8
    with -1 for an image not known yet.  A row stops when two images of one
    square clash or when a round adds no image, and counts when it stops
    with no clash and every image known.
    """
    import numpy as np

    def merge(state, image):
        """Both partial maps together, and the rows where they disagree."""
        clash = ((state != image) & ((state | image) >= 0)).any(axis=0)
        return np.maximum(state, image), clash

    n, d = batch.v.shape
    if starts is None:
        length = [0] * d
        for cycle in cycles_of(batch.h.tolist()):
            for s in cycle:
                length[s] = len(cycle)
        starts = [t for t in range(d) if length[t] == length[0]]
    hinv_rows = batch.hinv.astype(np.intp)
    h_images = np.append(batch.h if commuting else batch.hinv, np.int8(-1))  # index -1 stays -1
    v_images = batch.v if commuting else batch.vinv
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _BLOCK):
        for t in starts:
            # One column per row of the batch: state[s] holds sigma(s), and
            # image has a last row of -1, which index -1 wraps to.
            alive = np.arange(lo, min(lo + _BLOCK, n))
            vinv = batch.vinv[alive].T
            image = np.full((d + 1, len(alive)), -1, dtype=np.int8)
            image[:d] = v_images[alive].T
            state = np.full((d, len(alive)), -1, dtype=np.int8)
            state[0] = t
            while len(alive):
                before = state
                state, clash_h = merge(state, h_images[state[hinv_rows]])
                at = state.ravel()[_flat_index(vinv)]
                state, clash_v = merge(state, image.ravel()[_flat_index(at)])
                clash = clash_h | clash_v
                still = (state == before).all(axis=0)
                counts[alive[still & ~clash & (state.min(axis=0) >= 0)]] += 1
                keep = ~(clash | still)
                alive = alive[keep]
                state = np.compress(keep, state, axis=1)
                vinv = np.compress(keep, vinv, axis=1)
                image = np.compress(keep, image, axis=1)
    return counts


def _batch_scan(d: int, orders: Sequence[int], per_class: bool = False) -> tuple[int, int]:
    """hyperelliptic_scan over the numpy batches, one row per isomorphism class.

    Conjugating (h, v) by an element of C(h) relabels the pair and keeps h,
    so a flat involution exists on every row of a C(h)-orbit or on none.
    Only the kept rows of _orbit_representatives, one row per orbit, go to
    the involution propagation (_propagations), and only the rows with a
    nonzero count go to _involution_core.  Disconnected rows never have a
    witness, so no step tests connectivity.  Returns (rows, rows with a
    witness), a witness row counting |C(h)| / |Aut| times, |Aut| from the
    commuting propagation; with per_class, (connected kept rows, kept rows
    with a witness), which counts classes: the commuting propagation from
    sigma(0) = 0 alone is 1 exactly on the connected rows, where the
    identity extends to an automorphism.  Each cycle type of h logs at DEBUG
    on the flatkit.spin logger its funnel (cosets tested, cosets passing the
    kernel's filters, rows, F-canonical rows, kept rows, propagation
    survivors, witness rows, witnesses) and the seconds spent in the kernel,
    the orbit filter, the propagation and the per-pair test.
    """
    import logging
    import time

    log = logging.getLogger("flatkit.spin")
    scanned = 0
    hits = 0
    batches = _stratum_batches(d, orders)
    while True:
        start = time.perf_counter()
        batch = next(batches, None)
        if batch is None:
            break
        kernel = time.perf_counter()
        kept, f_canonical = _orbit_representatives(batch)
        reps = batch._replace(v=batch.v[kept], vinv=batch.vinv[kept])
        orbit_filter = time.perf_counter()
        survive = _propagations(reps).nonzero()[0]
        propagation = time.perf_counter()
        h, hinv = batch.h.tolist(), batch.hinv.tolist()
        found = [
            row
            for row, v, vinv in zip(survive, reps.v[survive].tolist(), reps.vinv[survive].tolist())
            if _involution_core(d, h, v, hinv, vinv) is not None
        ]
        order = _centralizer_order(batch.cycle_type)
        if per_class:
            scanned += int(_propagations(reps, commuting=True, starts=(0,)).sum())
            witnesses = len(found)
        else:
            scanned += len(batch.v)
            found_rows = reps._replace(v=reps.v[found], vinv=reps.vinv[found])
            witnesses = int((order // _propagations(found_rows, commuting=True)).sum())
        test = time.perf_counter()
        log.debug(
            "hyperelliptic_scan d=%d h type %s: %d cosets tested, %d pass, %d rows, "
            "%d F-canonical, %d kept, %d survive propagation, %d witness rows, "
            "%d witnesses; kernel %.3f s, orbit filter %.3f s, propagation %.3f s, "
            "per-pair test %.3f s",
            d, batch.cycle_type, math.factorial(d) // order, len(batch.v) // order, len(batch.v),
            f_canonical, len(kept), len(survive), len(found), witnesses,
            kernel - start, orbit_filter - kernel, propagation - orbit_filter, test - propagation,
        )
        hits += witnesses
    return scanned, hits


def _involution_scan(d: int, orders: Sequence[int]) -> tuple[int, int]:
    """spin.hyperelliptic_scan: the batch scan from _NUMPY_DEGREE on, the classes below it."""
    if d >= _NUMPY_DEGREE:
        return _batch_scan(d, orders, per_class=d < _RAW_DEGREE)
    found = [_involution_core(d, o.h, o.v, o._hinv, o._vinv) for o in _classes(d, orders)]
    return len(found), sum(sigma is not None for sigma in found)

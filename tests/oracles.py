"""Independent oracle implementations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: digit sums
are evaluated string by string or merged level by level with an explicit
mask-and-scatter merge, pair counts by quadratic all-pairs scans, a scalar
two-pointer loop and one blocked ``searchsorted`` pass per threshold (the
per-threshold counter the library used before it counted a whole grid in one
offset scan), word counts by exhaustive enumeration,
polynomial remainders by long division over exact rationals, residue
tallies by a dict of Python-integer tuples, spacing histograms by a per-value
bin index and ``bincount``, the KS statistic by the ECDF at every sample, gap
statistics from the full array of consecutive differences, and the
closed-form CDF at 2**-0.5 by clipping and selecting among all three pieces
for every value.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def horner_values(lam: float, levels: int, standard: bool) -> np.ndarray:
    """Evaluate every digit string by vectorized Horner, then sort."""
    n = 1 << levels
    bits = ((np.arange(n)[:, None] >> np.arange(levels)) & 1).astype(np.float64)
    acc = np.zeros(n)
    for k in range(levels - 1, -1, -1):
        acc = acc * lam + bits[:, k]
    if standard:
        acc = acc * (1.0 - lam)
    return np.sort(acc)


def merge_levels(lam: float, levels: int) -> np.ndarray:
    """PRIMED values by the explicit merge ``A -> merge(lam*A, lam*A + 1)``.

    Each level places the high copy after its ``searchsorted`` position in
    the low copy and scatters both through a mask, with no sort call.
    """
    values = np.zeros(1, dtype=np.float64)
    for _ in range(levels):
        low = lam * values
        high = lam * values + 1.0
        out = np.empty(low.size + high.size, dtype=np.float64)
        pos_high = np.searchsorted(low, high, side="right") + np.arange(high.size)
        mask = np.ones(out.size, dtype=bool)
        mask[pos_high] = False
        out[pos_high] = high
        out[mask] = low
        values = out
    return values


def all_pairs_ordered_count(values: np.ndarray, thr: float) -> int:
    """Ordered pairs (i, j), i != j, with |v_i - v_j| <= thr; O(n^2) scan."""
    diff = np.abs(values[:, None] - values[None, :])
    return int((diff <= thr).sum()) - values.size


def window_count_loop(values: np.ndarray, thr: float) -> int:
    """Pairs i < j with values[j] - values[i] <= thr; monotone two-pointer loop."""
    n = values.shape[0]
    total = 0
    j = 0
    for i in range(n):
        if j < i:
            j = i
        while j + 1 < n and values[j + 1] - values[i] <= thr:
            j += 1
        total += j - i
    return total


def window_count_searchsorted(values: np.ndarray, thr: float, block: int = 1 << 15) -> int:
    """Pairs i < j with values[j] - values[i] <= thr, one ``block`` of i at a time.

    For each i, ``searchsorted`` finds the last j with ``values[j] <=
    values[i] + thr``.  Rounding of that sum can leave j one value, or one run
    of tied values, off the exact predicate, so j is then stepped back and
    forward until the predicate holds for j and fails for j + 1.
    """
    n = values.size
    total = 0
    for start in range(0, n, block):
        v = values[start:start + block]
        j = np.searchsorted(values, v + thr, side="right") - 1
        k = np.arange(v.size)
        while True:
            k = k[values[j[k]] - v[k] > thr]
            if not k.size:
                break
            j[k] -= 1
        k = np.arange(v.size)
        while True:
            k = k[j[k] < n - 1]
            k = k[values[j[k] + 1] - v[k] <= thr]
            if not k.size:
                break
            j[k] += 1
        total += int((j - np.arange(start, start + v.size)).sum())
    return total


def histogram_bincount(values: np.ndarray, ell: int, bins: int = 50):
    """Counts of ``values`` in ``bins`` left-closed bins on [0, 5*ell], and the overflow.

    Each value gets the bin index ``floor(v * bins / (5*ell))`` (scaled first,
    so exact bin-edge values land in the bin they start); indices outside
    0..bins-1 go to the overflow.
    """
    scaled = values * float(bins)
    idx = np.floor(scaled / (5.0 * ell)).astype(np.int64)
    in_range = (idx >= 0) & (idx < bins)
    counts = np.bincount(idx[in_range], minlength=bins).astype(np.int64)
    return counts, int(values.size - counts.sum())


def ks_searchsorted(values: np.ndarray, cdf) -> float:
    """max |ECDF - cdf| over the samples, with the right-continuous ECDF found
    by searching every sorted sample in the sorted array."""
    ordered = np.sort(values)
    ecdf = np.searchsorted(ordered, ordered, side="right") / values.size
    return float(np.max(np.abs(ecdf - cdf(ordered))))


def gaps_full(values: np.ndarray, lam: float, levels: int, standard: bool,
              distinct_tol: float) -> dict:
    """The fields of ``stats.GapReport``, in order, from one ``np.diff`` of the
    whole sorted array, a mask of it and first-occurrence ``argmax`` calls."""
    diffs = np.diff(values)
    min_gap = float(np.min(diffs, where=diffs > distinct_tol, initial=np.inf))
    if min_gap == np.inf:
        min_gap = 0.0
    max_idx = int(np.argmax(diffs))
    interior_max = interior_left = None
    ejk = False
    if diffs.size >= 3:
        interior = diffs[1:-1]
        k = int(np.argmax(interior))
        interior_max = float(interior[k])
        interior_left = float(values[1 + k])
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        if levels >= 3 and levels % 2 == 1 and lam < golden:
            expected_left = 1.0
            power = 1.0
            for _ in range((levels - 3) // 2):
                power *= lam * lam
                expected_left += power
            expected_gap = lam ** (levels - 1)
            scale = (1.0 - lam) if standard else 1.0
            expected_left *= scale
            expected_gap *= scale
            tol_gap = 8.0 * levels * np.spacing(float(values[-1]))
            if abs(interior_max - expected_gap) <= tol_gap:
                candidates = np.nonzero(interior >= interior_max - tol_gap)[0] + 1
                ejk = bool(np.any(np.abs(values[candidates] - expected_left) <= tol_gap))
    return {"distinct_tol": float(distinct_tol), "min_gap": min_gap,
            "max_gap": float(diffs[max_idx]), "max_gap_index": max_idx,
            "max_gap_left": float(values[max_idx]), "interior_max_gap": interior_max,
            "interior_max_left": interior_left, "ejk_prediction_match": ejk}


def cdf_sqrt_half_where(x):
    """The closed-form CDF at lambda = 2**-0.5 and the count of inputs outside
    [0, 1]: every piece is computed for every (clipped) value, and
    ``np.where`` picks one; the count is a mask over the inputs."""
    sqrt2 = math.sqrt(2.0)
    a, b = 1.5 * sqrt2 + 2.0, sqrt2 - 1.0
    x = np.asarray(x, dtype=np.float64)
    xc = np.clip(x, 0.0, 1.0)
    y = np.where(
        xc <= b,
        a * xc * xc / 2.0,
        np.where(
            xc >= 1.0 - b,
            1.0 - a * (1.0 - xc) ** 2 / 2.0,
            a * b * b / 2.0 + a * b * (xc - b),
        ),
    )
    return y, int(np.count_nonzero((x < 0.0) | (x > 1.0)))


def words_avoiding(block: str, length: int) -> int:
    """Exhaustively count binary words of the given length avoiding ``block``."""
    return sum(1 for w in itertools.product("01", repeat=length)
               if block not in "".join(w))


def poly_mod(num, den):
    """Remainder of ``num`` modulo ``den`` (constant-first, exact rationals)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    while len(num) >= len(den):
        if num[-1] == 0:
            num.pop()
            continue
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        num.pop()
    return tuple(num + [Fraction(0)] * (len(den) - 1 - len(num)))


def exact_tally_dict(minpoly, levels: int) -> list[dict]:
    """Residue tallies of levels 1..levels by a dict of Python-integer tuples.

    The polynomial is trimmed and given a positive leading coefficient
    ``lead``.  Level t maps each integer vector ``R`` (the residue
    ``R / lead**t``) to the number of length-t digit strings reducing to it:
    each level maps ``R`` to ``x*R = lead*(0, R[:-1]) - R[-1]*p[:-1]`` and to
    that plus ``lead**t`` in the constant slot.
    """
    p = [int(c) for c in minpoly]
    while p[-1] == 0:
        p.pop()
    if p[-1] < 0:
        p = [-c for c in p]
    lead = p[-1]
    tally = {(0,) * (len(p) - 1): 1}
    out = []
    bump = 1
    for _ in range(levels):
        bump *= lead
        nxt: dict = {}
        for res, mult in tally.items():
            shifted = tuple(lead * b - res[-1] * c for b, c in zip((0,) + res[:-1], p))
            bumped = (shifted[0] + bump,) + shifted[1:]
            for key in (shifted, bumped):
                nxt[key] = nxt.get(key, 0) + mult
        tally = nxt
        out.append(tally)
    return out


def tally_of(eps) -> dict:
    """An exact point set's tally as a dict from key tuples to multiplicities."""
    return dict(zip(map(tuple, eps.keys.tolist()), eps.multiplicities.tolist()))


def digit_poly(bits) -> tuple:
    return tuple(Fraction(b) for b in bits)


def bisect_root(coeffs, lo: float, hi: float, iters: int = 200) -> float:
    """Bisection for a sign change of a constant-first polynomial."""
    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    flo = f(lo)
    assert flo * f(hi) <= 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gamma_cdf_int(ell: int, s: float) -> float:
    """CDF of a Gamma(ell, 1) variable via the closed form for integer ell."""
    partial = sum(s**j / math.factorial(j) for j in range(ell))
    return 1.0 - math.exp(-s) * partial

"""Machinery for {0,±1} polynomials and the algebraic parameters they pin down.

Covers greedy digit expansions of 1 in base lambda, location of the nearest
{0,±1}-polynomial zero above a given parameter, numerical root finding with
margin reporting, Pisot/Garsia classification, forbidden digit blocks, word
counts of the subshift avoiding a block, and ``defining_poly``, the
normalized defining polynomial the exact backend reduces modulo.

Polynomials are integer coefficient tuples in *constant-first* order
throughout: ``(c0, c1, ..., cd)`` represents ``c0 + c1*x + ... + cd*x**d``.
``defining_poly`` is their one normal form, with trailing zeros trimmed and
a positive leading coefficient; ``classify``, the exact backend and the
``bcvlab exact`` report all read their polynomial through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SizeCapError, integer_arg, real_arg

__all__ = [
    "GreedyExpansion",
    "AlgebraicClass",
    "GrowthReport",
    "Verdict",
    "parse_poly",
    "poly_to_string",
    "poly_eval",
    "poly_roots",
    "classify",
    "greedy_expansion",
    "nearest_zero_above",
    "forbidden_block",
    "sft_growth_rate",
    "defining_poly",
    "MAX_POLY_DEGREE",
    "MAX_GREEDY_DIGITS",
    "MAX_WORD_COUNT_LENGTH",
]

# Certification margin for root moduli: verdicts closer than this to the unit
# circle are refused ("borderline"), never silently certified.
MODULUS_MARGIN = 1e-9
# Refused with SizeCapError before any work.  classify takes 0.2 s at degree
# 256 and 3.4 s at 1000; bcvlab greedy 0.9 s at k = 10**5 and 3.4 s at 10**6.
# The degree cap guards parse_poly, poly_roots and, one digit longer, the
# blocks of sft_growth_rate: the relations that construct_attracting_parameter
# hands to exact_levels have unbounded degree.
MAX_POLY_DEGREE = 256
MAX_GREEDY_DIGITS = 100_000
# Longest word length sft_growth_rate counts to: 0.01 s for "101" and 0.6 s for
# a random 257-digit block (a degree-256 relation's); 10**4 took 0.03 and 2.7 s.
# At count_cap = 1, blocks of 257, 400 and 600 digits took 0.11, 0.23, 0.54 s.
MAX_WORD_COUNT_LENGTH = 4096


# ---------------------------------------------------------------------------
# plain-coefficient helpers


def _integer_coeffs(coeffs) -> tuple[int, ...]:
    """``coeffs`` as Python ints without trailing zeros (the constant term
    stays); :class:`DomainError` for a non-integer (never truncated)."""
    try:
        coeffs = tuple(coeffs)
        ints = tuple(int(c) for c in coeffs)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or any(i != c for i, c in zip(ints, coeffs)):
        raise DomainError(f"polynomial coefficients must be integers, got {coeffs!r}")
    d = len(ints) - 1
    while d > 0 and ints[d] == 0:
        d -= 1
    return ints[: d + 1]


def poly_eval(coeffs, x):
    """Evaluate a constant-first coefficient sequence at ``x`` by Horner."""
    try:
        acc = 0 * x
        for c in reversed(tuple(coeffs)):
            acc = acc * x + c
    except TypeError:
        raise DomainError("poly_eval needs a sequence of numbers and a number x") from None
    return acc


_TERM = re.compile(r"([+-]?)(\d*)(?:(x)(?:\^(\d+))?)?\Z")


def parse_poly(text: str) -> tuple[int, ...]:
    """Parse strings like ``"x^3-2x-2"`` into constant-first coefficients.

    Accepts optional whitespace and ``*`` between a coefficient and ``x``.
    Raises :class:`DomainError` on anything it cannot read, and
    :class:`SizeCapError` past ``MAX_POLY_DEGREE`` before building the tuple.
    """
    if not isinstance(text, str):
        raise DomainError(f"polynomial must be given as a string, got {text!r}")
    compact = text.replace(" ", "").replace("*", "")
    if not compact:
        raise DomainError("empty polynomial string")
    coeffs: dict[int, int] = {}
    for token in re.findall(r"[+-]?[^+-]+", compact):
        m = _TERM.match(token)
        if m is None or (not m.group(2) and not m.group(3)):
            raise DomainError(f"unparsable polynomial term {token!r}")
        sign = -1 if m.group(1) == "-" else 1
        try:  # Python refuses to convert integers of more than 4300 digits
            coef = int(m.group(2)) if m.group(2) else 1
            exp = int(m.group(4) or 1) if m.group(3) else 0
        except ValueError as exc:
            raise DomainError(f"unparsable polynomial term {token!r}: {exc}") from None
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    degree = max((e for e, c in coeffs.items() if c), default=0)
    integer_arg(degree, "polynomial degree", hi=MAX_POLY_DEGREE, error=SizeCapError)
    return tuple(coeffs.get(i, 0) for i in range(degree + 1))


def poly_to_string(coeffs, descending: bool = False) -> str:
    """Render constant-first integer coefficients as e.g. ``"1 - x - x^5"``;
    a coefficient that is not an integer or too long to print raises :class:`DomainError`."""
    coeffs = _integer_coeffs(coeffs)
    terms = []
    exps = range(len(coeffs))
    for e in (reversed(exps) if descending else exps):
        c = coeffs[e]
        if c == 0 and len(coeffs) > 1:
            continue
        var = "" if e == 0 else "x" if e == 1 else f"x^{e}"
        try:  # Python converts no integer of more than 4300 digits
            mag = "" if var and abs(c) == 1 else str(abs(c))
        except ValueError as exc:
            raise DomainError(f"coefficient too long to print: {exc}") from None
        terms.append(f"{'-' if c < 0 else '+'} {mag}{var}")
    if not terms:
        return "0"
    text = " ".join(terms)  # e.g. "- 1 - x": the first sign loses its space
    return text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class GreedyExpansion:
    """Digits ``c_1..c_k`` of the greedy expansion of 1 in powers of lambda.

    ``remainder = 1 - sum(c_n * lam**n)`` lies in ``[0, lam**k)`` and
    ``c_1 == 1`` (which needs ``lam > 1/2``).  Lambda and k are the caller's
    inputs and are not stored; k is ``len(coefficients)``.
    """

    coefficients: tuple[int, ...]  # c_1..c_k, each 0 or 1
    remainder: float


class Verdict(Enum):
    PISOT = "pisot"
    GARSIA = "garsia"
    NEITHER = "neither"


@dataclass(frozen=True)
class AlgebraicClass:
    """Classification of an integer polynomial's dominant root.

    ``modulus_margin`` is the smallest distance of any root modulus to 1, so
    borderline cases are visible to the caller.
    """

    poly: tuple[int, ...]
    verdict: Verdict
    roots: tuple[complex, ...]
    dominant_root: float | None
    reciprocal: float | None
    modulus_margin: float
    note: str | None = None


@dataclass(frozen=True)
class GrowthReport:
    """Growth data for binary words avoiding one forbidden block."""

    rho: float  # spectral radius of the transfer matrix, in [1, 2]
    word_counts: tuple[int, ...]  # word_counts[n] = #length-n words, n = 0..cap
    degenerate: bool = False


# ---------------------------------------------------------------------------
# greedy expansion and nearby zeros


def greedy_expansion(lam: float, k: int) -> GreedyExpansion:
    """Greedy 0/1 digits c_1..c_k with ``1 - sum c_n lam^n`` in ``[0, lam^k)``.

    c_n is set to 1 exactly when the running remainder still exceeds lam^n.
    Requires ``lam > 1/2`` so that the leading digit c_1 = 1 is forced
    (equivalently ``1 - lam < lam``), and ``k <= MAX_GREEDY_DIGITS``.
    """
    lam = real_arg(lam, "greedy expansion lambda", 0.5, 1.0)
    k = integer_arg(k, "expansion length k", 1, MAX_GREEDY_DIGITS, SizeCapError)
    digits = [1]
    remainder = 1.0 - lam
    power = lam
    for _ in range(2, k + 1):
        power *= lam
        if remainder >= power:
            digits.append(1)
            remainder -= power
        else:
            digits.append(0)
    return GreedyExpansion(tuple(digits), remainder)


def nearest_zero_above(lam: float, k: int) -> tuple[tuple[int, ...], float]:
    """Locate the zero of the greedy relation polynomial just above ``lam``.

    Returns ``(coeffs, root)``: ``coeffs = (1, -c_1, ..., -c_k)`` are the
    constant-first coefficients of ``p(x) = 1 - sum c_n x^n``, built from
    the digits of :func:`greedy_expansion` (k + 1 entries, trailing zeros
    kept), and ``root`` is p's unique root in ``[lam, lam + lam**k)``.
    p is strictly decreasing there (``p' <= -1``), so plain bisection is
    unconditionally convergent; we run it to full double resolution.
    """
    expansion = greedy_expansion(lam, k)
    p = (1,) + tuple(-c for c in expansion.coefficients)
    lo = float(lam)  # greedy_expansion has checked it
    if expansion.remainder == 0.0:
        return p, lo
    hi = lo + expansion.remainder
    # p(hi) <= 0 mathematically; nudge past any rounding of the evaluation.
    while poly_eval(p, hi) > 0.0:
        hi += max(2.0**-48, 4.0 * np.spacing(hi))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if poly_eval(p, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return p, hi


# ---------------------------------------------------------------------------
# roots and classification


def _horner_pair(coeffs, z):
    """Value and derivative at ``z`` in one Horner pass."""
    val = 0j
    der = 0j
    for c in reversed(coeffs):
        der = der * z + val
        val = val * z + c
    return val, der


def poly_roots(coeffs) -> tuple[complex, ...]:
    """All complex roots of an integer polynomial, polished to ~1e-12.

    Companion-matrix eigenvalues seed a few Newton steps with the exact
    integer coefficients; conjugate pairs are symmetrized exactly.  Raises
    :class:`DomainError` if any residual stays above ``1e-10`` relative to
    the coefficient scale, as it does for high-order repeated roots, or if
    the coefficients, roots or residuals overflow a double, and
    :class:`SizeCapError` past ``MAX_POLY_DEGREE`` before the eigen solve.
    """
    coeffs = _integer_coeffs(coeffs)
    integer_arg(len(coeffs) - 1, "polynomial degree", 1, MAX_POLY_DEGREE, SizeCapError)
    try:  # a coefficient, root power or residual can overflow a double
        raw = np.roots(np.array(coeffs[::-1], dtype=float))
        polished = []
        for z in raw:
            z = complex(z)
            for _ in range(8):
                val, der = _horner_pair(coeffs, z)
                if val == 0 or abs(der) < 1e-30:
                    break
                step = val / der
                z -= step
                if abs(step) < 1e-15 * (1.0 + abs(z)):
                    break
            polished.append(z)
        # Snap near-real roots, then rebuild exact conjugate pairs.  The raw
        # eigenvalues come in exact conjugate pairs, and the polish and the
        # snap test commute with conjugation, so reals plus pairs fill the
        # degree.
        reals = []
        uppers = []
        for z in polished:
            if abs(z.imag) <= 1e-10 * (1.0 + abs(z)):
                reals.append(complex(z.real, 0.0))
            elif z.imag > 0:
                uppers.append(z)
        roots = list(reals)
        for z in uppers:
            roots.append(z)
            roots.append(z.conjugate())
        roots.sort(key=lambda z: (z.real, z.imag))
        scale = sum(abs(c) for c in coeffs)
        for z in roots:
            bound = scale * max(1.0, abs(z)) ** (len(coeffs) - 1)
            if abs(poly_eval(coeffs, z)) > 1e-10 * bound:
                raise DomainError(f"root residual too large for {coeffs}")
    except OverflowError:
        raise DomainError("root finding overflows a double for these coefficients") from None
    return tuple(roots)


def classify(coeffs) -> AlgebraicClass:
    """Classify an integer polynomial as Pisot, Garsia, or neither.

    Pisot: monic, exactly one real root > 1, every other root of modulus
    < 1 by at least ``MODULUS_MARGIN``.  Garsia: monic, constant term of
    absolute value 2, every root of modulus > 1 by the same margin.  Root
    moduli within the margin of 1 yield NEITHER with a "borderline" note
    rather than an uncertain certificate.  The polynomial is taken at face
    value as the defining polynomial; reducible input can only lose a
    verdict, never fabricate one.
    """
    coeffs = defining_poly(coeffs)
    roots = poly_roots(coeffs)
    margin = min(abs(abs(z) - 1.0) for z in roots)
    monic = coeffs[-1] == 1

    if not monic:
        return AlgebraicClass(coeffs, Verdict.NEITHER, roots, None, None, margin,
                              note="not monic: cannot certify an algebraic integer")

    real_gt_one = [z.real for z in roots if z.imag == 0.0 and z.real > 1.0]
    dominant = max(real_gt_one) if real_gt_one else None

    # Garsia first: for the single overlap x - 2 (no conjugates at all), the
    # reciprocal 1/2 behaves like the Garsia repulsion case.
    if abs(coeffs[0]) == 2:
        moduli = [abs(z) for z in roots]
        if all(m > 1.0 + MODULUS_MARGIN for m in moduli):
            return AlgebraicClass(coeffs, Verdict.GARSIA, roots, dominant,
                                  1.0 / dominant if dominant else None, margin)
        if all(m > 1.0 - MODULUS_MARGIN for m in moduli):
            return AlgebraicClass(coeffs, Verdict.NEITHER, roots, None, None, margin,
                                  note="borderline: root modulus within 1e-9 of 1")

    if dominant is not None and len(real_gt_one) == 1:
        others = [z for z in roots if not (z.imag == 0.0 and z.real == dominant)]
        moduli = [abs(z) for z in others]
        if all(m < 1.0 - MODULUS_MARGIN for m in moduli):
            return AlgebraicClass(coeffs, Verdict.PISOT, roots, dominant,
                                  1.0 / dominant, margin)
        if all(m < 1.0 + MODULUS_MARGIN for m in moduli):
            return AlgebraicClass(coeffs, Verdict.NEITHER, roots, None, None, margin,
                                  note="borderline: root modulus within 1e-9 of 1")

    return AlgebraicClass(coeffs, Verdict.NEITHER, roots, dominant,
                          1.0 / dominant if dominant else None, margin)


# ---------------------------------------------------------------------------
# forbidden blocks and subshift growth


def forbidden_block(relation_coeffs) -> str:
    """Digit block whose removal absorbs the relation ``1 + sum c_n x^n = 0``.

    Writing ``c_n = u_n - v_n`` canonically (``u_n = 1`` iff ``c_n = 1``,
    ``v_n = 1`` iff ``c_n = -1``), any occurrence of the block
    ``1 u_1 ... u_k`` in a digit string can be replaced by ``0 v_1 ... v_k``
    without changing the represented value, so counting strings that avoid
    the block bounds the number of distinct values.
    """
    try:
        return "1" + "".join({1: "1", 0: "0", -1: "0"}[c] for c in relation_coeffs)
    except (TypeError, KeyError):
        raise DomainError("relation coefficients must lie in {-1, 0, 1}") from None


def _pattern_transitions(block: str) -> list[list[int]]:
    """Pattern-automaton transitions over {0,1}; state len(block) is the dead state.

    State q means the digits read so far end in ``block[:q]`` and in no longer
    prefix of the block; digit a leads to the longest prefix of the block that
    ends ``block[:q] + a``.
    """
    return [[max(k for k in range(q + 2) if (block[:q] + a).endswith(block[:k]))
             for a in "01"] for q in range(len(block))]


def _spectral_radius(T: np.ndarray) -> float:
    """Perron root of a nonnegative integer matrix by squared power iteration.

    Iterating on ``T + I`` removes rotational eigenvalue ties; repeated
    squaring reaches an effective power of 2^60, which also settles defective
    (Jordan) cases, so the final Rayleigh-style ratio is exact to rounding.
    """
    m = T.shape[0]
    M = T.astype(float) + np.eye(m)
    W = M.copy()
    for _ in range(60):
        W = W @ W
        W /= W.max()
    v = W @ np.ones(m)
    v /= v.sum()
    return float((M @ v).sum() / v.sum()) - 1.0


def sft_growth_rate(block: str, count_cap: int = 30) -> GrowthReport:
    """Growth rate of binary words avoiding ``block``, with exact word counts.

    Builds the pattern-matching automaton for the block, drops the absorbing
    (matched) state, and returns the transfer-matrix spectral radius together
    with exact dynamic-programming counts of surviving words for lengths up
    to ``count_cap``.  For non-degenerate blocks the count ratio is required
    to agree with the spectral radius to 1e-6 (counting past ``count_cap``
    as needed); disagreement at length 400 raises :class:`DomainError`.
    A block of more than ``MAX_POLY_DEGREE + 1`` digits or a ``count_cap``
    past ``MAX_WORD_COUNT_LENGTH`` raises :class:`SizeCapError`.

    A block that only leaves polynomially many words (e.g. ``"1"``, which
    leaves just 0^n) is returned with ``rho = 1`` and flagged degenerate.
    """
    if not isinstance(block, str) or block[:1] != "1" or any(ch not in "01" for ch in block):
        raise DomainError("block must be a string over {0,1} starting with 1")
    integer_arg(len(block), "block length", hi=MAX_POLY_DEGREE + 1, error=SizeCapError)
    count_cap = integer_arg(count_cap, "count_cap", 0, MAX_WORD_COUNT_LENGTH, SizeCapError)
    m = len(block)
    delta = _pattern_transitions(block)
    T = np.zeros((m, m), dtype=np.int64)
    for q, row in enumerate(delta):
        for q2 in row:
            if q2 < m:
                T[q, q2] += 1

    rho = _spectral_radius(T)
    rho = min(max(rho, 1.0), 2.0)
    degenerate = rho < 1.0 + 1e-9
    if degenerate:
        rho = 1.0

    # Exact integer word counts; counts[n] = number of length-n words.  Past
    # count_cap, a non-degenerate block counts on until the ratio of the last
    # two counts agrees with rho.
    counts = [1]
    state = [1] + [0] * (m - 1)
    while True:
        nxt = [0] * (m + 1)  # entry m collects the dead state
        for w, row in zip(state, delta):
            for q2 in row:
                nxt[q2] += w
        state = nxt[:m]
        counts.append(sum(state))
        if len(counts) <= count_cap:
            continue
        if degenerate or abs(counts[-1] / counts[-2] - rho) <= 1e-6 * rho:
            break
        if len(counts) > 400:
            raise DomainError(f"word-count growth {counts[-1] / counts[-2]} "
                              f"disagrees with spectral radius {rho}")
    return GrowthReport(rho, tuple(counts[: count_cap + 1]), degenerate)


# ---------------------------------------------------------------------------
# the defining polynomial of the exact backend


def defining_poly(minpoly) -> tuple[int, ...]:
    """Trimmed integer coefficients of ``minpoly`` with positive leading term.

    Raises :class:`DomainError` for a coefficient that is not an integer or
    a polynomial of degree 0."""
    p = _integer_coeffs(minpoly)
    integer_arg(len(p) - 1, "defining polynomial degree", lo=1)
    if p[-1] < 0:
        p = tuple(-c for c in p)
    return p

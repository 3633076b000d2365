"""Binary linear code engine.

Generator rows are stored as Python ints (bit i = coordinate i, zero
based internally; support sets at the API boundary are 1-based).  Codes
are canonicalized to reduced row echelon form so equal codes compare
equal.

A self-dual code's weight distribution is not enumerated: by Gleason's
theorem it is fixed by a_0..a_K, its counts of the weights up to
2K = 2 floor(n/8), and low_weight_distribution counts those exactly from
two information sets, the pivots of the RREF generator and their
complement, by XORing at most K rows of each side's generator, which
takes sum_(t <= K) C(n/2, t) combinations per side instead of 2^(n/2)
codewords.  The inverse code block turns a_0..a_K into the Gleason
coefficients c, which fix the shadow's distribution as well as the
code's: one gleason.enumerators_from_gleason call, as in solve, expands
c into both, checked against a_0..a_K, the only weights observed.  The
tests compare both with the exhaustive enumeration of the code and of
the shadow coset.

Every other code, and every coset offset + C, is enumerated
exhaustively: weight_distribution packs rows into numpy uint64 words and
walks the 2^k codewords by a vectorized meet-in-the-middle XOR.  When
the all-ones word 1 lies in the code, only half of them are walked:
C = C' + {0, 1} for C' spanned by all RREF rows but one, and
wt(x + 1) = n - wt(x), so the counts of the other half are those of the
first reversed.  The same holds for a coset offset + C.
The XOR runs in blocks of BLOCK_WORDS words (512 KB), so a block, its
uint8 popcounts and their per-codeword sums (uint8, or uint16 past
n = 255) stay in a core's L2 cache on the way to the weight count,
instead of streaming a 32 MB block and a 32 MB int64 copy through
memory.  The b half of the XOR takes as many rows as fit in one block,
but never fewer than the a half, so a block holds few a rows and numpy
walks each one against a long b.  uint8 weights are counted two at a
time, as one uint16 each, which halves bincount's work.

Includes the bundled length-46 circulant code (identity block next to a
23 x 23 circulant) and the table of ten recorded even-weight vectors
whose neighbor construction yields singly even self-dual [46,23,8] codes
with minimal shadow, together with their enumerator parameters beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import xor
from typing import Iterable, Sequence

import numpy as np

from .exact import VerificationFailure
from .gleason import (FamilyParams, ParametricEnumerator, code_inverse_col0,
                      enumerators_from_gleason)
from .solver import beta_family_for_length, minimal_shadow_r, solve

ENUMERATION_CAP = 28    # dimension k: 2^k codewords
LENGTH_CAP = 4096       # length n: each half of the XOR table is <= 8 MB
BLOCK_WORDS = 1 << 16   # uint64 words per XOR block (512 KB), or one half
COMBO_CAP = 1 << 22     # combinations of at most n/8 rows per information set


class EnumerationCapError(ValueError):
    """Raised when an exhaustive enumeration would exceed a cap."""


class GeneratorFileError(ValueError):
    """Raised for malformed generator matrix files."""


class BetaMismatchError(ValueError):
    """Raised when a code's weight data fits no integer beta."""


def _rref(rows: Iterable[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(2); returns (rows, pivot columns)."""
    work = [r for r in rows if r]
    out: list[int] = []
    pivots: list[int] = []
    for col in range(n):
        mask = 1 << col
        hit = next((r for r in work if r & mask), None)
        if hit is None:
            continue
        work = [r ^ hit if r & mask else r for r in work if r is not hit]
        out = [r ^ hit if r & mask else r for r in out]
        out.append(hit)
        pivots.append(col)
        if not work:
            break
    return tuple(out), tuple(pivots)


class BinaryCode:
    """A binary linear [n, k] code held as a canonical RREF generator matrix."""

    __slots__ = ("n", "rows", "pivots", "_dist", "_shadow_dist", "_shadow")

    def __init__(self, rows: Iterable[int], n: int):
        if n <= 0:
            raise ValueError(f"code length must be positive, got {n}")
        rows = list(rows)
        if any(r < 0 or r >> n for r in rows):
            raise ValueError("generator row exceeds code length")
        self.rows, self.pivots = _rref(rows, n)
        self.n = n
        self._dist: list[int] | None = None
        self._shadow_dist: list[int] | None = None
        self._shadow: "ShadowPartition | None" = None

    @property
    def k(self) -> int:
        return len(self.rows)

    def contains(self, v: int) -> bool:
        for r, p in zip(self.rows, self.pivots):
            if v & (1 << p):
                v ^= r
        return v == 0

    def __eq__(self, other):
        return (isinstance(other, BinaryCode)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"BinaryCode(n={self.n}, k={self.k})"


def circulant(first_row: Sequence[int]) -> list[list[int]]:
    """k x k circulant matrix: row i is first_row cyclically right-shifted by i."""
    k = len(first_row)
    if k < 1:
        raise ValueError("circulant needs a nonempty first row")
    return [[first_row[(j - i) % k] for j in range(k)] for i in range(k)]


def is_self_orthogonal(code: BinaryCode) -> bool:
    rows = code.rows
    return all((a & b).bit_count() % 2 == 0
               for i, a in enumerate(rows) for b in rows[i:])


def is_self_dual(code: BinaryCode) -> bool:
    return 2 * code.k == code.n and is_self_orthogonal(code)


def parity_class(code: BinaryCode) -> str:
    """"doubly even", "singly even", or "neither" (some odd weight).

    For an all-even-weight code, weight mod 4 is controlled by the
    generators and their pairwise intersections: the code is doubly even
    iff every generator has weight divisible by 4 and all intersections
    are even.
    """
    rows = code.rows
    if any(r.bit_count() % 2 for r in rows):
        return "neither"
    doubly = all(r.bit_count() % 4 == 0 for r in rows)
    if doubly and is_self_orthogonal(code):
        return "doubly even"
    return "singly even"


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _pack(rows: Sequence[int], n: int) -> np.ndarray:
    words = (n + 63) // 64
    out = np.zeros((len(rows), words), dtype=np.uint64)
    for i, r in enumerate(rows):
        for w in range(words):
            out[i, w] = (r >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return out


def _combos(packed: np.ndarray) -> np.ndarray:
    """All XOR combinations of the given packed rows, shape (2^k, words);
    combination i holds row j when bit j of i is set."""
    out = np.zeros((1 << len(packed), packed.shape[1]), dtype=np.uint64)
    for j, row in enumerate(packed):
        np.bitwise_xor(out[:1 << j], row, out=out[1 << j:2 << j])
    return out


def weight_distribution(code: BinaryCode, offset: int = 0) -> list[int]:
    """Exact weight counts of the coset offset + C over all 2^k codewords,
    for a word 0 <= offset < 2^n.

    When the all-ones word 1 lies in C (every self-dual code), only
    offset + C' is enumerated, C' the span of all RREF rows but the last,
    so C = C' + {0, 1}; since wt(x + 1) = n - wt(x), the counts of
    offset + C are those of offset + C' plus their reversal.  The caps
    apply to the dimension k of C, folded or not.
    """
    if not 0 <= offset < 1 << code.n:
        raise ValueError(f"offset {offset} is not a word of length {code.n}")
    if code.k > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"dimension {code.k} exceeds the enumeration cap {ENUMERATION_CAP}")
    if code.n > LENGTH_CAP:
        raise EnumerationCapError(
            f"length {code.n} exceeds the enumeration cap {LENGTH_CAP}")
    rows = code.rows
    # each RREF row holds its own pivot bit, so 1 lies in C iff it is the
    # XOR of all the rows
    fold = reduce(xor, rows, 0) == (1 << code.n) - 1
    if fold:
        rows = rows[:-1]
    # b takes as many rows as fit in one block, but never fewer than a
    k = len(rows)
    fit = (BLOCK_WORDS // ((code.n + 63) // 64)).bit_length() - 1
    ka = k - max(k - k // 2, min(k, fit))
    a = _combos(_pack(rows[:ka], code.n)) ^ _pack([offset], code.n)[0]
    b = _combos(_pack(rows[ka:], code.n))
    weight_dtype = np.uint8 if code.n <= 255 else np.uint16  # holds 0..n
    # uint8 weights are counted in pairs: a uint16 holding two adjacent
    # weights is one bin of an (n+1) x 256 table, and the two sums at the
    # end count each weight as a low and as a high byte, in either byte order
    pairs = weight_dtype is np.uint8 and b.shape[0] % 2 == 0
    counts = np.zeros(256 * (code.n + 1) if pairs else code.n + 1, dtype=np.int64)
    chunk = max(1, BLOCK_WORDS // b.size)
    for s in range(0, a.shape[0], chunk):
        w = np.bitwise_count(a[s:s + chunk, None, :] ^ b[None, :, :])
        if b.shape[1] > 1:
            w = w.sum(axis=2, dtype=weight_dtype)
        w = w.ravel().view(np.uint16) if pairs else w.ravel()
        counts += np.bincount(w, minlength=counts.size)
    if pairs:
        table = counts.reshape(code.n + 1, 256)
        counts = table[:, :code.n + 1].sum(axis=0) + table.sum(axis=1)
    if fold:
        counts = counts + counts[::-1]
    return [int(x) for x in counts]


# ---------------------------------------------------------------------------
# low weights of self-dual codes


def _level_counts(rows: np.ndarray, top: int) -> np.ndarray:
    """counts[t, p]: how many XORs of t of the packed rows, t <= top, have
    p bits set.

    The t-row combinations are built level by level, each level into one
    preallocated array: those whose last row is j are row j XORed onto
    the (t-1)-row combinations of the rows before j, which are the first
    C(j, t-1) entries of the level before, as that level lies in the same
    order.  Each level is counted in slices of BLOCK_WORDS words."""
    k = len(rows)
    counts = np.zeros((top + 1, 65), dtype=np.int64)   # popcounts 0..64
    counts[0, 0] = 1
    level = np.zeros(1, dtype=np.uint64)    # the empty combination
    for t in range(1, top + 1):
        nxt = np.empty(math.comb(k, t), dtype=np.uint64)
        pos = 0
        for j in range(t - 1, k):
            size = math.comb(j, t - 1)
            np.bitwise_xor(level[:size], rows[j], out=nxt[pos:pos + size])
            pos += size
        level = nxt
        for s in range(0, level.size, BLOCK_WORDS):
            counts[t] += np.bincount(np.bitwise_count(level[s:s + BLOCK_WORDS]),
                                     minlength=65)
    return counts


def low_weight_distribution(code: BinaryCode) -> list[int]:
    """Exact counts of the weights 0..2K, K = floor(n/8), in a self-dual
    code C: the counts that fix its enumerator by Gleason's theorem.

    The RREF generator [I | A] is systematic on the pivots P; as C is its
    own dual, the parity-check matrix [A^T | I] generates C too and is
    systematic on the complement Q: its row q is e_q + sum_i A[i,q] e_(p_i).
    A word of weight at most 2K has at most K ones on P or on Q, so it
    is the XOR of at most K rows of one of the two.  Both are walked:
    a combination of t rows has t ones on its own side, and the XOR of
    the rows' other halves (rows, then columns of A, as k-bit words) has
    the rest.  A Q-side combination is counted only when its P half has
    more than K ones, so no word is counted twice; with t ones on Q it
    then weighs more than K + t, so the Q side stops at t = K - 1.

    The P side walks sum_(t <= K) C(k, t) combinations and the Q side
    sum_(t < K) C(k, t).  The P side's count is capped at COMBO_CAP =
    2^22 before any allocation (EnumerationCapError).  The cap admits
    every self-dual code up to n = 62 (3 572 224 combinations) and
    refuses n = 64 (15 033 173), so every admitted code has k <= 31 and
    its halves fit in one uint64 word.
    """
    if not is_self_dual(code):
        raise ValueError("low-weight counts require a self-dual code")
    k, h = code.k, code.n // 8
    combos = sum(math.comb(k, t) for t in range(h + 1))
    if combos > COMBO_CAP:
        raise EnumerationCapError(f"{combos} combinations of at most {h} rows "
                                  f"exceed the combination cap {COMBO_CAP}")
    nbytes = (code.n + 7) // 8
    bits = np.unpackbits(np.frombuffer(b"".join(r.to_bytes(nbytes, "little")
                                                for r in code.rows), np.uint8)
                         .reshape(k, nbytes), axis=1, count=code.n,
                         bitorder="little")
    a = np.delete(bits, list(code.pivots), axis=1)  # A: the columns off P

    def words(m):   # each row of the 0/1 matrix m as one little-endian uint64
        out = np.zeros((k, 8), dtype=np.uint8)
        out[:, :(k + 7) // 8] = np.packbits(m, axis=1, bitorder="little")
        return out.view("<u8").ravel()

    p_side = _level_counts(words(a), h)                 # [t, q]: t on P, q on Q
    q_side = _level_counts(words(a.T), max(h - 1, 0))   # [t, p]: t on Q, p on P
    q_side[:, :h + 1] = 0
    p_side[:len(q_side)] += q_side
    dist = np.zeros(2 * h + 65, dtype=np.int64)
    for t, row in enumerate(p_side):                # weight t + x at column x
        dist[t:t + 65] += row
    return [int(x) for x in dist[:2 * h + 1]]


def _gleason_enumerators(code: BinaryCode) -> tuple[list[int], list[int]]:
    """The weight distributions of a self-dual code and of its shadow,
    computed once and cached on the code.  By Gleason's theorem (Conway
    and Sloane, IEEE Trans. IT 36, 1990; see gleason) the counts a_0..a_K
    of the weights 0..2K, K = floor(n/8), fix the Gleason coefficients c
    through the inverse code block, and one enumerators_from_gleason call
    expands c into both.  Raises VerificationFailure unless a_0 = 1, every
    a_i and b_i is a non-negative int, and the rebuilt a_0..a_K (and the
    zero odd weights up to 2K) equal the counts; the expansion checks
    both sums at 1, c_0 2^(n/2) = 2^k, as c_0 = a_0."""
    if code._shadow_dist is None:
        fam = FamilyParams.from_length(code.n)
        low = low_weight_distribution(code)
        if low[0] != 1:
            raise VerificationFailure(f"{low[0]} words of weight 0 counted, not 1")
        cols = [code_inverse_col0(fam, j=j) for j in range(fam.c_count)]
        c = [sum(col[i] * a for col, a in zip(cols, low[::2]))
             for i in range(fam.c_count)]
        enum = enumerators_from_gleason(c, fam)
        dist, weights = [0] * (code.n + 1), [0] * (code.n + 1)
        dist[::2] = (p for p, _ in enum.a)
        weights[fam.r::4] = (p for p, _ in enum.b)
        for vec, what in ((dist, "words"), (weights, "shadow vectors")):
            bad = next((w for w, x in enumerate(vec)
                        if type(x) is not int or x < 0), None)
            if bad is not None:
                raise VerificationFailure(f"Gleason rebuild of n={code.n} counts "
                                          f"{vec[bad]} {what} of weight {bad}")
        bad = next((w for w, x in enumerate(low) if x != dist[w]), None)
        if bad is not None:
            raise VerificationFailure(f"Gleason rebuild of n={code.n} counts "
                                      f"{dist[bad]} words of weight {bad}, "
                                      f"{low[bad]} were counted")
        code._dist, code._shadow_dist = dist, weights
    return code._dist, code._shadow_dist


def code_weight_distribution(code: BinaryCode) -> list[int]:
    """The code's weight distribution, computed once: by low weights and
    Gleason's theorem for a self-dual code, else exhaustively."""
    if code._dist is None:
        code._dist = (_gleason_enumerators(code)[0] if is_self_dual(code)
                      else weight_distribution(code))
    return code._dist


def min_weight(code: BinaryCode) -> int:
    dist = code_weight_distribution(code)
    try:
        return next(w for w in range(1, code.n + 1) if dist[w])
    except StopIteration:
        raise ValueError("the zero code has no minimum weight") from None


# ---------------------------------------------------------------------------
# shadows


@dataclass(frozen=True)
class ShadowPartition:
    """The doubly even subcode C0, two coset representatives of the shadow
    over C0, and the shadow's exact weight distribution."""

    c0: BinaryCode
    shadow_reps: tuple[int, int]
    shadow_weights: list[int]

    @property
    def min_weight(self) -> int:
        return next(w for w, c in enumerate(self.shadow_weights) if c)


def shadow(code: BinaryCode) -> ShadowPartition:
    """Shadow of a singly even self-dual code.

    C0 is the index-2 subcode of weights divisible by 4 (the kernel of
    wt/2 mod 2, which is linear on a self-orthogonal code).  The dual of
    C0 splits into four cosets of C0, two of which form the code; the
    shadow is the other two, i.e. the coset t + C for any t in the dual
    of C0 outside C.  Its distribution is not enumerated: the expansion
    that gives the code's gives it too (`_gleason_enumerators`), and the
    tests compare it with `weight_distribution(code, t)`, the coset's.
    Such a t is read off the RREF: the sum of the pivot unit vectors of
    the rows g_i with wt(g_i)/2 odd meets each g_i in wt(g_i)/2 (mod 2)
    positions, so t is orthogonal to C0 but not to C = C^perp.  The two
    representatives t and t + g must fall on weights the expansion
    counts, else VerificationFailure is raised.
    """
    if code._shadow is not None:
        return code._shadow
    if not is_self_dual(code):
        raise ValueError("shadow requires a self-dual code")
    klass = parity_class(code)
    if klass != "singly even":
        raise ValueError(f"shadow requires a singly even code, got {klass}")
    par = [(r.bit_count() // 2) % 2 for r in code.rows]
    g = code.rows[par.index(1)]
    c0 = BinaryCode([r ^ g if p else r
                     for r, p in zip(code.rows, par) if r != g], code.n)
    if c0.k != code.k - 1:
        raise VerificationFailure(f"doubly even subcode has dimension {c0.k}, "
                                  f"expected {code.k - 1}")
    t = sum(1 << p for p, f in zip(code.pivots, par) if f)
    weights = _gleason_enumerators(code)[1]
    for rep in (t, t ^ g):
        if not weights[rep.bit_count()]:
            raise VerificationFailure(
                f"shadow vector of weight {rep.bit_count()} where the "
                f"shadow distribution counts none")
    code._shadow = ShadowPartition(c0, (t, t ^ g), weights)
    return code._shadow


def is_minimal_shadow(code: BinaryCode) -> bool:
    return shadow(code).min_weight == minimal_shadow_r(code.n)


# ---------------------------------------------------------------------------
# neighbors


def support_mask(support: Iterable[int], n: int) -> int:
    """Bitmask from 1-based coordinate positions."""
    x = 0
    for pos in support:
        if not 1 <= pos <= n:
            raise ValueError(f"support position {pos} outside 1..{n}")
        bit = 1 << (pos - 1)
        if x & bit:
            raise ValueError(f"duplicate support position {pos}")
        x |= bit
    return x


def neighbor(code: BinaryCode, support: Iterable[int]) -> BinaryCode:
    """The self-dual neighbor spanned by (code restricted to x-orthogonal
    words) together with x, for an even-weight x outside the code.
    The input code must be self-dual."""
    if not is_self_dual(code):
        raise ValueError("neighbor requires a self-dual code")
    x = support_mask(support, code.n)
    if x.bit_count() % 2:
        raise ValueError("neighbor vector must have even weight")
    if code.contains(x):
        raise ValueError("neighbor vector lies in the code")
    # x lies outside the code, which is its own dual, so some row has
    # odd intersection with x
    flags = [(r & x).bit_count() % 2 for r in code.rows]
    i = flags.index(1)
    gi = code.rows[i]
    sub = [r ^ gi if f else r for r, f in zip(code.rows, flags)]
    del sub[i]
    return BinaryCode(sub + [x], code.n)


# ---------------------------------------------------------------------------
# enumerator extraction and the bundled length-46 codes


def enumerator_vectors(code: BinaryCode) -> tuple[list[int], list[int]]:
    """Observed (a, b) coefficient vectors: a_i = #codewords of weight 2i,
    b_i = #shadow vectors of weight 4i + r.  A code that is not singly
    even and self-dual raises ValueError before anything is counted."""
    weights = shadow(code).shadow_weights
    r = FamilyParams.from_length(code.n).r
    return code_weight_distribution(code)[::2], weights[r::4]


def extract_beta(code: BinaryCode) -> int:
    """The unique integer beta matching the code's exact weight data
    against the enumerator of the one-parameter family of its length;
    every code and shadow coefficient is compared at that beta.

    Of a self-dual code's data only a_0..a_K (the weights up to 2K) are
    counted; the rest of a, and b, come from them by one expansion of the
    code's Gleason coefficients, so once a_0..a_K match, the comparisons
    past them check that expansion against solve's enumerator, not
    against the code.  The full distributions of the bundled n = 46 codes
    and their shadows are compared with their exhaustive enumeration in
    the tests."""
    return _match_beta(code, solve(*beta_family_for_length(code.n)))


def _match_beta(code: BinaryCode, enum: ParametricEnumerator) -> int:
    """extract_beta against the family enumerator enum of the code's length."""
    a_obs, b_obs = enumerator_vectors(code)
    beta = next((Fraction(obs - p, q)
                 for (p, q), obs in zip(enum.a + enum.b, a_obs + b_obs) if q), None)
    if beta is None or beta.denominator != 1:
        raise BetaMismatchError(f"no integer beta fits (got {beta})")
    beta = int(beta)
    for side, pairs, obs_vec in (("a", enum.a, a_obs), ("b", enum.b, b_obs)):
        for i, ((p, q), obs) in enumerate(zip(pairs, obs_vec)):
            want = p + q * beta
            if want != obs:
                w = 2 * i if side == "a" else enum.fam.shadow_exponent(i)
                raise BetaMismatchError(
                    f"mismatch at weight {w} ({side}[{i}]): "
                    f"expected {want} at beta={beta}, observed {obs}")
    return beta


CIRCULANT_46_FIRST_ROW = "01011101011100000111110"

# 1-based supports of the recorded even-weight vectors, with the beta of
# the resulting neighbor's enumerator
NEIGHBOR_TABLE: tuple[tuple[tuple[int, ...], int], ...] = (
    ((1, 24, 26, 27, 29, 30, 31, 32, 33, 34, 36, 37, 42, 43, 45, 46), 36),
    ((1, 27, 28, 31, 33, 35, 36, 37, 42, 43, 45, 46), 42),
    ((10, 11, 20, 27, 29, 34, 38, 41, 42, 45), 44),
    ((5, 6, 25, 29, 30, 32, 33, 36, 40, 41, 44, 45), 46),
    ((1, 23, 28, 29, 30, 31, 32, 37, 40, 41, 44, 45), 48),
    ((1, 26, 27, 28, 30, 32, 35, 36, 37, 42, 43, 45), 50),
    ((2, 3, 24, 25, 26, 28, 29, 33, 34, 36, 37, 41, 42, 44), 52),
    ((1, 25, 28, 29, 32, 33, 34, 36, 38, 42, 43, 45), 54),
    ((1, 23, 24, 27, 30, 36, 40, 41, 44, 45), 56),
    ((1, 2, 25, 29, 30, 33, 35, 38, 44, 46), 58),
)


def reference_code_46() -> BinaryCode:
    """The bundled [46, 23] code with generator [I | R], R circulant.

    The right-shift circulant convention is pinned by validation: it is
    the one whose ten recorded neighbors reproduce the bundled beta
    values (the left-shift variant fails at the third entry).
    """
    first = [int(ch) for ch in CIRCULANT_46_FIRST_ROW]
    rows = []
    for i, crow in enumerate(circulant(first)):
        r = 1 << i
        for j, bit in enumerate(crow):
            if bit:
                r |= 1 << (23 + j)
        rows.append(r)
    return BinaryCode(rows, 46)


@dataclass(frozen=True)
class NeighborCheck:
    """Verification record for one entry of the bundled neighbor table."""

    index: int
    support: tuple[int, ...]
    beta: int
    code: BinaryCode
    self_dual: bool
    singly_even: bool
    min_weight: int
    shadow_min_weight: int
    minimal_shadow: bool

    @property
    def ok(self) -> bool:
        return (self.self_dual and self.singly_even
                and self.min_weight == 8 and self.minimal_shadow)


def verify_neighbor_table() -> list[NeighborCheck]:
    """Build the bundled code, apply the ten neighbor constructions, and
    verify each result is a singly even self-dual [46,23,8] code with
    minimal shadow carrying the recorded beta.  The ten share one
    solve of the n = 46 family."""
    base = reference_code_46()
    if not (is_self_dual(base) and parity_class(base) == "singly even"
            and min_weight(base) == 8):
        raise VerificationFailure("bundled length-46 code failed validation")
    enum = solve(*beta_family_for_length(base.n))
    out = []
    for idx, (supp, beta_expect) in enumerate(NEIGHBOR_TABLE, start=1):
        nb = neighbor(base, supp)
        sh = shadow(nb)
        beta = _match_beta(nb, enum)
        check = NeighborCheck(
            index=idx, support=supp, beta=beta, code=nb,
            self_dual=is_self_dual(nb),
            singly_even=parity_class(nb) == "singly even",
            min_weight=min_weight(nb),
            shadow_min_weight=sh.min_weight,
            minimal_shadow=is_minimal_shadow(nb),
        )
        if not check.ok or beta != beta_expect:
            raise VerificationFailure(
                f"neighbor {idx} failed verification: beta={beta} "
                f"(expected {beta_expect}), flags={check}")
        out.append(check)
    return out


# ---------------------------------------------------------------------------
# generator matrix files


def parse_generator_file(text: str) -> BinaryCode:
    """Parse the plain-text generator format: one 0/1 row per line,
    whitespace ignored inside rows, optional first-line header "n k".

    A first line of two 0/1-only tokens (say "10 1") is read as a header
    only when its digit count differs from the following row's width;
    otherwise it is just another row.  Rows stay text until the caps
    pass: a length or row count above LENGTH_CAP raises
    EnumerationCapError before any row becomes an integer.
    """
    lines = [(lineno, raw, "".join(raw.split()))
             for lineno, raw in enumerate(text.splitlines(), start=1)
             if raw.strip()]
    header: tuple[int, int] | None = None
    parts = lines[0][1].split() if lines else []
    if len(parts) == 2 and all(p.isdigit() for p in parts) and (
            not set(lines[0][2]) <= {"0", "1"} or len(lines) == 1
            or len(lines[0][2]) != len(lines[1][2])):
        header = (int(parts[0]), int(parts[1]))
        del lines[0]
    for lineno, raw, row in lines:
        if not set(row) <= {"0", "1"}:
            raise GeneratorFileError(
                f"line {lineno}: expected a 0/1 row, got {raw!r}")
    if not lines:
        raise GeneratorFileError("no generator rows found")
    widths = {len(row) for _, _, row in lines}
    if len(widths) != 1:
        raise GeneratorFileError(f"rows have unequal lengths {sorted(widths)}")
    n = widths.pop()
    for what, size in (("length", n), ("row count", len(lines))):
        if size > LENGTH_CAP:
            raise EnumerationCapError(
                f"{what} {size} exceeds the enumeration cap {LENGTH_CAP}")
    if header is not None and header[0] != n:
        raise GeneratorFileError(f"header length {header[0]} != row length {n}")
    code = BinaryCode([int(row[::-1], 2) for _, _, row in lines], n)
    if header is not None and header[1] != code.k:
        raise GeneratorFileError(
            f"header dimension {header[1]} != row-space rank {code.k}")
    return code


def format_generator_file(code: BinaryCode) -> str:
    rows = (format(r, f"0{code.n}b")[::-1] for r in code.rows)
    return "\n".join([f"{code.n} {code.k}", *rows]) + "\n"

"""Binary linear code engine.

Generator rows are stored as Python ints (bit i = coordinate i, zero
based internally; support sets at the API boundary are 1-based).  Codes
are canonicalized to reduced row echelon form so equal codes compare
equal.  Exhaustive weight enumeration packs rows into numpy uint64 words
and walks all 2^k codewords by a vectorized meet-in-the-middle XOR, which
keeps a 2^23-codeword distribution under a second.

Includes the bundled length-46 circulant code (identity block next to a
23 x 23 circulant) and the table of ten recorded even-weight vectors
whose neighbor construction yields singly even self-dual [46,23,8] codes
with minimal shadow, together with their enumerator parameters beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exact import VerificationFailure
from .gleason import FamilyParams
from .solver import FAMILY_CASES, FamilyCase, minimal_shadow_r, solve

ENUMERATION_CAP = 28


class EnumerationCapError(ValueError):
    """Raised when an exhaustive enumeration would exceed the dimension cap."""


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

    __slots__ = ("n", "rows", "pivots", "_dist", "_shadow")

    def __init__(self, rows: Iterable[int], n: int):
        if n <= 0:
            raise ValueError(f"code length must be positive, got {n}")
        rows = list(rows)
        if any(r < 0 or r >> n for r in rows):
            raise ValueError("generator row exceeds code length")
        self.rows, self.pivots = _rref(rows, n)
        self.n = n
        self._dist: list[int] | None = None
        self._shadow: "ShadowPartition | None" = None

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[int]]) -> "BinaryCode":
        if not vectors:
            raise ValueError("need at least one generator row")
        n = len(vectors[0])
        if any(len(v) != n for v in vectors):
            raise ValueError("generator rows have unequal lengths")
        rows = []
        for v in vectors:
            if any(bit not in (0, 1) for bit in v):
                raise ValueError("generator entries must be 0 or 1")
            rows.append(sum(bit << i for i, bit in enumerate(v)))
        return cls(rows, n)

    @property
    def k(self) -> int:
        return len(self.rows)

    def row_vectors(self) -> list[list[int]]:
        return [[(r >> i) & 1 for i in range(self.n)] for r in self.rows]

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
    """All XOR combinations of the given packed rows, shape (2^k, words)."""
    acc = np.zeros((1, packed.shape[1]), dtype=np.uint64)
    for row in packed:
        acc = np.concatenate([acc, acc ^ row])
    return acc


def weight_distribution(code: BinaryCode, offset: int = 0,
                        cap: int = ENUMERATION_CAP) -> list[int]:
    """Exact weight counts of the coset offset + C over all 2^k codewords."""
    if code.k > cap:
        raise EnumerationCapError(
            f"dimension {code.k} exceeds the enumeration cap {cap}")
    ka = code.k // 2
    a = _combos(_pack(code.rows[:ka], code.n)) ^ _pack([offset], code.n)[0]
    b = _combos(_pack(code.rows[ka:], code.n))
    counts = np.zeros(code.n + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, b.shape[0]))
    for s in range(0, a.shape[0], chunk):
        block = a[s:s + chunk, None, :] ^ b[None, :, :]
        w = np.bitwise_count(block).sum(axis=2, dtype=np.int64)
        counts += np.bincount(w.ravel(), minlength=code.n + 1)
    return [int(x) for x in counts]


def code_weight_distribution(code: BinaryCode) -> list[int]:
    if code._dist is None:
        code._dist = weight_distribution(code)
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
    of C0 outside C, so its distribution comes from one coset enumeration.
    Such a t is read off the RREF: the sum of the pivot unit vectors of
    the rows g_i with wt(g_i)/2 odd meets each g_i in wt(g_i)/2 (mod 2)
    positions, so t is orthogonal to C0 but not to C = C^perp.
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
    weights = weight_distribution(code, offset=t)
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
    b_i = #shadow vectors of weight 4i + r."""
    fam = FamilyParams.from_length(code.n)
    dist = code_weight_distribution(code)
    if any(dist[w] for w in range(1, code.n + 1, 2)):
        raise ValueError("code has odd-weight words; not self-orthogonal")
    a = [dist[2 * i] for i in range(fam.half + 1)]
    sh = shadow(code).shadow_weights
    for w, cnt in enumerate(sh):
        if cnt and (w - fam.r) % 4:
            raise ValueError(f"shadow weight {w} incompatible with r={fam.r}")
    b = [sh[4 * i + fam.r] for i in range(fam.b_count)]
    return a, b


def extract_beta(code: BinaryCode, case: FamilyCase) -> int:
    """The unique integer beta matching the code's exact weight data
    against the one-parameter family enumerator; every code and shadow
    coefficient is verified at that beta."""
    base = 8 * case.l + 2 * case.r
    if (code.n - base) % 24:
        raise ValueError(f"length {code.n} is not in family {case.tag}")
    m = (code.n - base) // 24
    enum = solve(case, m)
    a_obs, b_obs = enumerator_vectors(code)
    beta = None
    for form, obs in zip(list(enum.a) + list(enum.b), a_obs + b_obs):
        q = form.terms.get("beta", Fraction(0))
        if q:
            beta = Fraction(obs - form.constant, 1) / q
            break
    if beta is None or beta.denominator != 1:
        raise BetaMismatchError(f"no integer beta fits (got {beta})")
    beta = int(beta)
    for side, forms, obs_vec in (("a", enum.a, a_obs), ("b", enum.b, b_obs)):
        for i, (form, obs) in enumerate(zip(forms, obs_vec)):
            want = form.substitute({"beta": beta}).as_fraction()
            if want != obs:
                w = 2 * i if side == "a" else 4 * i + enum.fam.r
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
    minimal shadow carrying the recorded beta."""
    base = reference_code_46()
    if not (is_self_dual(base) and parity_class(base) == "singly even"
            and min_weight(base) == 8):
        raise VerificationFailure("bundled length-46 code failed validation")
    case = FAMILY_CASES["24m+22"]
    out = []
    for idx, (supp, beta_expect) in enumerate(NEIGHBOR_TABLE, start=1):
        nb = neighbor(base, supp)
        sh = shadow(nb)
        beta = extract_beta(nb, case)
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
    otherwise it is just another row.
    """
    stripped = [(lineno, raw, "".join(raw.split()))
                for lineno, raw in enumerate(text.splitlines(), start=1)
                if raw.strip()]
    rows: list[list[int]] = []
    header: tuple[int, int] | None = None
    for pos, (lineno, raw, compact) in enumerate(stripped):
        parts = raw.split()
        if pos == 0 and len(parts) == 2 and all(p.isdigit() for p in parts):
            looks_binary = set(compact) <= {"0", "1"}
            next_width = len(stripped[1][2]) if len(stripped) > 1 else None
            if not looks_binary or len(compact) != next_width:
                header = (int(parts[0]), int(parts[1]))
                continue
        if set(compact) <= {"0", "1"}:
            rows.append([int(ch) for ch in compact])
            continue
        raise GeneratorFileError(f"line {lineno}: expected a 0/1 row, got {raw!r}")
    if not rows:
        raise GeneratorFileError("no generator rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise GeneratorFileError(f"rows have unequal lengths {sorted(widths)}")
    code = BinaryCode.from_vectors(rows)
    if header is not None:
        n, k = header
        if n != code.n:
            raise GeneratorFileError(f"header length {n} != row length {code.n}")
        if k != code.k:
            raise GeneratorFileError(
                f"header dimension {k} != row-space rank {code.k}")
    return code


def format_generator_file(code: BinaryCode, header: bool = True) -> str:
    lines = []
    if header:
        lines.append(f"{code.n} {code.k}")
    for row in code.row_vectors():
        lines.append("".join(str(b) for b in row))
    return "\n".join(lines) + "\n"

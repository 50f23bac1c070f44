"""Truncated formal power series over Z/mZ.

A series is a dense vector of canonical residues c[0..T] together with its
ring and an optional support list (the sorted nonzero exponents), recorded
whenever the density drops to 1/8 or below.  The sparse support drives
subquadratic convolution and inversion: the generating series used here
(theta series, Euler products) have O(sqrt(T)) nonzero terms, so division
by them costs O(T^1.5) instead of O(T^2).

Values are immutable after construction and safe to share across threads.
Reading a coefficient past the truncation is an error, never a zero.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

# Support list is kept only when nonzero density is at or below this.
SPARSE_DENSITY = 0.125

# Hard ceiling for truncations produced by exponent dilation.
TRUNC_CAP = 1 << 27

# Block size below which the linear-recurrence solver runs scalar code.
_SOLVE_BASE = 192

_MAGIC = b"QSER"
_FORMAT_VERSION = 1
# Magic, version byte, u64 modulus, u64 truncation.
_HEADER_SIZE = 21


class ResidueRing:
    """The coefficient ring Z/mZ for a fixed modulus m (prime or prime power)."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        modulus = int(modulus)
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if modulus >= 1 << 31:
            raise ValueError(f"modulus must fit a 32-bit word, got {modulus}")
        self.modulus = modulus

    def reduce(self, values) -> np.ndarray:
        return np.asarray(values, dtype=np.int64) % self.modulus

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a mod m; ValueError if a is not a unit."""
        a = int(a) % self.modulus
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise ValueError(f"{a} is not a unit mod {self.modulus}") from None

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("ResidueRing", self.modulus))

    def __repr__(self):
        return f"ResidueRing({self.modulus})"


class TruncSeries:
    """A power series known exactly through q^trunc, coefficients in [0, m)."""

    __slots__ = ("ring", "trunc", "coeffs", "support")

    def __init__(self, ring: ResidueRing, coeffs, trunc: int | None = None):
        arr = ring.reduce(coeffs)
        if arr.ndim != 1:
            raise ValueError("coefficient data must be one-dimensional")
        if trunc is None:
            trunc = len(arr) - 1
        trunc = int(trunc)
        if trunc < 0:
            raise ValueError("truncation must be >= 0")
        if len(arr) > trunc + 1:
            raise ValueError(f"{len(arr)} coefficients exceed truncation {trunc}")
        if len(arr) < trunc + 1:
            arr = np.concatenate([arr, np.zeros(trunc + 1 - len(arr), np.int64)])
        arr.setflags(write=False)
        self.ring = ring
        self.trunc = trunc
        self.coeffs = arr
        nz = np.flatnonzero(arr)
        if len(nz) <= (trunc + 1) * SPARSE_DENSITY:
            nz.setflags(write=False)
            self.support = nz
        else:
            self.support = None

    def coefficient_at(self, n: int) -> int:
        """Coefficient of q^n.  Indices beyond the truncation are an error."""
        n = int(n)
        if n < 0 or n > self.trunc:
            raise IndexError(f"coefficient {n} is beyond truncation {self.trunc}")
        return int(self.coeffs[n])

    __getitem__ = coefficient_at

    def is_zero(self) -> bool:
        return self.support is not None and len(self.support) == 0

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.ring == other.ring and self.trunc == other.trunc
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((self.ring, self.trunc, self.coeffs.tobytes()))

    def __repr__(self):
        nnz = len(self.support) if self.support is not None else int(np.count_nonzero(self.coeffs))
        return f"TruncSeries(mod {self.ring.modulus}, trunc {self.trunc}, {nnz} nonzero)"


def zero_series(ring: ResidueRing, trunc: int) -> TruncSeries:
    return TruncSeries(ring, np.zeros(trunc + 1, np.int64), trunc)


def one_series(ring: ResidueRing, trunc: int) -> TruncSeries:
    c = np.zeros(trunc + 1, np.int64)
    c[0] = 1 % ring.modulus
    return TruncSeries(ring, c, trunc)


def coefficient_at(f: TruncSeries, n: int) -> int:
    return f.coefficient_at(n)


def _check_rings(f: TruncSeries, g: TruncSeries):
    if f.ring != g.ring:
        raise ValueError(f"mismatched rings: mod {f.ring.modulus} vs mod {g.ring.modulus}")


def ring_add(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    _check_rings(f, g)
    t = min(f.trunc, g.trunc)
    return TruncSeries(f.ring, (f.coeffs[:t + 1] + g.coeffs[:t + 1]) % f.ring.modulus, t)


def ring_sub(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    _check_rings(f, g)
    t = min(f.trunc, g.trunc)
    return TruncSeries(f.ring, (f.coeffs[:t + 1] - g.coeffs[:t + 1]) % f.ring.modulus, t)


def scalar_mul(c: int, f: TruncSeries) -> TruncSeries:
    c = int(c) % f.ring.modulus
    return TruncSeries(f.ring, (c * f.coeffs) % f.ring.modulus, f.trunc)


def _sparse_side_mul(dense: np.ndarray, sup: np.ndarray, vals: np.ndarray,
                     t: int, m: int) -> np.ndarray:
    """Sum of vals[i] * q^sup[i] * dense, truncated at t, reduced mod m."""
    out = np.zeros(t + 1, np.int64)
    # Products stay below m^2 < 2^62; reduce before the running sum can overflow.
    chunk = max(1, (1 << 62) // (m * m))
    pending = 0
    for j, v in zip(sup.tolist(), vals.tolist()):
        if j > t:
            break
        out[j:] += v * dense[:t + 1 - j]
        pending += 1
        if pending >= chunk:
            out %= m
            pending = 0
    return out % m


def ring_mul(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Product through min(f.trunc, g.trunc); iterates the sparser side when
    a support list is available, otherwise falls back to dense convolution."""
    _check_rings(f, g)
    ring = f.ring
    m = ring.modulus
    t = min(f.trunc, g.trunc)
    if f.is_zero() or g.is_zero():
        return zero_series(ring, t)
    sparse = None
    if f.support is not None:
        sparse = (f, g)
    if g.support is not None and (sparse is None or len(g.support) < len(f.support)):
        sparse = (g, f)
    if sparse is not None:
        s, d = sparse
        out = _sparse_side_mul(d.coeffs, s.support, s.coeffs[s.support], t, m)
        return TruncSeries(ring, out, t)
    if (t + 1) * (m - 1) * (m - 1) < 1 << 62:
        out = np.convolve(f.coeffs[:t + 1], g.coeffs[:t + 1])[:t + 1] % m
    else:
        # Exact big-integer convolution; only reachable for very large moduli.
        out = np.convolve(f.coeffs[:t + 1].astype(object),
                          g.coeffs[:t + 1].astype(object))[:t + 1] % m
        out = out.astype(np.int64)
    return TruncSeries(ring, out, t)


def ring_pow(f: TruncSeries, e: int) -> TruncSeries:
    """f^e by binary exponentiation; f^0 is the constant series 1."""
    e = int(e)
    if e < 0:
        raise ValueError("exponent must be >= 0")
    result = one_series(f.ring, f.trunc)
    base = f
    while e:
        if e & 1:
            result = ring_mul(result, base)
        e >>= 1
        if e:
            base = ring_mul(base, base)
    return result


def _solve_linear_core(taps_exp: np.ndarray, taps_val: np.ndarray, f0inv: int,
                       rhs: np.ndarray, t: int, m: int,
                       known: np.ndarray | None = None) -> np.ndarray:
    """Solve den*c = rhs through q^t where den has unit constant term f0 and
    nonzero higher coefficients taps_val at exponents taps_exp (sorted, >= 1):

        c[n] = f0inv * (rhs[n] - sum_j taps_val[j] * c[n - taps_exp[j]])

    Divide-and-conquer online convolution: contributions of a solved half are
    pushed into the accumulator with one vectorised update per tap, and only
    taps below the base block size run in scalar code.  A known prefix
    c[0..s) is taken as solved: its contributions to [s, t] are pushed in
    one update per tap, and only [s, t] is recursed on.
    """
    c = np.zeros(t + 1, np.int64)
    acc = rhs[:t + 1].astype(np.int64) % m
    if len(acc) < t + 1:
        acc = np.concatenate([acc, np.zeros(t + 1 - len(acc), np.int64)])
    start = 0
    if known is not None:
        start = min(len(known), t + 1)
        c[:start] = known[:start]
        for j, v in zip(taps_exp.tolist(), taps_val.tolist()):
            t0 = max(start, j)
            t1 = min(t + 1, start + j)
            if t0 < t1:
                acc[t0:t1] -= v * c[t0 - j:t1 - j]
    small_taps = [(int(j), int(v)) for j, v in zip(taps_exp, taps_val) if j < _SOLVE_BASE]

    def rec(lo: int, hi: int):
        n = hi - lo
        if n <= _SOLVE_BASE:
            ablk = acc[lo:hi].tolist()
            cblk = [0] * n
            for i in range(n):
                s = ablk[i]
                for j, v in small_taps:
                    if j > i:
                        break
                    s -= v * cblk[i - j]
                cblk[i] = (f0inv * s) % m
            c[lo:hi] = cblk
            return
        mid = (lo + hi) // 2
        rec(lo, mid)
        k = int(np.searchsorted(taps_exp, hi - lo, side="left"))
        for idx in range(k):
            j = int(taps_exp[idx])
            v = int(taps_val[idx])
            t0 = max(mid, lo + j)
            t1 = min(hi, mid + j)
            if t0 < t1:
                acc[t0:t1] -= v * c[t0 - j:t1 - j]
        rec(mid, hi)

    rec(start, t + 1)
    return c


def _solve_linear_py(taps: list[tuple[int, int]], f0inv: int,
                     rhs: np.ndarray, t: int, m: int,
                     known: np.ndarray | None = None) -> np.ndarray:
    # Exact fallback for moduli too large for int64 accumulation.
    c = [0] * (t + 1)
    start = 0
    if known is not None:
        start = min(len(known), t + 1)
        c[:start] = [int(x) for x in known[:start]]
    for n in range(start, t + 1):
        s = int(rhs[n]) if n < len(rhs) else 0
        for j, v in taps:
            if j > n:
                break
            s -= v * c[n - j]
        c[n] = (f0inv * s) % m
    return np.array(c, np.int64)


def _solve_linear(den: TruncSeries, rhs: np.ndarray, t: int,
                  known: np.ndarray | None = None) -> TruncSeries:
    ring = den.ring
    m = ring.modulus
    f0inv = ring.inverse(den.coeffs[0])
    taps_exp = np.flatnonzero(den.coeffs[:t + 1])
    taps_exp = taps_exp[taps_exp >= 1]
    taps_val = den.coeffs[taps_exp]
    # Accumulator entries are bounded by (#taps) * (m-1)^2.
    if (len(taps_exp) + 1) * (m - 1) * (m - 1) >= 1 << 62:
        out = _solve_linear_py(list(zip(taps_exp.tolist(), taps_val.tolist())),
                               f0inv, rhs, t, m, known)
    else:
        out = _solve_linear_core(taps_exp, taps_val, f0inv, rhs, t, m, known)
    return TruncSeries(ring, out, t)


def ring_invert(f: TruncSeries, known: np.ndarray | None = None) -> TruncSeries:
    """Multiplicative inverse through the truncation.

    Requires a unit constant term.  The recurrence iterates only over the
    nonzero support of f, so inverting a series with O(sqrt(T)) support
    costs O(T^1.5).  `known`, if given, must be the first coefficients of
    the inverse (for instance a shorter inversion of the same f); only the
    coefficients past it are computed.
    """
    rhs = np.zeros(f.trunc + 1, np.int64)
    rhs[0] = 1
    return _solve_linear(f, rhs, f.trunc, known)


def ring_div(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Quotient f/g through min(f.trunc, g.trunc); g needs a unit constant.

    Same recurrence as ring_invert with f as the right-hand side, so dividing
    by a sparse series never materialises the dense inverse.
    """
    _check_rings(f, g)
    t = min(f.trunc, g.trunc)
    return _solve_linear(g, f.coeffs, t)


def transform(f: TruncSeries, d: int, sign: int) -> TruncSeries:
    """Substitute q -> sign*q^d; coefficient n lands at d*n with sign^n."""
    d = int(d)
    if d < 1:
        raise ValueError("dilation factor must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    new_trunc = f.trunc * d
    if new_trunc > TRUNC_CAP:
        raise ValueError(f"truncation cap exceeded: {new_trunc} > {TRUNC_CAP}")
    m = f.ring.modulus
    vals = f.coeffs.copy()
    if sign == -1:
        odd = np.arange(f.trunc + 1) % 2 == 1
        vals[odd] = (-vals[odd]) % m
    out = np.zeros(new_trunc + 1, np.int64)
    out[np.arange(f.trunc + 1) * d] = vals
    return TruncSeries(f.ring, out, new_trunc)


def extract_progression(f: TruncSeries, a: int, b: int, compact: bool = False) -> TruncSeries:
    """Keep only exponents congruent to b mod a.

    With compact=True returns g with g[n] = f[a*n + b]; otherwise the
    extracted coefficients stay at their original exponents.
    """
    a = int(a)
    b = int(b)
    if a < 1:
        raise ValueError("progression step must be >= 1")
    if not 0 <= b < a:
        raise ValueError(f"progression offset must satisfy 0 <= b < a, got {b}, {a}")
    if compact:
        new_trunc = (f.trunc - b) // a
        if new_trunc < 0:
            raise ValueError(f"truncation {f.trunc} has no exponent >= {b}")
        return TruncSeries(f.ring, f.coeffs[b::a][:new_trunc + 1], new_trunc)
    out = np.zeros(f.trunc + 1, np.int64)
    out[b::a] = f.coeffs[b::a]
    return TruncSeries(f.ring, out, f.trunc)


def cache_filename(generator: str, modulus: int) -> str:
    """Cache files are keyed by a hash of (generator, modulus); one file
    holds the longest expansion computed so far."""
    import hashlib
    key = hashlib.sha256(f"{generator}:{modulus}".encode()).hexdigest()[:24]
    return f"{key}.qser"


def save_series(f: TruncSeries, path) -> None:
    """Write the cache format: magic, version byte, modulus and truncation as
    little-endian u64, then trunc+1 little-endian u32 residues.

    The bytes go to a temporary file in the same directory, which then
    replaces `path`, so a reader never sees a partly written file."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<B", _FORMAT_VERSION))
            fh.write(struct.pack("<Q", f.ring.modulus))
            fh.write(struct.pack("<Q", f.trunc))
            fh.write(f.coeffs.astype("<u4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_series(path, modulus: int | None = None,
                trunc: int | None = None) -> TruncSeries:
    """Read a cache file, checking it before any residue is read: magic,
    version, the modulus (against `modulus` when given), a truncation within
    TRUNC_CAP and a file size that matches it.  With `trunc`, only the
    residues through q^min(trunc, stored truncation) are read.  Every
    residue read must lie in [0, modulus).  Any mismatch is a ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad cache magic {magic!r}")
        header = fh.read(_HEADER_SIZE - 4)
        if len(header) != _HEADER_SIZE - 4:
            raise ValueError("cache file truncated in its header")
        version, stored_modulus, stored_trunc = struct.unpack("<BQQ", header)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported cache format version {version}")
        if modulus is not None and stored_modulus != modulus:
            raise ValueError(f"cache file holds modulus {stored_modulus}, not {modulus}")
        if stored_trunc > TRUNC_CAP:
            raise ValueError(f"cache truncation {stored_trunc} exceeds {TRUNC_CAP}")
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER_SIZE + 4 * (stored_trunc + 1)
        if size < expected:
            raise ValueError(f"cache file truncated: {size} bytes, expected {expected}")
        if size > expected:
            raise ValueError(f"cache file has {size - expected} trailing bytes")
        ring = ResidueRing(stored_modulus)
        keep = stored_trunc if trunc is None else min(int(trunc), stored_trunc)
        coeffs = np.frombuffer(fh.read(4 * (keep + 1)), dtype="<u4").astype(np.int64)
    if len(coeffs) != keep + 1:
        raise ValueError("cache file truncated")
    if coeffs.max() >= stored_modulus:
        raise ValueError(f"cache file holds a residue >= {stored_modulus}")
    return TruncSeries(ring, coeffs, keep)

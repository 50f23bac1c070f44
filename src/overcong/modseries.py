"""Truncated formal power series over Z/mZ.

A series is a dense vector of canonical residues c[0..T] together with its
ring and an optional support list (the sorted nonzero exponents), recorded
whenever the density drops to 1/8 or below; no arithmetic reads it.  A
product has two outcomes: when one operand is a constant through the
truncation (the zero series included), the other is scaled by it; every
other product is one exact float FFT product in O(T log T), sparse or
dense, checked for rounding error.  The generating series used here
(theta series, Euler products) have O(sqrt(T)) nonzero terms, so inverting
them costs O(T^1.5) instead of O(T^2).  Inversion is a divide-and-conquer
solver that pushes the divisor's nonzero terms (its taps) into an
accumulator with one vectorised update each, down to leaves of at most
_SOLVE_BLOCK coefficients; each leaf is one product with the divisor's
truncated inverse, the head.  _solve_linear_core is the one entry: it
takes a divisor as its taps (integers at their exponents), its constant
term and its ring, and normalises them once per solve.  ring_invert and
ring_div hand it a dense divisor's nonzero terms, and ring_div multiplies
by the inverse; overpartition_series hands it phi(-q)'s taps, so that
divisor is never built as a dense series.  A solve writes its output as
int32 residues into an array its caller provides (for the stream, the
coefficient store's own buffer), past a known prefix it never copies or
writes, and walks the range in segments of max(2 * _PUSH_CHUNK,
_SOLVE_BLOCK) coefficients, so its one int64 accumulator spans a segment
however long the solve.  It holds no reference cycle: its arrays are
freed as soon as it returns or raises.
A push adds every tap into an int32 run, a scratch array over the push
chunk: -c for the unit -1, +c for +1, and u*c mod m for any other unit u.
A run holds at most cap = (2^31 - 1) // (m - 1) taps of each kind, so no
sum can overflow, and is added into the accumulator once.  So every
update of the accumulator is below 2^31 in magnitude, and a position
takes at most one update per tap in a segment: through q^T the
accumulator stays below T * 2^31 < 2^63 for any T < 2^32, and a leaf
reduces it once, when it reads it.
Residues are int32 (m < 2^31), in a solve and in a TruncSeries; sums and
products of them are taken in int64 and handed to the TruncSeries
constructor, whose one reduction writes the int32 residues.

Every FFT product follows one plan, chosen once per modulus and length:
CRT groups when every group fits one product, limbs otherwise.  m is
split into the fewest coprime groups of its prime powers that each fit
one exact float product, and the products mod each group are joined by
the Chinese remainder theorem; m itself is the one group when it fits.
When some prime power fits no product, or the split needs more groups
than limbs, both sides are cut into signed limbs mod m.  One kernel
makes every product, one float product per group or limb pair: a ring_mul
product keeps one group's or one limb pair's spectra alive at a time, and
a solve transforms and reduces its head once per group (or limb) and
leaf length, so each leaf transforms only its right-hand side.

A solve spreads the independent work inside each step over its own thread
and, when the process may run on two or more CPUs and its thread limit
allows a second thread, one pool thread (only two cores could be measured);
with one CPU, or a limit of one thread, it shares nothing.  One flag,
_SHARE, holds that choice, and _limit_threads is its one writer.  The
pool thread is made once, by the first step that shares work, and never
shut down or replaced; a process that never gets that far never imports
concurrent.futures.  Only a solve over a segment or more shares work, so
a process whose solves are all shorter (prove, and verify-identity at its
default truncation) never makes the pool; _solve_linear_core states the
rule.  A push over at least 2 * _PUSH_CHUNK positions is cut into chunks
that each loop over only the taps reaching them and write only their own
slice, and a leaf runs its group products as such tasks.
numpy releases the interpreter lock for long arrays.  Pool tasks never
submit to the pool: a group product that fails its check is redone in
narrower limbs within its own task.  ring_mul stays on the calling thread.

Values are immutable after construction and safe to share across threads.
A series' coeffs holds exactly trunc + 1 entries, so reading a coefficient
past the truncation is an IndexError, never a zero.

save_series and load_series write and read the cache file from and into
a series' own int32 array, with no second copy of the residues;
read_header is the one parser of its header.
"""

from __future__ import annotations

import bisect
import functools
import os
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .chars import factorize

# Support list is kept only when nonzero density is at or below this.  No
# product or solve reads it; it serves code that reports on an operand.
SPARSE_DENSITY = 0.125

# Hard ceiling for truncations produced by exponent dilation.
TRUNC_CAP = 1 << 27

# Longest leaf of the linear-recurrence solver; each leaf is one exact FFT
# product with the head's cached spectra, one per CRT group when every
# group fits one float product (mod 23#: two groups), in limbs otherwise.
# Of 4096-32768, 16384 and 32768 inverted phi(-q) fastest on the
# rediscover scans; 16384 keeps the leaf spectra at 256 KB each.
_SOLVE_BLOCK = 16384

# A solver push over at least two chunks of this many positions is cut into
# chunks shared with the pool thread.  Each tap's int32 add over a chunk
# releases the GIL once, so a shorter chunk hands the GIL over more often
# for the same work.  With an int64 output, inverting phi(-q) mod 23# to
# 1.8e6 on two cores took 1.76 s at 2^14, 1.18 s at 2^15, 1.05 s at 2^16
# and 1.17 s at 2^17.  With the int32 output and runs, a chunk of 2^17
# positions holds the bytes 2^16 did in int64.  The rediscover scans (the
# stream grown to 3e5, then to 1.5e6, two cores; medians of 8 interleaved
# runs) took 0.68 s at 2^17 against 0.82 s at 2^18, and in another set
# 0.77 s at 2^17 against 0.86 s at 2^16 (int64 output: 0.84 and 0.97 s).
# A solve walks its range in segments of two chunks (of one leaf when
# that is longer), so each segment's push of the solved prefix is shared
# with the pool.
_PUSH_CHUNK = 1 << 17

# Every exact output of one float product is planned to stay below this in
# magnitude, so float64 FFT error stays well under 0.25.
_FFT_BOUND = 1 << 50
# Below 2^50 a float64 resolves eighths, so an error of 0.25 or more shows
# as a fractional part; from 2^52 on every float is an integer and the
# rounding check could see nothing.
_FRACTION_VISIBLE = float(1 << 50)

_MAGIC = b"QSER"
_FORMAT_VERSION = 2
# Magic, version byte, u64 modulus, u64 truncation.
_HEADER_SIZE = 21
# Residues per checksummed block of a cache file.
_CRC_BLOCK = 1 << 16


# Whether a solve may share its steps with the pool thread; each solve
# reads it once (see _solve_linear_core).  _limit_threads is its one
# writer: at import, and for each command's --threads.
_SHARE = False
# The one pool thread beside the caller, shared by every solve in the
# process.  Pool tasks never submit to the pool, so no worker waits on
# another.  None until the first step that shares work makes it, so a
# process that shares none never imports concurrent.futures; never shut
# down or replaced after that.
_POOL = None
_POOL_LOCK = threading.Lock()


def _limit_threads(limit: int | None) -> None:
    """Let a solve share its steps with the pool thread when this process
    may run on two or more CPUs and `limit`, the most threads a solve may
    use, the caller's included, is 2 or more (None: no limit).  Only two
    cores could be measured, so there is one pool thread whatever the
    limit."""
    global _SHARE
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    _SHARE = min(cpus, limit or cpus) > 1


_limit_threads(None)


def _pool_map(fn, items) -> list:
    """[fn(x) for x in items], shared with the pool thread; a solve calls
    it only for the steps it shares (see _solve_linear_core).  The pool
    takes items from the front while the caller takes them from the back,
    so the caller waits only for items already running, never for a
    worker that has yet to wake."""
    global _POOL
    if len(items) < 2:
        return [fn(x) for x in items]
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                from concurrent.futures import ThreadPoolExecutor
                _POOL = ThreadPoolExecutor(1, thread_name_prefix="modseries")
    futures = [_POOL.submit(fn, x) for x in items]
    out = [None] * len(items)
    for i in reversed(range(len(items))):
        out[i] = fn(items[i]) if futures[i].cancel() else futures[i].result()
    return out


@dataclass(frozen=True)
class ResidueRing:
    """The coefficient ring Z/mZ for a fixed modulus 2 <= m < 2^31."""

    modulus: int

    def __post_init__(self):
        modulus = int(self.modulus)
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if modulus >= 1 << 31:
            raise ValueError(f"modulus must fit a 32-bit word, got {modulus}")
        object.__setattr__(self, "modulus", modulus)

    def reduce(self, values) -> np.ndarray:
        """values mod m as a new int32 array.  An int32 input is reduced in
        int32; anything else is read as int64 and reduced in numpy's
        buffered blocks, so no whole-length int64 temporary is made."""
        values = np.asarray(values)
        if values.dtype != np.int32:
            values = values.astype(np.int64, copy=False)
        out = np.empty(values.shape, np.int32)
        np.remainder(values, self.modulus, out=out, casting="unsafe")
        return out

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a mod m; ValueError if a is not a unit."""
        a = int(a) % self.modulus
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise ValueError(f"{a} is not a unit mod {self.modulus}") from None


class TruncSeries:
    """A power series known exactly through q^trunc: int32 coefficients in [0, m)."""

    __slots__ = ("ring", "trunc", "coeffs", "support")

    def __init__(self, ring: ResidueRing, coeffs, trunc: int | None = None):
        self._adopt(ring, ring.reduce(coeffs), trunc)

    @classmethod
    def _canonical(cls, ring: ResidueRing, arr: np.ndarray, trunc: int) -> TruncSeries:
        """A series over `arr`, an int32 array of trunc + 1 entries that
        already lie in [0, m): it is taken over (made read-only), not
        reduced or copied."""
        self = cls.__new__(cls)
        self._adopt(ring, arr, trunc)
        return self

    def _adopt(self, ring: ResidueRing, arr: np.ndarray, trunc: int | None):
        if arr.ndim != 1:
            raise ValueError("coefficient data must be one-dimensional")
        if trunc is None:
            trunc = len(arr) - 1
        trunc = int(trunc)
        if trunc < 0:
            raise ValueError("truncation must be >= 0")
        # Never padded: a short array would read as zeros past its end.
        if len(arr) != trunc + 1:
            raise ValueError(f"{len(arr)} coefficients for truncation {trunc}")
        arr.setflags(write=False)
        self.ring = ring
        self.trunc = trunc
        self.coeffs = arr
        # Counting first spares a dense array its index list.
        if np.count_nonzero(arr) <= (trunc + 1) * SPARSE_DENSITY:
            nz = np.flatnonzero(arr)
            nz.setflags(write=False)
            self.support = nz
        else:
            self.support = None

    def is_zero(self) -> bool:
        return self.support is not None and len(self.support) == 0

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.ring == other.ring and self.trunc == other.trunc
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __repr__(self):
        nnz = len(self.support) if self.support is not None else int(np.count_nonzero(self.coeffs))
        return f"TruncSeries(mod {self.ring.modulus}, trunc {self.trunc}, {nnz} nonzero)"


def zero_series(ring: ResidueRing, trunc: int) -> TruncSeries:
    return TruncSeries(ring, np.zeros(trunc + 1, np.int32), trunc)


def one_series(ring: ResidueRing, trunc: int) -> TruncSeries:
    c = np.zeros(trunc + 1, np.int32)
    c[0] = 1 % ring.modulus
    return TruncSeries(ring, c, trunc)


def _check_rings(f: TruncSeries, g: TruncSeries):
    if f.ring != g.ring:
        raise ValueError(f"mismatched rings: mod {f.ring.modulus} vs mod {g.ring.modulus}")


def ring_add(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    _check_rings(f, g)
    t = min(f.trunc, g.trunc)
    return TruncSeries(f.ring, np.add(f.coeffs[:t + 1], g.coeffs[:t + 1], dtype=np.int64), t)


def scalar_mul(c: int, f: TruncSeries) -> TruncSeries:
    c = int(c) % f.ring.modulus
    return TruncSeries(f.ring, np.multiply(f.coeffs, c, dtype=np.int64), f.trunc)


def _fft_size(n: int) -> int:
    """Smallest 2^a * 3^b >= n."""
    best = 1 << (n - 1).bit_length()
    p3 = 3
    while p3 < best:
        p = p3
        while p < n:
            p <<= 1
        best = min(best, p)
        p3 *= 3
    return best


def _limb_plan(m: int, w: int) -> tuple[int, int]:
    """(k, offset) for signed w-bit limbs mod m: the k limbs, digits in
    [-2^(w-1), 2^(w-1)), hold every balanced residue, and offset puts
    2^(w-1) in every digit, so each limb is built on its own."""
    half = 1 << (w - 1)
    k, rep = 1, 1
    while (half - 1) * rep < m // 2:
        k, rep = k + 1, (rep << w) | 1
    return k, half * rep


def _limb_spectrum(x: np.ndarray, i: int, m: int, w: int, offset: int,
                   size: int) -> np.ndarray:
    """rfft, zero-padded to `size`, of limb i of the balanced residues of x:
    bits [w*i, w*(i+1)) of x + offset, less 2^(w-1)."""
    if offset == 1 << (w - 1):
        # One limb: the balanced residues themselves.
        y = np.empty(len(x))
        np.subtract(x, (x > m // 2) * m, out=y)
        return np.fft.rfft(y, size)
    y = x + np.int64(offset)  # in int64: x + offset passes 2^31
    y -= (x > m // 2) * m
    y >>= w * i
    y &= (1 << w) - 1
    y -= 1 << (w - 1)
    y = y.astype(np.float64)
    return np.fft.rfft(y, size)


def _exact_residues(r: np.ndarray, m: int) -> np.ndarray | None:
    """The irfft output r of a float product, mod m as int64, or None if it
    fails its check: every output must lie within 0.25 of an integer, and
    that integer must lie below _FRACTION_VISIBLE."""
    q = np.rint(r)
    r -= q
    if max(r.max(), -r.min()) >= 0.25 or np.abs(q).max() >= _FRACTION_VISIBLE:
        return None
    q = q.astype(np.int64)
    q %= m
    return q


def _limb_pass(a: np.ndarray, b: np.ndarray, n: int, m: int, size: int,
               w: int, fa: list[np.ndarray] | None = None) -> np.ndarray | None:
    """(a*b)[:n] mod m for residue vectors a, b, taking their balanced
    residues in k signed w-bit limbs, one float product per limb pair; None
    if any product fails its check.  fa, when given, holds a's k limb
    spectra at this width and size, and a is not read: each of b's limbs
    is then transformed once, so a product takes k rffts and k^2 irffts."""
    k, offset = _limb_plan(m, w)
    # Each buffer is dropped once spent, so at most one spectrum pair (with
    # fa: b's spectrum and one product) and one irfft output are alive.
    out = None
    for j in range(k):
        fb = _limb_spectrum(b, j, m, w, offset, size)
        for i in range(k):
            if fa is None:
                spec = _limb_spectrum(a, i, m, w, offset, size)
                spec *= fb
            else:
                spec = fa[i] * fb
            if k == 1:
                del fb
            r = np.fft.irfft(spec, size)[:n]
            del spec
            part = _exact_residues(r, m)
            del r
            if part is None:
                return None
            if out is None:
                out = part  # i = j = 0: the scale is 1
            else:
                part *= pow(2, w * (i + j), m)
                out += part
                out %= m
    return out


def _limb_width(m: int, terms: int, bound: int) -> int:
    """Widest limb width w for m at which every float product of `terms`
    terms stays below `bound`: one limb, the balanced residues themselves,
    when that fits."""
    h = m // 2
    w = h.bit_length() + 1
    if terms * h * h >= bound:
        while w > 2 and terms << (2 * w - 2) >= bound:
            w -= 1
    return w


def _limb_mul(a: np.ndarray, b: np.ndarray, n: int, m: int, size: int,
              spectra: dict | None, w: int) -> np.ndarray:
    """(a*b)[:n] mod m in signed limbs of width w, redone one bit narrower
    while it fails its check; see _fft_mul."""
    for width in range(w, 1, -1):
        fa = None
        if spectra is not None:
            key = (m, len(a), width, size)
            if key not in spectra:
                k, offset = _limb_plan(m, width)
                spectra[key] = [_limb_spectrum(a, i, m, width, offset, size)
                                for i in range(k)]
            fa = spectra[key]
        out = _limb_pass(a, b, n, m, size, width, fa)
        if out is not None:
            return out
    raise ArithmeticError(f"FFT product mod {m} failed its rounding check at every limb width")


@functools.lru_cache(maxsize=64)
def _prime_powers(m: int) -> tuple[int, ...]:
    """The prime powers exactly dividing m, ascending, by trial division:
    once per modulus, a few milliseconds for 2^31 - 1."""
    return tuple(p ** e for p, e in factorize(m).items())


def _pack(powers: list[int], groups: list[int], fits) -> bool:
    """Multiply each of `powers` into one of `groups` so that every group
    still fits; True, with `groups` filled, if that can be done."""
    if not powers:
        return True
    p = powers[0]
    for i, g in enumerate(groups):
        if fits(g * p):
            groups[i] = g * p
            if _pack(powers[1:], groups, fits):
                return True
            groups[i] = g
        if g == 1:
            break  # the empty groups left are interchangeable
    return False


@functools.lru_cache(maxsize=256)
def _product_plan(m: int, terms: int, bound: int) -> tuple[tuple[int, ...], int]:
    """(groups, w) for a product mod m of `terms` terms: w is the limb
    width _limb_width gives, and groups are the fewest coprime factors of
    m, each a product of whole prime powers of m, for which one float
    product of balanced residues stays below `bound`.  A single group is m
    itself, taken in limbs of width w: m fits one product, a prime power
    of m does not, or the split needs more groups than the k limbs of
    width w."""
    w = _limb_width(m, terms, bound)

    def fits(g):
        return terms * (g // 2) ** 2 < bound

    if not fits(m):
        powers = sorted(_prime_powers(m), reverse=True)
        if fits(powers[0]):
            for count in range(2, _limb_plan(m, w)[0] + 1):
                groups = [1] * count
                if _pack(powers, groups, fits):
                    return tuple(groups), w
    return (m,), w


def _crt_join(parts: list[np.ndarray], groups: tuple[int, ...]) -> np.ndarray:
    """The residues mod prod(groups) with residues parts[i] mod groups[i],
    by Garner's method in int64.  Every part is overwritten: the result is
    accumulated into parts[0], which is returned."""
    x, mod = parts[0], groups[0]
    for r, g in zip(parts[1:], groups[1:]):
        # 0 <= x < mod and 0 <= r < g, both below 2^31, so |r - x| times
        # the inverse (< g) stays below 2^62.
        r -= x
        r *= pow(mod, -1, g)
        r %= g
        r *= mod
        x += r
        mod *= g
    return x


def _fft_mul(a: np.ndarray, b: np.ndarray, n: int, m: int,
             spectra: dict | None = None, share: bool = False) -> np.ndarray:
    """(a*b)[:n] mod m for residue vectors a, b, exactly, by float FFTs.

    Residues are taken in balanced form (-g/2, g/2] for a modulus g.  The
    plan (_product_plan), chosen once per modulus and length, splits m into
    coprime groups, each fitting one float product: min(len a, len b) *
    (g//2)^2 < _FFT_BOUND.  The product is one float product mod each
    group, the groups joined by the Chinese remainder theorem.  When m
    fits whole, that is one product and no join; when some prime power
    of m fits no product, or the split needs more groups than limbs, both
    sides are split into k signed limbs of w bits mod m, w the widest for
    which every float product stays below _FFT_BOUND.  A product that
    fails its rounding check is redone in limbs one bit narrower, mod its
    group; a value that failed the check is never returned.

    Each limb pair, or each group, is one float product (_limb_pass), so
    without `spectra` at most one spectrum pair is alive.  With it, a's
    limb spectra are kept in `spectra` under (group, len(a), w, size), and
    a mod each group under (group, len(a)), so only b is transformed and
    reduced per call.  Every call sharing one `spectra` must pass a prefix
    of the same series as a.  With `share`, the groups are mapped through
    _pool_map, shared with the pool thread; without it they all run on
    the calling thread.  a and b may be int32: only each limb's temporary
    is int64.
    """
    terms = min(len(a), len(b))
    size = _fft_size(len(a) + len(b) - 1)
    groups, w = _product_plan(m, terms, _FFT_BOUND)
    if len(groups) == 1:
        return _limb_mul(a, b, n, m, size, spectra, w)

    def product(g):
        # One float product mod g: one limb of the balanced residues.
        if spectra is None:
            ag = a % g
        elif (g, len(a)) in spectra:
            ag = spectra[g, len(a)]
        else:
            ag = spectra[g, len(a)] = a % g
        return _limb_mul(ag, b % g, n, g, size, spectra, (g // 2).bit_length() + 1)

    parts = _pool_map(product, groups) if share else [product(g) for g in groups]
    return _crt_join(parts, groups)


def ring_mul(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Product through t = min(f.trunc, g.trunc).  An operand whose
    coefficients 1..t are all zero is a constant (zero included), and the
    other operand is scaled by it; any other product is one exact FFT
    product, however few nonzero terms either operand has."""
    _check_rings(f, g)
    ring = f.ring
    m = ring.modulus
    t = min(f.trunc, g.trunc)
    a, b = f.coeffs[:t + 1], g.coeffs[:t + 1]
    for const, other in ((a, b), (b, a)):
        if not const[1:].any():
            # Both factors lie in [0, m), so the product stays below 2^62.
            return TruncSeries(ring, np.multiply(other, const[0], dtype=np.int64), t)
    return TruncSeries._canonical(ring, _fft_mul(a, b, t + 1, m).astype(np.int32), t)


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


def _solve_linear_core(taps_exp, taps_val, f0: int, ring: ResidueRing,
                       c: np.ndarray, start: int = 0) -> np.ndarray:
    """c = 1/den through q^t, t = len(c) - 1, mod m = ring.modulus, where
    den = f0 + sum_j taps_val[j] * q^taps_exp[j]: f0 a unit mod m, and the
    taps integers within int64 at distinct exponents >= 1, sorted
    ascending.  c is the int32 output: its first `start` entries are the
    known prefix, taken as solved and never copied, and c[start:] is
    written with residues in [0, m).  Returns c.

    The one entry into the solver, and the one place its input is
    normalised, once per solve: the taps are reduced mod m, those that
    vanish mod m or lie past q^t are dropped, the rest are taken as their
    balanced residues in (-m/2, m/2], and f0 is inverted mod m (a
    ValueError if it is not a unit).

    Divide-and-conquer online convolution down to leaves of at most
    _SOLVE_BLOCK coefficients.  The taps are g*u_j, where g is the
    magnitude they all share (phi(-q): g = 2, u_j = +-1), or 1 when their
    magnitudes differ.  acc[n] accumulates sum_j u_j * c[n - taps_exp[j]]
    over the solved c: the contributions of a solved half are pushed with
    one vectorised update per tap.  A leaf [mid, hi) of length k is then one
    exact FFT product

        c[mid:hi] = head * (-g*acc[mid:hi] mod m)  mod q^k,

    where head = 1/den mod q^k.  A solve from 0 writes c[0] = 1/f0 and
    starts at 1, and no leaf [mid, hi) is longer than min(_SOLVE_BLOCK,
    mid), so the leaves double in length from c[0] and the head is c[:k]
    itself, already solved.  No entry of c[:start] is ever written.

    [start, t] is solved left to right in segments of
    max(2 * _PUSH_CHUNK, _SOLVE_BLOCK) positions, so a segment never cuts a
    leaf short.  A segment [s0, s1) first takes the contributions of the
    whole solved prefix c[0:s0], in one update per tap, then is halved down
    to leaves; each (position, tap) pair is pushed exactly once.  acc
    covers one segment and is zeroed for the next, so it never holds more
    than one segment's entries, however long the growth.

    A push over two or more _PUSH_CHUNKs of positions runs as chunks.
    Chunks write disjoint slices of acc; the output does not depend on
    how a push is cut.  A solve over a segment or more, [start, t] with
    t + 1 - start >= max(2 * _PUSH_CHUNK, _SOLVE_BLOCK), shares its
    chunked pushes and its leaves' CRT group products with the pool
    thread when _SHARE.  A shorter solve shares nothing and runs every
    step on the calling thread: there, handing its leaves of 1 to
    _SOLVE_BLOCK terms to the pool cost more than it saved.

    Within a chunk, every tap is summed into a run: its slice of c is
    added in int32 into a scratch array over the chunk, as -c for the unit
    -1, +c for +1 and u*c mod m, in [0, m), for any other unit u.  A run
    ends just before its next tap would bring the taps of either kind (-c,
    or nonnegative) past cap = (2^31 - 1) // (m - 1); the scratch is then
    added into the int64 acc over the hull of the run's slices and cleared
    there.

    Exact for every m < 2^31.  c holds residues 0 <= c < m, so each tap
    adds a value in (-m, 0] or in [0, m) at a position.  A run's partial
    sum there lies between -cap*(m-1) and cap*(m-1), so within 2^31 - 1 of
    zero: the int32 scratch never overflows, and every update of acc is
    below 2^31 in magnitude.  An update covers at least one tap, and acc
    starts each segment at 0, so a position takes at most t updates and
    |acc| < t * 2^31 < 2^63 for t < 2^32 (c alone would then take 16 GiB).
    A leaf reduces acc first, so g*(acc mod m) < 2^61.
    """
    m = ring.modulus
    exps = np.asarray(taps_exp, np.int64)
    vals = np.asarray(taps_val, np.int64) % m
    keep = (vals != 0) & (exps < len(c))
    exps, vals = exps[keep].tolist(), vals[keep]
    vals = np.where(vals > m // 2, vals - m, vals).tolist()
    f0inv = ring.inverse(f0)
    mags = set(map(abs, vals))
    g = mags.pop() if len(mags) == 1 else 1
    units = [v // g for v in vals]
    cap = ((1 << 31) - 1) // (m - 1)

    def push_part(src, dst, off, lo, mid, a, b):
        # Contributions of the solved src[lo:mid] to positions [a, b) within
        # [mid, hi), held at dst[pos - off].  Only taps a - mid < j < b - lo
        # reach them, and each reaches a nonempty [t0, t1).
        run = np.zeros(b - a, np.int32)
        r0, r1 = b, a  # hull of the run's slices
        minus = plus = 0  # the run's taps of each kind: -c, and [0, m)
        for idx in range(bisect.bisect_right(exps, a - mid), bisect.bisect_left(exps, b - lo)):
            j = exps[idx]
            u = units[idx]
            if (minus if u == -1 else plus) == cap:
                out = dst[r0 - off:r1 - off]
                np.add(out, run[r0 - a:r1 - a], out=out)
                run[r0 - a:r1 - a] = 0
                r0, r1, minus, plus = b, a, 0, 0
            t0 = max(a, lo + j)
            t1 = min(b, mid + j)
            part = src[t0 - j:t1 - j]
            out = run[t0 - a:t1 - a]
            if u == -1:
                np.subtract(out, part, out=out)
                minus += 1
            else:
                if u != 1:
                    part = np.multiply(part, u, dtype=np.int64)
                    part %= m
                np.add(out, part, out=out, casting="unsafe")
                plus += 1
            r0, r1 = min(r0, t0), max(r1, t1)
        if r0 < r1:
            out = dst[r0 - off:r1 - off]
            np.add(out, run[r0 - a:r1 - a], out=out)

    def push(src, dst, off, lo, mid, hi):
        # push_part over [mid, hi).  A range of two or more _PUSH_CHUNKs is
        # cut into chunks, each writing only its slice, shared with the
        # pool when the solve shares.
        cuts = max(1, (hi - mid) // _PUSH_CHUNK)
        bounds = [mid + (hi - mid) * i // cuts for i in range(cuts + 1)]
        chunks = list(zip(bounds, bounds[1:]))
        if share:
            _pool_map(lambda ab: push_part(src, dst, off, lo, mid, *ab), chunks)
        else:
            for a, b in chunks:
                push_part(src, dst, off, lo, mid, a, b)

    t = len(c) - 1
    start = min(start, t + 1)
    segment = max(2 * _PUSH_CHUNK, _SOLVE_BLOCK)
    share = _SHARE and t + 1 - start >= segment
    if start == 0 < len(c):
        c[0] = f0inv
        start = 1
    acc = np.empty(min(segment, t + 1 - start), np.int64)
    # The head's residues mod each group and its limb spectra, built once
    # per (leaf length, width, FFT size) and shared by every leaf.
    spectra = {}

    # Each segment [s0, s1) is solved from a stack of (lo, mid, hi): push
    # the solved c[lo:mid] into [mid, hi), then halve [mid, hi) down to a
    # leaf, stacking each right half behind the push that feeds it.  A
    # loop, not a recursive closure: a closure that calls itself is a
    # reference cycle, and would keep c and acc alive after the solve until
    # the cyclic collector ran.
    for s0 in range(start, t + 1, segment):
        s1 = min(s0 + segment, t + 1)
        acc[:s1 - s0] = 0
        todo = [(0, s0, s1)]
        while todo:
            lo, mid, hi = todo.pop()
            if lo < mid:
                push(c, acc, s0, lo, mid, hi)
            while hi - mid > min(_SOLVE_BLOCK, mid):
                half = (mid + hi) // 2
                todo.append((mid, half, hi))
                hi = half
            blk = acc[mid - s0:hi - s0] % m
            blk *= -g
            blk %= m
            c[mid:hi] = _fft_mul(c[:hi - mid], blk, hi - mid, m, spectra, share)
    return c


def _solve_linear(den: TruncSeries, t: int) -> TruncSeries:
    """den^-1 through q^t from the dense divisor's taps; den needs a unit
    constant term."""
    taps_exp = np.flatnonzero(den.coeffs[1:t + 1]) + 1
    out = _solve_linear_core(taps_exp, den.coeffs[taps_exp], den.coeffs[0], den.ring,
                             np.zeros(t + 1, np.int32))
    return TruncSeries._canonical(den.ring, out, t)


def ring_invert(f: TruncSeries) -> TruncSeries:
    """Multiplicative inverse through the truncation.

    Requires a unit constant term.  The recurrence iterates only over the
    nonzero support of f, so inverting a series with O(sqrt(T)) support
    costs O(T^1.5).
    """
    return _solve_linear(f, f.trunc)


def ring_div(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Quotient f/g through t = min(f.trunc, g.trunc); g needs a unit
    constant.

    f times the inverse of g through t, never past it: one solve and one
    ring_mul.  The inverse is dense, so a long quotient costs what a dense
    product of its length costs in time and memory: mod 23# at T = 1e6,
    about 0.8 s and 156 MB ru_maxrss on a 2-core Xeon.
    """
    _check_rings(f, g)
    return ring_mul(f, _solve_linear(g, min(f.trunc, g.trunc)))


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
    # Strided views, so no index or mask array as long as the series is
    # built.
    out = np.zeros(new_trunc + 1, np.int32)
    out[::d] = f.coeffs
    if sign == -1:
        odd = out[d::2 * d]
        np.subtract(m, odd, out=odd, where=odd != 0)
    return TruncSeries._canonical(f.ring, out, new_trunc)


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
        return TruncSeries._canonical(f.ring, f.coeffs[b::a][:new_trunc + 1].copy(), new_trunc)
    out = np.zeros(f.trunc + 1, np.int32)
    out[b::a] = f.coeffs[b::a]
    return TruncSeries._canonical(f.ring, out, f.trunc)


def _crc_blocks(count: int) -> int:
    """Number of CRC blocks covering `count` residues."""
    return -(-count // _CRC_BLOCK)


def save_series(f: TruncSeries, path) -> None:
    """Write the cache format: magic, version byte, modulus and truncation as
    little-endian u64, then trunc+1 little-endian u32 residues, then one
    little-endian u32 zlib.crc32 per block of _CRC_BLOCK residues (the last
    block may be short).  On a little-endian host the residues are written
    from the series' own int32 buffer, as the coefficient store holds it.

    The bytes go to a temporary file in the same directory, which then
    replaces `path`, so a reader never sees a partly written file."""
    path = os.fspath(path)
    data = memoryview(np.ascontiguousarray(f.coeffs, "<i4")).cast("B")
    step = 4 * _CRC_BLOCK
    crcs = [zlib.crc32(data[i:i + step]) for i in range(0, len(data), step)]
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<BQQ", _FORMAT_VERSION, f.ring.modulus, f.trunc))
            fh.write(data)
            fh.write(struct.pack(f"<{len(crcs)}I", *crcs))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_header(fh, modulus: int | None = None) -> tuple[int, int]:
    """(modulus, truncation) from the header of the cache file open as fh,
    checked as load_series describes; fh is left just past the header."""
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
    count = stored_trunc + 1
    expected = _HEADER_SIZE + 4 * count + 4 * _crc_blocks(count)
    if size < expected:
        raise ValueError(f"cache file truncated: {size} bytes, expected {expected}")
    if size > expected:
        raise ValueError(f"cache file has {size - expected} trailing bytes")
    return stored_modulus, stored_trunc


def load_series(path, modulus: int | None = None,
                trunc: int | None = None) -> TruncSeries:
    """Read a cache file, checking it before any residue is read: magic,
    version, the modulus (against `modulus` when given), a truncation within
    TRUNC_CAP and a file size that matches it.  With `trunc` (>= 0), only
    the residues through q^min(trunc, stored truncation) are kept, and only
    the blocks holding them are read and checked against their CRCs.  Every
    residue kept must lie in [0, modulus).  Any mismatch is a ValueError.
    The residues are read straight into the series' int32 array, with no
    other copy."""
    if trunc is not None and int(trunc) < 0:
        raise ValueError(f"truncation must be >= 0, got {trunc}")
    with open(path, "rb") as fh:
        stored_modulus, stored_trunc = read_header(fh, modulus)
        count = stored_trunc + 1
        ring = ResidueRing(stored_modulus)
        keep = stored_trunc if trunc is None else min(int(trunc), stored_trunc)
        blocks = _crc_blocks(keep + 1)
        # Signed, so that a residue of 2^31 or more reads as negative.
        residues = np.empty(keep + 1, "<i4")
        data = memoryview(residues).cast("B")
        got = fh.readinto(data)
        # The rest of the last block read, which its CRC covers too.
        rest = fh.read(4 * min(count, blocks * _CRC_BLOCK) - len(data))
        fh.seek(_HEADER_SIZE + 4 * count)
        trailer = fh.read(4 * blocks)
    if got != len(data) or len(trailer) != 4 * blocks:
        raise ValueError("cache file truncated")
    crcs = struct.unpack(f"<{blocks}I", trailer)
    step = 4 * _CRC_BLOCK
    for i, crc in enumerate(crcs):
        block_crc = zlib.crc32(data[i * step:(i + 1) * step])
        if i == blocks - 1:
            block_crc = zlib.crc32(rest, block_crc)
        if block_crc != crc:
            raise ValueError(f"cache block {i} fails its CRC check")
    residues = residues.astype(np.int32, copy=False)
    if residues.min() < 0 or residues.max() >= stored_modulus:
        raise ValueError(f"cache file holds a residue >= {stored_modulus}")
    return TruncSeries._canonical(ring, residues, keep)

"""End-to-end congruence pipelines.

Two mechanical proofs (the overpartition congruences mod 11 and mod 13),
desk-scale verification of the companion identities mod 17 and mod 23, the
prime-power Euler-product congruence check, direct claim checking against
the generating function, and a scanner that rediscovers vanishing residue
classes and compresses them into mod-8 / Kronecker-sign conditions.

Every pipeline emits a ProofReport: an ordered list of named steps, each
carrying a computed witness and a pass flag.  Reports are deterministic;
timings are kept out of the serialised form.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import chars
from .halfint import (GAMMA0, Decomposition, SpaceLabel, apply_U,
                      basis_monomials, decompose, hecke_T, sieve_progression)
from .modseries import (TRUNC_CAP, ResidueRing, TruncSeries, extract_progression, load_series,
                        read_header, ring_div, ring_pow, save_series, transform)
# Bound here although prover does not call it: perfbench's tracer self-test
# checks that the tracer rebinds it at every import site, this one included.
from .modseries import ring_mul  # noqa: F401
from .qgen import overpartition_series, pochhammer, r_m_series, theta_phi
from .sturm import progression_limit, sturm_bound

# Largest coefficient index any scan or direct check may demand.
INDEX_HARD_CAP = 1 << 24

# Default scan depth: how far into the coefficient stream a scan looks.
SCAN_DEFAULT_INDEX = {17: 5_000_000, 23: 5_000_000}
SCAN_FALLBACK_INDEX = 1_000_000

DEFAULT_MIN_SUPPORT = 20


def default_scan_index(modulus: int) -> int:
    return SCAN_DEFAULT_INDEX.get(modulus, SCAN_FALLBACK_INDEX)


# ---------------------------------------------------------------------------
# claims

@dataclass(frozen=True)
class CongruenceClaim:
    """pbar(multiplier * (A*t + B)) = 0 mod modulus for all t satisfying the
    side conditions; conditions constrain n = A*t + B."""

    modulus: int
    multiplier: int
    progression: tuple[int, int]
    conditions: tuple[tuple, ...] = ()
    status: str = "unchecked"
    support: int = 0

    def __post_init__(self):
        if self.modulus < 1 or self.multiplier < 1:
            raise ValueError(f"modulus and multiplier must be >= 1, "
                             f"got {self.modulus}, {self.multiplier}")
        a, b = self.progression
        if a < 1 or not 0 <= b < a:
            raise ValueError(f"progression must satisfy A >= 1, 0 <= B < A, got {a}, {b}")
        for cond in self.conditions:
            if cond[0] not in ("residue", "kronecker"):
                raise ValueError(f"unknown condition {cond!r}")
            # Past the index cap a modulus acts as infinity; the cap keeps
            # n mod s in int64.
            if cond[0] == "residue" and (not 1 <= cond[1] < 1 << 31 or not cond[2] or any(
                    not 0 <= r < cond[1] for r in cond[2])):
                raise ValueError(f"residue condition needs a modulus 1 <= s < 2^31 and "
                                 f"at least one residue in [0, s), got {cond[1:]}")
            # The cap keeps is_prime's trial division short.
            if cond[0] == "kronecker" and (cond[2] not in (-1, 1) or not (
                    2 < cond[1] < 1 << 31 and chars.is_prime(cond[1]))):
                raise ValueError(f"Kronecker condition needs an odd prime p < 2^31 and "
                                 f"a sign of -1 or +1, got {cond[1:]}")

    def condition_holds(self, n: int) -> bool:
        for cond in self.conditions:
            if cond[0] == "residue":
                _, s, allowed = cond
                if n % s not in allowed:
                    return False
            else:
                _, p, sign = cond
                if chars.kronecker(n, p) != sign:
                    return False
        return True

    def condition_mask(self, ns: np.ndarray) -> np.ndarray:
        """condition_holds at every n of an int64 array.  Each condition is
        evaluated once per distinct n mod s (residue) or n mod p (Kronecker:
        p is an odd prime, so (n/p) depends on n mod p alone)."""
        mask = np.ones(len(ns), dtype=bool)
        for kind, s, arg in self.conditions:
            classes, where = np.unique(ns % s, return_inverse=True)
            if kind == "residue":
                holds = np.isin(classes, arg)
            else:
                holds = np.array([chars.kronecker(r, s) == arg for r in classes.tolist()],
                                 dtype=bool)
            mask &= holds[where]
        return mask

    def describe(self) -> str:
        a, b = self.progression
        inner = f"{a}n+{b}" if a > 1 else f"n+{b}" if b else "n"
        parts = [f"pbar({self.multiplier}*({inner})) = 0 mod {self.modulus}"
                 if self.multiplier > 1 else f"pbar({inner}) = 0 mod {self.modulus}"]
        for cond in self.conditions:
            if cond[0] == "residue":
                parts.append(f"n = {sorted(cond[2])} mod {cond[1]}")
            else:
                parts.append(f"(n/{cond[1]}) = {cond[2]:+d}")
        return ", ".join(parts)

    def to_dict(self) -> dict:
        conds = []
        for cond in self.conditions:
            if cond[0] == "residue":
                conds.append({"type": "residue", "modulus": cond[1],
                              "residues": sorted(cond[2])})
            else:
                conds.append({"type": "kronecker", "p": cond[1], "sign": cond[2]})
        return {"modulus": self.modulus, "multiplier": self.multiplier,
                "progression": list(self.progression), "conditions": conds,
                "status": self.status, "support": self.support}

    @classmethod
    def from_dict(cls, data: dict) -> "CongruenceClaim":
        """Inverse of to_dict; input of any other shape raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a claim must be a JSON object")
        for key in ("modulus", "progression"):
            if key not in data:
                raise ValueError(f"claim has no {key!r}")
        progression = data["progression"]
        if not isinstance(progression, list) or len(progression) != 2:
            raise ValueError("claim progression must be a list [A, B]")
        conditions = data.get("conditions", [])
        if not isinstance(conditions, list):
            raise ValueError("claim conditions must be a list")
        conds = []
        for c in conditions:
            kind = c.get("type") if isinstance(c, dict) else None
            if kind == "residue":
                residues = c.get("residues")
                if not isinstance(residues, list):
                    raise ValueError("a residue condition needs a list of residues")
                conds.append(("residue", _claim_int(c.get("modulus"), "modulus"),
                              tuple(sorted(_claim_int(r, "residue") for r in residues))))
            elif kind == "kronecker":
                conds.append(("kronecker", _claim_int(c.get("p"), "p"),
                              _claim_int(c.get("sign"), "sign")))
            else:
                raise ValueError(f"unknown condition {c!r}")
        status = data.get("status", "unchecked")
        if not isinstance(status, str):
            raise ValueError("claim status must be a string")
        return cls(_claim_int(data["modulus"], "modulus"),
                   _claim_int(data.get("multiplier", 1), "multiplier"),
                   tuple(_claim_int(x, "progression") for x in progression),
                   tuple(conds), status,
                   _claim_int(data.get("support", 0), "support"))


def _claim_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"claim field {name!r} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# reports

@dataclass
class ProofStep:
    name: str
    anchor: str
    witness: object
    passed: bool
    seconds: float = 0.0


@dataclass
class ProofReport:
    claim: str
    steps: list[ProofStep] = field(default_factory=list)
    limits: dict = field(default_factory=dict)
    # When the step being timed began: at construction, then at each add.
    _start: float = field(init=False, default_factory=time.perf_counter,
                          repr=False, compare=False)

    def add(self, name: str, anchor: str, witness, passed: bool) -> None:
        """Append a step, timed from the previous step (or construction)."""
        now = time.perf_counter()
        self.steps.append(ProofStep(name, anchor, witness, bool(passed), now - self._start))
        self._start = now

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_dict(self) -> dict:
        return {"claim": self.claim,
                "steps": [{"name": s.name, "anchor": s.anchor,
                           "witness": s.witness, "pass": s.passed}
                          for s in self.steps],
                "pass": self.passed,
                "limits": self.limits}

    def timing_summary(self) -> str:
        total = sum(s.seconds for s in self.steps)
        return " ".join(f"{s.name}={s.seconds:.2f}s" for s in self.steps) + f" total={total:.2f}s"


# ---------------------------------------------------------------------------
# shared coefficient streams

def _reserve(count: int) -> np.ndarray:
    """A writable int32 array of `count` entries over an anonymous mapping:
    a page costs memory only once it is written, so capacity that is never
    used costs none, and the mapping is returned to the system as soon as
    no array refers to it."""
    return np.frombuffer(mmap.mmap(-1, 4 * count), np.int32)


def cache_filename(modulus: int) -> str:
    """The cache file of the overpartition stream mod `modulus`; its header
    records the modulus too, so a file for another one is a miss."""
    return f"overpartition-{modulus}.qser"


class CoefficientStore:
    """Per stream modulus, the longest prefix of the overpartition stream
    computed so far, in memory and, with a cache directory, on disk.

    A request up to the held truncation is answered with a read-only view
    of the held array.  A longer one first looks for a longer stream on
    disk, then hands the held prefix to the build function.  A cache file
    that fails validation is a miss: it is recomputed and overwritten.  A
    valid one never shrinks, though another process may grow it during a
    build.  One lock serialises lookups, so concurrent scans share a single
    computation.

    The store owns one writable int32 buffer per stream; what it holds and
    returns are read-only views of its head.  A stream built here lives in
    an anonymous mapping reserved at twice the truncation asked for, so a
    growth within that capacity writes in place, past the held entries,
    and copies nothing.  A growth past it maps a new buffer, copies the
    held prefix into it and drops the store's reference to the old buffer
    before the builder runs.  A view returned earlier keeps the buffer it
    was cut from, and its entries never change.

    The build contract: build(trunc, ring, out, start) writes the stream's
    residues in [0, ring.modulus) into out[start:] and returns the series
    over `out`, where `out` is a writable int32 array of trunc + 1 entries
    whose first `start` entries already hold the stream's known prefix;
    overpartition_series is such a builder.  The store writes the cache
    file from that series with save_series and reads it back with
    load_series.  If build raises, the held length and values are
    unchanged.
    """

    def __init__(self, cache_dir: str | None = None):
        self.cache_dir = cache_dir
        # (buffer, held length) per stream modulus.
        self._held: dict[int, tuple[np.ndarray, int]] = {}
        self._lock = threading.Lock()

    def reset(self, cache_dir: str | None = None) -> None:
        """Drop every held array and use `cache_dir` from now on."""
        with self._lock:
            self._held.clear()
            self.cache_dir = cache_dir

    def coefficients(self, ring: ResidueRing, trunc: int, build) -> np.ndarray:
        """The stream mod ring.modulus through q^trunc (int32, read-only),
        built by `build` under the contract above when neither the held
        array nor the disk reaches q^trunc."""
        trunc = int(trunc)
        if not 0 <= trunc <= TRUNC_CAP:
            raise ValueError(f"truncation must lie in [0, {TRUNC_CAP}], got {trunc}")
        key = ring.modulus
        path = None
        if self.cache_dir:
            path = os.path.join(self.cache_dir, cache_filename(key))
        with self._lock:
            buf, count = self._held.get(key, (None, 0))
            damaged = False
            if count <= trunc and path and os.path.exists(path):
                try:
                    stored = load_series(path, ring.modulus, trunc).coeffs
                except (OSError, ValueError):  # a miss, overwritten below
                    stored, damaged = None, True
                if stored is not None and len(stored) > count:
                    buf, count = stored, len(stored)
                    self._held[key] = buf, count
                del stored
            if count > trunc:
                view = buf[:trunc + 1]
                view.setflags(write=False)
                return view
            if buf is None or len(buf) <= trunc:
                # Past capacity: the store lets go of the old buffer before
                # the build, so only views handed out earlier keep it.
                grown = _reserve(2 * (trunc + 1))
                if count:
                    grown[:count] = buf[:count]
                buf = grown
                self._held[key] = buf, count
            series = build(trunc, ring, buf[:trunc + 1], count)
            if path:
                os.makedirs(self.cache_dir, exist_ok=True)
                on_disk = -1  # a valid file as long or longer is kept
                with contextlib.suppress(OSError, ValueError), open(path, "rb") as fh:
                    on_disk = read_header(fh, key)[1]
                if damaged or on_disk < trunc:
                    save_series(series, path)
            self._held[key] = buf, trunc + 1
            return series.coeffs


STORE = CoefficientStore()

# 23# = 2*3*5*7*11*13*17*19*23.  Every modulus the paper works with divides
# it, and it is the largest primorial below 2^31, the word limit of
# ResidueRing, the int32 store and the u32 cache file.
PRIMORIAL_23 = 223_092_870


def _pbar_stream(modulus: int, trunc: int) -> np.ndarray:
    """The stored overpartition stream that `modulus` reads, through index
    `trunc` (int32, read-only), not yet reduced mod `modulus`: a caller
    reduces only what it reads.  The one place that picks the stream
    modulus: every modulus dividing 23# reads the shared stream mod 23#; any
    other modulus keeps its own stream."""
    modulus = ResidueRing(modulus).modulus
    stream = PRIMORIAL_23 if PRIMORIAL_23 % modulus == 0 else modulus
    return STORE.coefficients(ResidueRing(stream), trunc, overpartition_series)


def _signed_compacted_pbar(modulus: int, d: int, trunc: int) -> TruncSeries:
    """sum_n pbar(d*n) * (-q)^n through q^trunc."""
    ring = ResidueRing(modulus)
    # The constructor reduces the slice mod `modulus`.
    series = TruncSeries(ring, _pbar_stream(modulus, d * trunc)[::d][:trunc + 1], trunc)
    return transform(series, 1, -1)


# ---------------------------------------------------------------------------
# the two mechanical proofs

def _prove_theorem(modulus: int, u_chain: int, progression_b: int,
                   claim_text: str, crosscheck_index: int,
                   asserted_char: int = 1) -> ProofReport:
    """Shared pipeline: express the U(modulus)-image of phi^(modulus-1) in the
    monomial basis, cancel phi, push the combination through the U(2)-chain,
    and verify vanishing along 8n + progression_b up to the Sturm budget.

    asserted_char is the character tag asserted for the sieved space; the
    mechanically tracked tag is reported next to it (they can differ by the
    normalisation the operator rules do not fix).
    """
    ring = ResidueRing(modulus)
    k2 = modulus - 1
    t_work = 300
    report = ProofReport(claim_text)

    # phi^(k2), its head pinned to the known representation counts.
    r_series = r_m_series(k2, modulus * t_work, ring)
    expected_head = _EXPECTED_THETA_HEAD[modulus]
    head = [int(c) for c in r_series.coeffs[:len(expected_head)]]
    report.add("expand-theta-power", f"mod{modulus}.theta-power", head,
               head == expected_head)

    # U(modulus) compaction, cross-checked against the Hecke action, whose
    # second term vanishes in the ring because ell = modulus there.
    basis = basis_monomials(k2)
    u_image = extract_progression(r_series, modulus, 0, compact=True)
    hecke_image = hecke_T(r_series, SpaceLabel(k2, 4, GAMMA0, basis.char_numer), modulus)
    agree = u_image == hecke_image
    report.add("hecke-vs-u", f"mod{modulus}.hecke-reduction",
               {"trunc": u_image.trunc, "agree": agree}, agree)

    dec = decompose(u_image, k2)
    expected = _EXPECTED_DECOMPOSITION[modulus]
    report.add("decompose", f"mod{modulus}.basis-coordinates",
               list(dec.coeffs), dec.coeffs == expected)

    # Cancel phi: divide by it (phi has unit constant term and the
    # coefficient-stream ring has no zero divisors), then confirm the result
    # recombines from the lowered monomial coordinates.
    dec_low = dec.cancel_phi()
    comb = ring_div(u_image, theta_phi(t_work, ring))
    recombines = comb == dec_low.recombine(t_work)
    report.add("cancel-phi", f"mod{modulus}.weight-drop",
               {"coefficients": list(dec_low.coeffs), "recombines": recombines},
               recombines)

    # The combination must reproduce the signed, compacted overpartition
    # stream: both sides of the congruence computed independently.
    lhs = _signed_compacted_pbar(modulus, modulus, t_work)
    consistent = lhs == comb
    report.add("overpartition-consistency", f"mod{modulus}.generating-function",
               {"trunc": t_work, "equal": consistent}, consistent)

    # Label chain: the combination lives at weight k2-1 over Gamma0(4) with
    # trivial character; run the U(2) chain, then the progression sieve.
    # One level inflation 4 -> 8 covers every U(2) step, so the sieve lands
    # at level 8 * 8^2 = 512 and its bound fixes how far to expand.
    label = SpaceLabel(k2 - 1, 4, GAMMA0, 1)
    total_u = 1
    chain_levels = []
    if u_chain:
        final_bound = sturm_bound(SpaceLabel(k2 - 1, 8 * 64, GAMMA0)).bound
        series = dec_low.recombine((1 << u_chain) * final_bound)
        for _ in range(u_chain):
            series, label = apply_U(series, label, 2)
            chain_levels.append(label.level)
            total_u *= 2
    else:
        series = comb
    report.add("u-chain", f"mod{modulus}.u-steps",
               {"levels": chain_levels, "multiplier": total_u, "trunc": series.trunc},
               True)

    sieved, sieve_label = sieve_progression(series, label, 1, 8, progression_b)
    asserted_label = SpaceLabel(sieve_label.twice_weight, sieve_label.level,
                                GAMMA0, asserted_char)
    budget = sturm_bound(asserted_label)
    limit = progression_limit(budget, 8, progression_b)
    idx = np.arange(progression_b, budget.bound + 1, 8)
    checked = sieved.coeffs[idx]
    nonzero = np.flatnonzero(checked)
    ok = len(nonzero) == 0
    witness = {"label": sieve_label.describe(),
               "asserted_label": asserted_label.describe(),
               "index": budget.index, "bound": budget.bound, "max_n": limit,
               "indices_checked": len(idx),
               "first_nonzero": None if ok else int(idx[nonzero[0]])}
    report.add("sturm-progression-check", f"mod{modulus}.vanishing", witness, ok)

    # Direct cross-check straight from the generating function.
    value = int(_pbar_stream(modulus, crosscheck_index)[crosscheck_index]) % modulus
    report.add("direct-crosscheck", f"mod{modulus}.first-instance",
               {"index": crosscheck_index, "value": value}, value == 0)

    report.limits = {"bound": budget.bound, "max_n": limit,
                     "indices_checked": int(len(idx)),
                     "largest_series_index": int(series.trunc * total_u)}
    return report


_EXPECTED_DECOMPOSITION = {
    11: (1, 1, 0),
    13: (1, 4, 1, 0),
    17: (1, 13, 13, 0, 0),
    23: (1, 9, 5, 14, 17, 20),
}

# Leading representation counts 1, 2k, ... of the theta power, in the ring.
_EXPECTED_THETA_HEAD = {
    11: [1, 20 % 11, 180 % 11],
    13: [1, 24 % 13, 264 % 13, 1760 % 13],
}


def prove_theorem_mod11() -> ProofReport:
    """pbar(11*(8n+5)) = 0 mod 11 for all n >= 0."""
    return _prove_theorem(11, u_chain=0, progression_b=5,
                          claim_text="pbar(11*(8n+5)) = 0 mod 11",
                          crosscheck_index=55)


def prove_theorem_mod13() -> ProofReport:
    """pbar(13*64*(8n+7)) = 0 mod 13 for all n >= 0."""
    return _prove_theorem(13, u_chain=6, progression_b=7,
                          claim_text="pbar(13*64*(8n+7)) = 0 mod 13",
                          crosscheck_index=13 * 64 * 7, asserted_char=2)


# ---------------------------------------------------------------------------
# identity verification mod 17 / mod 23

def verify_identity(modulus: int, trunc: int = 2000) -> ProofReport:
    """Check the expansion identity for the signed compacted overpartition
    stream mod 17 or mod 23 through q^trunc, and re-derive its basis
    coordinates independently through the U + decompose pipeline."""
    if modulus not in (17, 23):
        raise ValueError("identity verification is defined for moduli 17 and 23")
    ring = ResidueRing(modulus)
    k2 = modulus - 1
    expected_low = _EXPECTED_DECOMPOSITION[modulus][:(k2 - 1) // 4 + 1]
    if trunc < len(expected_low) - 1:
        raise ValueError(f"truncation {trunc} is below {len(expected_low) - 1}, "
                         f"where the last basis monomial starts")
    # The left side reads the stream through index modulus * trunc.
    if modulus * trunc > INDEX_HARD_CAP:
        raise ValueError(f"budget exceeded: index {modulus * trunc} > {INDEX_HARD_CAP}; "
                         f"trunc <= {INDEX_HARD_CAP // modulus} stays within it")
    report = ProofReport(
        f"sum pbar({modulus}n)(-q)^n matches its weight-{k2 - 1}/2 combination mod {modulus}")

    lhs = _signed_compacted_pbar(modulus, modulus, trunc)
    report.add("generating-function-side", f"mod{modulus}.lhs", {"trunc": trunc}, True)

    rhs = Decomposition(k2 - 1, ring, expected_low).recombine(trunc)
    diff = np.flatnonzero((lhs.coeffs - rhs.coeffs) % modulus)
    equal = len(diff) == 0
    report.add("coefficientwise-compare", f"mod{modulus}.identity",
               {"trunc": trunc, "first_mismatch": None if equal else int(diff[0])},
               equal)

    t_dec = 300
    r_series = r_m_series(k2, modulus * t_dec, ring)
    u_image = extract_progression(r_series, modulus, 0, compact=True)
    dec = decompose(u_image, k2)
    derived = dec.cancel_phi().coeffs
    report.add("independent-derivation", f"mod{modulus}.re-derivation",
               list(derived), derived == expected_low)

    report.limits = {"trunc": trunc}
    return report


# ---------------------------------------------------------------------------
# Euler-product congruence for prime powers

def verify_lemma1(p: int, alpha: int, trunc: int) -> bool:
    """(q;q)_inf^(p^alpha) = (q^p;q^p)_inf^(p^(alpha-1)) mod p^alpha, checked
    exactly through q^trunc."""
    # Bounds first: p^alpha for a huge alpha, or trial division of a huge p,
    # would not finish.
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if p >= 1 << 31 or alpha >= 31 or p ** alpha >= 1 << 31:
        raise ValueError(f"p^alpha = {p}^{alpha} must be below 2^31")
    if not 0 <= trunc <= TRUNC_CAP:
        raise ValueError(f"truncation must lie in [0, {TRUNC_CAP}], got {trunc}")
    if not chars.is_prime(p):
        raise ValueError(f"{p} is not prime")
    ring = ResidueRing(p ** alpha)
    lhs = ring_pow(pochhammer(1, trunc, ring), p ** alpha)
    rhs = ring_pow(transform(pochhammer(1, trunc // p, ring), p, 1), p ** (alpha - 1))
    t = min(lhs.trunc, rhs.trunc)
    return bool(np.array_equal(lhs.coeffs[:t + 1], rhs.coeffs[:t + 1]))


# ---------------------------------------------------------------------------
# direct checking and scanning

def check_claim_direct(claim: CongruenceClaim, n_max: int,
                       max_index: int | None = None) -> tuple[str, int, int | None]:
    """Test a claim straight against the coefficient stream.

    Returns (status, support, counterexample): status 'verified' with the
    number of indices tested, or 'refuted' with the first coefficient index
    whose value is nonzero.  Claims mod 1 hold vacuously: they are verified
    on the same indices, within the same budget, without reading a stream.
    """
    a, b = claim.progression
    d = claim.multiplier
    top = d * (a * n_max + b)
    if max_index is not None:
        top = min(top, max_index)
    if top > INDEX_HARD_CAP:
        fit = (INDEX_HARD_CAP // d - b) // a
        hint = (f"n_max <= {fit} stays within it" if fit >= 0
                else "no n_max stays within it")
        raise ValueError(f"budget exceeded: index {top} > {INDEX_HARD_CAP}; {hint}")
    # Every t with d*(a*t + b) <= top, so nothing past the budget is built.
    t_hi = min(n_max, (top // d - b) // a)
    idx = np.zeros(0, np.int64)
    if t_hi >= 0:
        # Built by arange: a step past int64 still yields its one term.
        ns = np.arange(b, a * t_hi + b + 1, a, dtype=np.int64)
        idx = np.arange(d * b, d * (a * t_hi + b) + 1, d * a,
                        dtype=np.int64)[claim.condition_mask(ns)]
    support = int(len(idx))
    if support == 0 or claim.modulus == 1:
        return "verified", support, None
    # Only the gathered entries are reduced, not the whole shared stream.
    vals = _pbar_stream(claim.modulus, top)[idx] % claim.modulus
    bad = np.flatnonzero(vals)
    if len(bad):
        return "refuted", support, int(idx[bad[0]])
    return "verified", support, None


def _compress_residues(hits: list[int], a: int) -> tuple[tuple, ...]:
    """Try to express a set of surviving offsets B in [0, a) as one residue
    class mod 8 intersected with at most two Kronecker-sign conditions.

    Conditions must be functions of B mod a to be testable, so the candidate
    primes are the odd primes dividing a (primes dividing only the multiplier
    cannot cut [0, a) exactly); 8 | a is required for the mod-8 clause.
    """
    if a % 8 != 0 or not hits:
        return ()
    # Every candidate below holds at least a/60 offsets (a/8 * 1/3 * 2/5,
    # at p = 3 and 5), so fewer hits match none.  This also keeps the
    # enumerations of [0, a) and the factorisation of a short.
    if 60 * len(hits) < a:
        return ()
    residues = {h % 8 for h in hits}
    if len(residues) != 1:
        return ()
    r = residues.pop()
    base = [x for x in range(a) if x % 8 == r]
    odd_primes = sorted(p for p in chars.factorize(a) if p % 2 == 1)
    # Fewest conditions first: no prime, then each prime, then each pair.
    for count in range(3):
        for primes in itertools.combinations(odd_primes, count):
            for signs in itertools.product((-1, 1), repeat=count):
                conds = tuple(zip(primes, signs))
                if hits == [x for x in base
                            if all(chars.kronecker(x, p) == s for p, s in conds)]:
                    return (("residue", 8, (r,)),) + tuple(("kronecker",) + c for c in conds)
    return ()


def _column_any(flat: np.ndarray, a: int) -> np.ndarray:
    """flat.reshape(-1, a).any(axis=0) for a bool array of whole rows of a.

    The rows are halved, OR-ing the top half onto the bottom, until one
    row is left: every OR is one contiguous pass over half the remaining
    entries.  A reduce along axis 0 instead runs an inner loop of only a
    entries per row: at A = 8 over 10^6 entries it took 4.1 ms against
    0.1 ms here (numpy 2.4, one Xeon core)."""
    rows = len(flat) // a
    while rows > 1:
        half, odd = divmod(rows, 2)
        folded = flat[:half * a] | flat[half * a:2 * half * a]
        if odd:
            folded[:a] |= flat[2 * half * a:rows * a]
        flat, rows = folded, half
    return flat[:a]


# Stream entries reduced at a time by _nonzero_masks: 256 KB of int32.
_SCAN_BLOCK = 1 << 16


def _nonzero_masks(stream: np.ndarray, modulus: int, ds) -> dict[int, np.ndarray]:
    """Per d in ds, the bool mask of stream[d*n] % modulus != 0 for
    d*n < len(stream).  The stream is reduced _SCAN_BLOCK entries at a time
    into one reused buffer, and every d's mask is filled from each block,
    so each entry is reduced once and no reduced copy of the whole stream
    is made."""
    size = len(stream)
    masks = {d: np.empty(-(-size // d), bool) for d in ds}
    buf = np.empty(min(_SCAN_BLOCK, size), stream.dtype)
    for lo in range(0, size, _SCAN_BLOCK):
        block = buf[:min(_SCAN_BLOCK, size - lo)]
        np.remainder(stream[lo:lo + len(block)], modulus, out=block)
        for d, mask in masks.items():
            # The first multiple of d at or past lo is d*n0.
            n0 = -(-lo // d)
            part = block[n0 * d - lo::d]
            np.not_equal(part, 0, out=mask[n0:n0 + len(part)])
    return masks


def scan(modulus: int, d_list, a_list, n_max: int,
         min_support: int = DEFAULT_MIN_SUPPORT,
         max_index: int | None = None) -> list[CongruenceClaim]:
    """Search for vanishing residue classes of the coefficient stream.

    For each (d, A) pair, an offset B survives when pbar(d*(A*t+B)) vanishes
    mod `modulus` for every tested t (t <= n_max and index within budget) and
    the number of tested t reaches min_support.  Surviving sets are reported
    as one claim per offset, annotated with their compressed description when
    the whole set is exactly a mod-8 class cut by Kronecker signs.

    The stream is reduced mod `modulus` once, block by block, and each
    distinct d's nonzero mask of pbar(d*n), n <= max_index // d, is filled
    from every block (_nonzero_masks): no reduced copy of the whole stream
    is made.  The pairs then run in turn: each lays its mask out in rows of
    A offsets and takes one OR over the rows, so the depth cost is
    O(max_index / d) per multiplier plus one reduction per pair; Python
    loops only over the offsets that survive it.
    """
    d_list = [int(d) for d in d_list]
    a_list = [int(a) for a in a_list]
    if min(d_list, default=1) < 1 or min(a_list, default=1) < 1:
        raise ValueError(f"multipliers and steps must be >= 1, got {d_list}, {a_list}")
    if max_index is None:
        max_index = default_scan_index(modulus)
    if max_index > INDEX_HARD_CAP:
        raise ValueError(f"budget exceeded: {max_index} > {INDEX_HARD_CAP}")
    masks = _nonzero_masks(_pbar_stream(modulus, max_index), modulus, set(d_list))

    def scan_pair(d, a) -> list[CongruenceClaim]:
        mask = masks[d]
        top = len(mask) - 1
        # Row t holds offsets B = 0 .. A-1 at n = A*t + B; t <= n_max, and
        # only the row holding top can be partial.  An offset past top has
        # no index within the budget, so a huge A costs top + 1 columns.
        rows = min(top // a + 1, n_max + 1)
        if rows < max(min_support, 1):
            return []
        full, rest = divmod(min(rows * a, top + 1), a)
        nonzero = np.zeros(min(a, top + 1), dtype=bool)
        if full:
            nonzero |= _column_any(mask[:full * a], a)
        nonzero[:rest] |= mask[full * a:full * a + rest]
        hits = []
        supports = {}
        for b in np.flatnonzero(~nonzero).tolist():
            t_hi = min((top - b) // a, n_max)
            if t_hi + 1 >= min_support:
                hits.append(b)
                supports[b] = t_hi + 1
        conditions = _compress_residues(hits, a)
        return [CongruenceClaim(modulus, d, (a, b), conditions,
                                status="observed", support=supports[b])
                for b in hits]

    claims = [c for d in d_list for a in a_list for c in scan_pair(d, a)]
    claims.sort(key=lambda c: (c.multiplier, c.progression))
    return claims

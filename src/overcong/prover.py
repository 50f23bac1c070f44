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

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import chars
from .halfint import (GAMMA0, Decomposition, SpaceLabel, apply_U,
                      basis_monomials, decompose, hecke_T, sieve_progression)
from .modseries import (TRUNC_CAP, ResidueRing, TruncSeries, cache_filename,
                        extract_progression, load_series, ring_invert,
                        ring_mul, ring_pow, save_series, transform)
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
            if cond[0] == "residue" and cond[1] < 1:
                raise ValueError(f"residue condition modulus must be >= 1, got {cond[1]}")

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

    @classmethod
    def from_dict(cls, data: dict) -> "ProofReport":
        report = cls(data["claim"], limits=dict(data["limits"]))
        for s in data["steps"]:
            report.steps.append(ProofStep(s["name"], s["anchor"], s["witness"], s["pass"]))
        return report

    def timing_summary(self) -> str:
        total = sum(s.seconds for s in self.steps)
        return " ".join(f"{s.name}={s.seconds:.2f}s" for s in self.steps) + f" total={total:.2f}s"


class _StepTimer:
    def __init__(self, report: ProofReport):
        self.report = report
        self._t0 = time.perf_counter()

    def add(self, name: str, anchor: str, witness, passed: bool) -> bool:
        now = time.perf_counter()
        self.report.steps.append(ProofStep(name, anchor, witness, bool(passed),
                                           now - self._t0))
        self._t0 = now
        return bool(passed)


# ---------------------------------------------------------------------------
# shared coefficient streams

class CoefficientStore:
    """Per (generator, modulus), the longest coefficient array computed so
    far, in memory and, with a cache directory, on disk.

    A request up to the held truncation is answered with a read-only slice.
    A longer one first looks for a longer stream on disk, then hands the
    held prefix to the build function, which computes only the coefficients
    past it (or everything, if it cannot extend a prefix); the result
    becomes the held array and is written back.  A cache file that fails validation is a
    miss: it is recomputed and overwritten.  One lock serialises lookups, so
    concurrent scans share a single computation.
    """

    def __init__(self, cache_dir: str | None = None):
        self.cache_dir = cache_dir
        self._held: dict[tuple[str, int], np.ndarray] = {}
        self._lock = threading.Lock()

    def reset(self, cache_dir: str | None = None) -> None:
        """Drop every held array and use `cache_dir` from now on."""
        with self._lock:
            self._held.clear()
            self.cache_dir = cache_dir

    def coefficients(self, generator: str, ring: ResidueRing, trunc: int,
                     build) -> np.ndarray:
        """Coefficients of `generator` mod ring.modulus through q^trunc (int32,
        read-only).  build(trunc, ring, known) returns the TruncSeries through
        q^trunc; `known` is a prefix of it, or None."""
        trunc = int(trunc)
        if not 0 <= trunc <= TRUNC_CAP:
            raise ValueError(f"truncation must lie in [0, {TRUNC_CAP}], got {trunc}")
        key = (generator, ring.modulus)
        with self._lock:
            held = self._held.get(key)
            if held is not None and len(held) > trunc:
                return held[:trunc + 1]
            path = None
            if self.cache_dir:
                path = os.path.join(self.cache_dir, cache_filename(*key))
                stored = None
                if os.path.exists(path):
                    try:
                        stored = load_series(path, ring.modulus, trunc).coeffs.astype(np.int32)
                    except (OSError, ValueError):
                        pass  # damaged or foreign: a miss, overwritten below
                if stored is not None and (held is None or len(stored) > len(held)):
                    stored.setflags(write=False)
                    held = self._held[key] = stored
                    if len(held) > trunc:
                        return held
            series = build(trunc, ring, held)
            if path is not None:
                os.makedirs(self.cache_dir, exist_ok=True)
                save_series(series, path)
            held = series.coeffs.astype(np.int32)
            held.setflags(write=False)
            self._held[key] = held
            return held


STORE = CoefficientStore()


def _pbar_mod(modulus: int, trunc: int) -> np.ndarray:
    """Overpartition counts mod `modulus` through index `trunc` (int32,
    read-only), served from the coefficient store."""
    return STORE.coefficients("overpartition", ResidueRing(modulus), trunc,
                              overpartition_series)


def _signed_compacted_pbar(modulus: int, d: int, trunc: int) -> TruncSeries:
    """sum_n pbar(d*n) * (-q)^n through q^trunc."""
    ring = ResidueRing(modulus)
    pb = _pbar_mod(modulus, d * trunc)
    series = TruncSeries(ring, pb[::d][:trunc + 1].astype(np.int64), trunc)
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
    timer = _StepTimer(report)

    # phi^(k2), its head pinned to the known representation counts.
    r_series = r_m_series(k2, modulus * t_work, ring)
    expected_head = _EXPECTED_THETA_HEAD[modulus]
    head = [int(c) for c in r_series.coeffs[:len(expected_head)]]
    timer.add("expand-theta-power", f"mod{modulus}.theta-power", head,
              head == expected_head)

    # U(modulus) compaction, cross-checked against the Hecke action, whose
    # second term vanishes in the ring because ell = modulus there.
    basis = basis_monomials(k2)
    chi = (chars.DirichletChar.from_kronecker(-4, 4) if basis.char_numer == -4
           else chars.DirichletChar.principal(4))
    u_image = extract_progression(r_series, modulus, 0, compact=True)
    hecke_image = hecke_T(r_series, k2, modulus, chi)
    agree = u_image == hecke_image
    timer.add("hecke-vs-u", f"mod{modulus}.hecke-reduction",
              {"trunc": u_image.trunc, "agree": agree}, agree)

    dec = decompose(u_image, k2)
    expected = _EXPECTED_DECOMPOSITION[modulus]
    timer.add("decompose", f"mod{modulus}.basis-coordinates",
              list(dec.coeffs), dec.coeffs == expected)

    # Cancel phi: multiply by its inverse (phi has unit constant term and the
    # coefficient-stream ring has no zero divisors), then confirm the result
    # recombines from the lowered monomial coordinates.
    dec_low = dec.cancel_phi()
    phi = theta_phi(t_work, ring)
    comb = ring_mul(u_image, ring_invert(phi))
    recombines = comb == dec_low.recombine(t_work)
    timer.add("cancel-phi", f"mod{modulus}.weight-drop",
              {"coefficients": list(dec_low.coeffs), "recombines": recombines},
              recombines)

    # The combination must reproduce the signed, compacted overpartition
    # stream: both sides of the congruence computed independently.
    lhs = _signed_compacted_pbar(modulus, modulus, t_work)
    consistent = lhs == comb
    timer.add("overpartition-consistency", f"mod{modulus}.generating-function",
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
    timer.add("u-chain", f"mod{modulus}.u-steps",
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
    timer.add("sturm-progression-check", f"mod{modulus}.vanishing", witness, ok)

    # Direct cross-check straight from the generating function.
    pb = _pbar_mod(modulus, crosscheck_index)
    direct_ok = int(pb[crosscheck_index]) == 0
    timer.add("direct-crosscheck", f"mod{modulus}.first-instance",
              {"index": crosscheck_index, "value": int(pb[crosscheck_index])},
              direct_ok)

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
    report = ProofReport(
        f"sum pbar({modulus}n)(-q)^n matches its weight-{k2 - 1}/2 combination mod {modulus}")
    timer = _StepTimer(report)

    lhs = _signed_compacted_pbar(modulus, modulus, trunc)
    timer.add("generating-function-side", f"mod{modulus}.lhs", {"trunc": trunc}, True)

    rhs = Decomposition(k2 - 1, ring, expected_low).recombine(trunc)
    diff = np.flatnonzero((lhs.coeffs - rhs.coeffs) % modulus)
    equal = len(diff) == 0
    timer.add("coefficientwise-compare", f"mod{modulus}.identity",
              {"trunc": trunc, "first_mismatch": None if equal else int(diff[0])},
              equal)

    t_dec = 300
    r_series = r_m_series(k2, modulus * t_dec, ring)
    u_image = extract_progression(r_series, modulus, 0, compact=True)
    dec = decompose(u_image, k2)
    derived = dec.cancel_phi().coeffs
    timer.add("independent-derivation", f"mod{modulus}.re-derivation",
              list(derived), derived == expected_low)

    report.limits = {"trunc": trunc}
    return report


# ---------------------------------------------------------------------------
# Euler-product congruence for prime powers

def verify_lemma1(p: int, alpha: int, trunc: int) -> bool:
    """(q;q)_inf^(p^alpha) = (q^p;q^p)_inf^(p^(alpha-1)) mod p^alpha, checked
    exactly through q^trunc."""
    if not chars.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
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
    whose value is nonzero.  Claims mod 1 hold vacuously.
    """
    a, b = claim.progression
    d = claim.multiplier
    if claim.modulus == 1:
        return "verified", n_max + 1, None
    top = d * (a * n_max + b)
    if max_index is not None:
        top = min(top, max_index)
    if top > INDEX_HARD_CAP:
        raise ValueError(f"budget exceeded: index {top} > {INDEX_HARD_CAP}")
    pb = _pbar_mod(claim.modulus, top)
    # Every t with d*(a*t + b) <= top, so nothing past the budget is built.
    t_hi = min(n_max, (top // d - b) // a)
    ns = a * np.arange(max(t_hi + 1, 0), dtype=np.int64) + b
    idx = d * ns
    if claim.conditions:
        mask = np.array([claim.condition_holds(int(n)) for n in ns], dtype=bool)
        ns, idx = ns[mask], idx[mask]
    support = int(len(idx))
    if support == 0:
        return "verified", 0, None
    vals = pb[idx]
    bad = np.flatnonzero(vals)
    if len(bad):
        return "refuted", support, int(idx[bad[0]])
    return "verified", support, None


def _compress_residues(hits: list[int], d: int, a: int) -> tuple[tuple, ...]:
    """Try to express a set of surviving offsets B in [0, a) as one residue
    class mod 8 intersected with at most two Kronecker-sign conditions.

    Conditions must be functions of B mod a to be testable, so the candidate
    primes are the odd primes dividing a (primes dividing only d cannot cut
    [0, a) exactly); 8 | a is required for the mod-8 clause.
    """
    if a % 8 != 0 or not hits:
        return ()
    residues = {h % 8 for h in hits}
    if len(residues) != 1:
        return ()
    r = residues.pop()
    base = [x for x in range(a) if x % 8 == r]
    if base == hits:
        return (("residue", 8, (r,)),)
    odd_primes = sorted(p for p in chars.factorize(d * a) if p % 2 == 1 and a % p == 0)
    for p in odd_primes:
        for sign in (-1, 1):
            cand = [x for x in base if chars.kronecker(x, p) == sign]
            if cand == hits:
                return (("residue", 8, (r,)), ("kronecker", p, sign))
    for i, p1 in enumerate(odd_primes):
        for p2 in odd_primes[i + 1:]:
            for s1 in (-1, 1):
                for s2 in (-1, 1):
                    cand = [x for x in base if chars.kronecker(x, p1) == s1
                            and chars.kronecker(x, p2) == s2]
                    if cand == hits:
                        return (("residue", 8, (r,)),
                                ("kronecker", p1, s1), ("kronecker", p2, s2))
    return ()


def scan(modulus: int, d_list, a_list, n_max: int,
         min_support: int = DEFAULT_MIN_SUPPORT,
         max_index: int | None = None, threads: int = 1) -> list[CongruenceClaim]:
    """Search for vanishing residue classes of the coefficient stream.

    For each (d, A) pair, an offset B survives when pbar(d*(A*t+B)) vanishes
    mod `modulus` for every tested t (t <= n_max and index within budget) and
    the number of tested t reaches min_support.  Surviving sets are reported
    as one claim per offset, annotated with their compressed description when
    the whole set is exactly a mod-8 class cut by Kronecker signs.
    """
    if max_index is None:
        max_index = default_scan_index(modulus)
    if max_index > INDEX_HARD_CAP:
        raise ValueError(f"budget exceeded: {max_index} > {INDEX_HARD_CAP}")
    pb = _pbar_mod(modulus, max_index)

    def scan_pair(pair) -> list[CongruenceClaim]:
        d, a = pair
        hits = []
        supports = {}
        for b in range(a):
            t_hi = (max_index // d - b) // a
            t_hi = min(t_hi, n_max)
            if t_hi < 0 or t_hi + 1 < min_support:
                continue
            ts = np.arange(t_hi + 1, dtype=np.int64)
            vals = pb[d * (a * ts + b)]
            if not vals.any():
                hits.append(b)
                supports[b] = t_hi + 1
        conditions = _compress_residues(hits, d, a)
        return [CongruenceClaim(modulus, d, (a, b), conditions,
                                status="observed", support=supports[b])
                for b in hits]

    pairs = [(int(d), int(a)) for d in d_list for a in a_list]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            grouped = list(pool.map(scan_pair, pairs))
    else:
        grouped = [scan_pair(p) for p in pairs]
    claims = [c for group in grouped for c in group]
    claims.sort(key=lambda c: (c.multiplier, c.progression))
    return claims

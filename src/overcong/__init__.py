"""Truncated q-series arithmetic over Z/mZ and congruence pipelines for the
overpartition function."""

import os

# numpy's OpenBLAS starts a spinning worker thread per extra core when it
# loads, and overcong calls no BLAS routine, so one thread unless the
# caller chose otherwise.  Set before any submodule imports numpy; it has
# no effect if numpy was imported first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .chars import kronecker
from .halfint import (GAMMA0, GAMMA1, Decomposition, MonomialBasis, SpaceLabel,
                      apply_U, basis_monomials, decompose, expand_monomial,
                      hecke_T, sieve_progression)
from .modseries import (ResidueRing, TruncSeries, extract_progression,
                        load_series, ring_add, ring_div, ring_invert, ring_mul,
                        ring_pow, save_series, scalar_mul, transform,
                        zero_series, one_series)
from .prover import (CongruenceClaim, ProofReport, ProofStep, check_claim_direct,
                     prove_theorem_mod11, prove_theorem_mod13, scan,
                     verify_identity, verify_lemma1)
from .qgen import (EtaQuotient, QExpansion, eta_quotient, overpartition_series,
                   pochhammer, r_m_bruteforce, r_m_exact, r_m_series, theta_phi,
                   weight2_form)
from .sturm import SturmBudget, index_sl2, progression_limit, sturm_bound

__all__ = [
    "CongruenceClaim", "Decomposition", "EtaQuotient",
    "GAMMA0", "GAMMA1", "MonomialBasis", "ProofReport", "ProofStep",
    "QExpansion", "ResidueRing", "SpaceLabel", "SturmBudget", "TruncSeries",
    "apply_U", "basis_monomials", "check_claim_direct", "decompose",
    "eta_quotient", "expand_monomial", "extract_progression", "hecke_T",
    "index_sl2", "kronecker", "load_series", "one_series",
    "overpartition_series", "pochhammer", "progression_limit",
    "prove_theorem_mod11", "prove_theorem_mod13", "r_m_bruteforce",
    "r_m_exact", "r_m_series", "ring_add", "ring_div", "ring_invert",
    "ring_mul", "ring_pow", "save_series", "scalar_mul", "scan",
    "sieve_progression", "sturm_bound", "theta_phi", "transform",
    "verify_identity", "verify_lemma1", "weight2_form", "zero_series",
]

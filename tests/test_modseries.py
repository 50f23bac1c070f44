"""Ring arithmetic on truncated series: laws, oracles, and error contracts."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from overcong import (ResidueRing, TruncSeries, coefficient_at,
                      extract_progression, load_series, one_series, ring_add,
                      ring_div, ring_invert, ring_mul, ring_pow, ring_sub,
                      save_series, scalar_mul, theta_phi, transform,
                      zero_series)
from overcong.modseries import _SOLVE_BASE, TRUNC_CAP


def random_series(rng, ring, trunc, density=1.0, unit_constant=False):
    coeffs = rng.integers(0, ring.modulus, trunc + 1)
    if density < 1.0:
        mask = rng.random(trunc + 1) > density
        coeffs[mask] = 0
    if unit_constant:
        coeffs[0] = 1
    return TruncSeries(ring, coeffs, trunc)


def exact_convolution_mod(a, b, trunc, m):
    # Independent oracle: lift to Python integers, multiply exactly, reduce.
    out = [0] * (trunc + 1)
    for i, ai in enumerate(a):
        if i > trunc:
            break
        for j, bj in enumerate(b):
            if i + j > trunc:
                break
            out[i + j] += int(ai) * int(bj)
    return [c % m for c in out]


def test_ring_construction_validation():
    with pytest.raises(ValueError):
        ResidueRing(1)
    with pytest.raises(ValueError):
        ResidueRing(1 << 31)
    assert ResidueRing(9).modulus == 9  # prime powers allowed


def test_series_length_contract():
    ring = ResidueRing(7)
    s = TruncSeries(ring, [1, 2], trunc=4)
    assert len(s.coeffs) == 5
    with pytest.raises(ValueError):
        TruncSeries(ring, [1, 2, 3], trunc=1)


def test_mul_binomial_square():
    ring = ResidueRing(5)
    f = TruncSeries(ring, [1, 1, 0], 2)
    assert list(ring_mul(f, f).coeffs) == [1, 2, 1]


def test_mul_theta_powers_head():
    # phi * phi^9 = phi^10 = 1 + 20q + 180q^2 + ..., reduced mod 11.
    ring = ResidueRing(11)
    phi = theta_phi(2, ring)
    out = ring_mul(phi, ring_pow(phi, 9))
    assert list(out.coeffs) == [1, 20 % 11, 180 % 11]


def test_mul_annihilation():
    ring = ResidueRing(13)
    rng = np.random.default_rng(7)
    f = random_series(rng, ring, 20)
    z = zero_series(ring, 20)
    assert ring_mul(f, z) == z


def test_mul_matches_exact_integer_oracle():
    rng = np.random.default_rng(42)
    for m in (5, 9, 13, 65521):
        ring = ResidueRing(m)
        f = random_series(rng, ring, 32)
        g = random_series(rng, ring, 32)
        expected = exact_convolution_mod(f.coeffs, g.coeffs, 32, m)
        assert list(ring_mul(f, g).coeffs) == expected


def test_mul_sparse_and_dense_paths_agree():
    rng = np.random.default_rng(3)
    ring = ResidueRing(13)
    sparse = random_series(rng, ring, 256, density=0.05)
    dense = random_series(rng, ring, 256)
    assert sparse.support is not None and dense.support is None
    expected = exact_convolution_mod(sparse.coeffs, dense.coeffs, 256, 13)
    assert list(ring_mul(sparse, dense).coeffs) == expected
    assert list(ring_mul(dense, sparse).coeffs) == expected


def test_ring_laws_through_truncation():
    rng = np.random.default_rng(11)
    for m in (13, 9):
        ring = ResidueRing(m)
        for _ in range(5):
            f = random_series(rng, ring, 64)
            g = random_series(rng, ring, 64)
            h = random_series(rng, ring, 64)
            assert ring_mul(ring_mul(f, g), h) == ring_mul(f, ring_mul(g, h))
            assert ring_mul(f, g) == ring_mul(g, f)
            assert ring_mul(f, ring_add(g, h)) == ring_add(ring_mul(f, g), ring_mul(f, h))


def test_mul_ring_mismatch():
    f = one_series(ResidueRing(5), 3)
    g = one_series(ResidueRing(7), 3)
    with pytest.raises(ValueError, match="mismatched rings"):
        ring_mul(f, g)


def test_mul_truncates_to_shorter_operand():
    ring = ResidueRing(7)
    f = one_series(ring, 10)
    g = one_series(ring, 4)
    assert ring_mul(f, g).trunc == 4


def test_pow_identity_and_empty():
    ring = ResidueRing(13)
    rng = np.random.default_rng(5)
    f = random_series(rng, ring, 30)
    assert ring_pow(f, 1) == f
    assert ring_pow(f, 0) == one_series(ring, 30)
    with pytest.raises(ValueError):
        ring_pow(f, -1)


def count_ordered_square_pairs(n):
    # Lattice-point oracle: ordered pairs (x, y) with x^2 + y^2 = n.
    count = 0
    x = 0
    while x * x <= n:
        rest = n - x * x
        y = int(rest ** 0.5)
        while y * y < rest:
            y += 1
        if y * y == rest:
            count += (2 if x else 1) * (2 if y else 1)
        x += 1
    return count


def test_pow_theta_square_counts_lattice_points():
    ring = ResidueRing(65521)
    sq = ring_pow(theta_phi(5, ring), 2)
    for n in range(6):
        assert sq[n] == count_ordered_square_pairs(n)


def test_invert_geometric_series():
    ring = ResidueRing(7)
    f = TruncSeries(ring, [1, 7 - 1] + [0] * 19, 20)  # 1 - q
    assert list(ring_invert(f).coeffs) == [1] * 21


def test_invert_overpartition_head():
    ring = ResidueRing(13)
    phi_neg = transform(theta_phi(3, ring), 1, -1)
    assert list(ring_invert(phi_neg).coeffs) == [1, 2, 4, 8]


def test_invert_is_involutive():
    ring = ResidueRing(11)
    phi = theta_phi(100, ring)
    assert ring_invert(ring_invert(phi)) == phi


def test_invert_times_self_is_one():
    rng = np.random.default_rng(17)
    for m in (11, 9, 25):
        ring = ResidueRing(m)
        for density in (1.0, 0.05):
            f = random_series(rng, ring, 200, density=density, unit_constant=True)
            assert ring_mul(f, ring_invert(f)) == one_series(ring, 200)


def test_invert_requires_unit_constant():
    ring = ResidueRing(9)
    with pytest.raises(ValueError, match="not a unit"):
        ring_invert(TruncSeries(ring, [3, 1, 1], 2))


def test_div_undoes_mul():
    rng = np.random.default_rng(23)
    ring = ResidueRing(13)
    f = random_series(rng, ring, 80)
    g = random_series(rng, ring, 80, unit_constant=True)
    assert ring_div(ring_mul(f, g), g) == f


def test_div_truncates_to_shorter_operand():
    rng = np.random.default_rng(29)
    ring = ResidueRing(11)
    f = random_series(rng, ring, 120)
    g = random_series(rng, ring, 50, unit_constant=True)
    quotient = ring_div(f, g)
    assert quotient.trunc == 50
    assert ring_mul(quotient, g) == TruncSeries(ring, f.coeffs[:51], 50)


def invert_bruteforce(coeffs, trunc, m):
    # Plain O(T^2) inversion recurrence in exact Python integers.
    inv0 = pow(int(coeffs[0]), -1, m)
    out = [inv0]
    for n in range(1, trunc + 1):
        s = 0
        for j in range(1, n + 1):
            s += int(coeffs[j]) * out[n - j]
        out.append(-inv0 * s % m)
    return out


def test_invert_across_solver_block_boundaries():
    # Truncations straddling the scalar-block size of the solver.
    rng = np.random.default_rng(53)
    ring = ResidueRing(13)
    for trunc in (1, 63, 191, 192, 193, 385, 777):
        for density in (1.0, 0.04):
            f = random_series(rng, ring, trunc, density=density, unit_constant=True)
            expected = invert_bruteforce(f.coeffs, trunc, 13)
            assert list(ring_invert(f).coeffs) == expected


def test_transform_sign_alternation():
    ring = ResidueRing(5)
    f = TruncSeries(ring, [1, 1, 1], 2)
    assert list(transform(f, 1, -1).coeffs) == [1, 4, 1]
    assert transform(transform(f, 1, -1), 1, -1) == f


def test_transform_dilation_support():
    ring = ResidueRing(11)
    out = transform(theta_phi(10, ring), 11, 1)
    assert out.trunc == 110
    assert set(out.support.tolist()) == {0, 11, 44, 99}


def test_transform_is_multiplicative():
    rng = np.random.default_rng(31)
    ring = ResidueRing(13)
    f = random_series(rng, ring, 40)
    g = random_series(rng, ring, 40)
    lhs = transform(ring_mul(f, g), 3, 1)
    rhs = ring_mul(transform(f, 3, 1), transform(g, 3, 1))
    assert lhs == rhs


def test_transform_cap_overflow():
    ring = ResidueRing(5)
    f = one_series(ring, TRUNC_CAP // 2)
    with pytest.raises(ValueError, match="truncation cap"):
        transform(f, 3, 1)


def test_extract_parity_split():
    ring = ResidueRing(7)
    f = TruncSeries(ring, [1, 1, 1, 1], 3)
    assert list(extract_progression(f, 2, 1).coeffs) == [0, 1, 0, 1]


def test_extract_partitions_support():
    rng = np.random.default_rng(37)
    ring = ResidueRing(11)
    f = random_series(rng, ring, 50)
    total = zero_series(ring, 50)
    for b in range(4):
        total = ring_add(total, extract_progression(f, 4, b))
    assert total == f


def test_extract_idempotent_and_linear():
    rng = np.random.default_rng(41)
    ring = ResidueRing(13)
    f = random_series(rng, ring, 60)
    g = random_series(rng, ring, 60)
    e = extract_progression(f, 5, 2)
    assert extract_progression(e, 5, 2) == e
    assert (extract_progression(ring_add(f, g), 5, 2)
            == ring_add(extract_progression(f, 5, 2), extract_progression(g, 5, 2)))


def test_extract_compact():
    ring = ResidueRing(11)
    f = TruncSeries(ring, list(range(10)), 9)
    compact = extract_progression(f, 3, 1, compact=True)
    assert list(compact.coeffs) == [1, 4, 7]
    assert compact.trunc == 2


def test_extract_compact_theta_power_head():
    # The compacted 11-progression of phi^10 mod 11 starts at 1: only the
    # zero vector represents 0 as a sum of ten squares.
    ring = ResidueRing(11)
    tenth = ring_pow(theta_phi(44, ring), 10)
    compact = extract_progression(tenth, 11, 0, compact=True)
    assert compact[0] == 1


def test_extract_validation():
    ring = ResidueRing(11)
    f = one_series(ring, 5)
    with pytest.raises(ValueError):
        extract_progression(f, 2, 2)
    with pytest.raises(ValueError):
        extract_progression(f, 0, 0)


def test_coefficient_access():
    ring = ResidueRing(101)
    phi = theta_phi(10, ring)
    assert coefficient_at(phi, 4) == 2
    assert coefficient_at(phi, 3) == 0
    with pytest.raises(IndexError):
        phi.coefficient_at(11)
    with pytest.raises(IndexError):
        phi.coefficient_at(-1)


def test_scalar_and_sub_helpers():
    ring = ResidueRing(7)
    f = TruncSeries(ring, [1, 2, 3], 2)
    assert list(scalar_mul(3, f).coeffs) == [3, 6, 2]
    assert ring_sub(f, f) == zero_series(ring, 2)


def test_support_hint_lists_exact_nonzeros():
    rng = np.random.default_rng(43)
    ring = ResidueRing(13)
    sparse = random_series(rng, ring, 400, density=0.03)
    assert sparse.support is not None
    assert sparse.support.tolist() == np.flatnonzero(sparse.coeffs).tolist()
    dense = random_series(rng, ring, 400)
    assert dense.support is None
    prod = ring_mul(sparse, sparse)
    if prod.support is not None:
        assert prod.support.tolist() == np.flatnonzero(prod.coeffs).tolist()


def test_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(47)
    f = random_series(rng, ResidueRing(65521), 300)
    path = tmp_path / "series.qser"
    save_series(f, path)
    assert load_series(path) == f
    raw = path.read_bytes()
    assert raw[:4] == b"QSER"
    assert raw[4] == 1
    assert int.from_bytes(raw[5:13], "little") == 65521
    assert int.from_bytes(raw[13:21], "little") == 300
    assert len(raw) == 21 + 4 * 301


def test_cache_rejects_corrupt_headers(tmp_path):
    f = one_series(ResidueRing(7), 3)
    path = tmp_path / "series.qser"
    save_series(f, path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    bad = tmp_path / "bad.qser"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_series(bad)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_series(bad)
    bad.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_series(bad)


def test_cache_load_reads_only_the_requested_prefix(tmp_path):
    rng = np.random.default_rng(53)
    f = random_series(rng, ResidueRing(101), 500)
    path = tmp_path / "series.qser"
    save_series(f, path)
    head = load_series(path, 101, 40)
    assert head.trunc == 40 and list(head.coeffs) == list(f.coeffs[:41])
    assert load_series(path, 101, 10 ** 6) == f
    assert [p.name for p in tmp_path.iterdir()] == ["series.qser"]


def test_cache_rejects_forged_and_foreign_files(tmp_path):
    f = one_series(ResidueRing(7), 3)
    path = tmp_path / "series.qser"
    save_series(f, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.qser"
    with pytest.raises(ValueError, match="modulus 7, not 11"):
        load_series(path, 11)
    # A forged truncation must be refused before any residue is read.
    bad.write_bytes(raw[:13] + (1 << 60).to_bytes(8, "little") + raw[21:])
    with pytest.raises(ValueError, match="exceeds"):
        load_series(bad)
    bad.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        load_series(bad)
    bad.write_bytes(raw[:-4] + (7).to_bytes(4, "little"))
    with pytest.raises(ValueError, match="residue"):
        load_series(bad)
    bad.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_series(bad)


_GROWTH_MODULI = (2, 4, 7, 65521, (1 << 31) - 1)


@st.composite
def _unit_series_and_split(draw):
    m = draw(st.sampled_from(_GROWTH_MODULI))
    # The largest modulus takes the exact Python solver, which is quadratic.
    top = 3 * _SOLVE_BASE + 2 if m < 1 << 20 else _SOLVE_BASE + 2
    trunc = draw(st.integers(0, top))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.sampled_from((0.02, 0.2, 1.0)))
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, m, trunc + 1)
    coeffs[rng.random(trunc + 1) > density] = 0
    coeffs[0] = draw(st.integers(1, m - 1).filter(lambda u: np.gcd(u, m) == 1))
    splits = [0, trunc] + [k * _SOLVE_BASE + e for k in (1, 2, 3) for e in (-1, 0, 1)]
    split = draw(st.sampled_from([s for s in splits if 0 <= s <= trunc]
                                 + [draw(st.integers(0, trunc))]))
    return TruncSeries(ResidueRing(m), coeffs, trunc), split


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_unit_series_and_split())
def test_invert_extends_a_known_prefix(case):
    f, split = case
    short = TruncSeries(f.ring, f.coeffs[:split + 1], split)
    grown = ring_invert(f, known=ring_invert(short).coeffs)
    assert grown == ring_invert(f)
    assert ring_mul(f, grown) == one_series(f.ring, f.trunc)

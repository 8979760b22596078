"""Divisor sums, the hyperbola identity, and the compensated reductions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import (
    DivisorTable,
    DomainError,
    ResourceLimitError,
    divisor_phase_sum_direct,
    divisor_phase_sum_hyperbola,
)
from zetalab import dirichlet
from zetalab.dirichlet import (
    _BLOCK,
    _EXACT_MIN,
    _complex_parts,
    _compensated_cumsum,
    _fsum_complex,
    _fsum_rows,
    _phase_row,
)


@pytest.fixture(scope="module")
def table():
    return DivisorTable(20000)


class TestDivisorSieve:
    def test_known_counts(self, table):
        assert table.d[1] == 1
        assert table.d[6] == 4
        assert table.d[12] == 6
        assert table.d[2**10] == 11

    def test_primes_have_two(self, table):
        for p in (2, 3, 5, 7, 97, 7919):
            assert table.d[p] == 2

    def test_partial_sum_ten(self, table):
        assert int(table.d[1:11].sum()) == 27

    def test_matches_trial_division(self, table):
        def count(n):
            pairs = sum(1 for m in range(1, math.isqrt(n) + 1) if n % m == 0)
            return 2 * pairs - (1 if math.isqrt(n) ** 2 == n else 0)

        for n in range(1, 10001):
            assert table.d[n] == count(n)
        # the sieve stops at sqrt(size): tables ending at or around a square
        for size in (1, 2, 3, 4, 99, 100, 101):
            small = DivisorTable(size)
            assert small.d[0] == 0
            assert [int(v) for v in small.d[1:]] == [count(n) for n in range(1, size + 1)]

    def test_dirichlet_identity(self, table):
        # sum_{n<=u} d(n) = sum_{m<=u} floor(u/m)
        rng = np.random.default_rng(11)
        for u in rng.integers(1, 20001, size=100):
            lhs = int(table.d[1 : u + 1].sum())
            rhs = sum(u // m for m in range(1, u + 1))
            assert lhs == rhs

    def test_bounds(self, table):
        table.require(20000)
        with pytest.raises(DomainError):
            table.require(20001)
        with pytest.raises(DomainError):
            DivisorTable(0)
        with pytest.raises(ResourceLimitError):
            DivisorTable(dirichlet._MAX_TERMS + 1)

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_non_finite_table_size_is_a_domain_error(self, size):
        # refused by _term_count, before math.floor sees it
        with pytest.raises(DomainError, match="divisor table length must be finite"):
            DivisorTable(size)


class TestDivisorPhaseSums:
    def test_direct_t_zero(self, table):
        assert divisor_phase_sum_direct(10, 0.0, table) == pytest.approx(27 + 0j)

    def test_direct_single(self, table):
        assert divisor_phase_sum_direct(1, 3.7, table) == pytest.approx(1 + 0j)

    def test_direct_empty(self, table):
        assert divisor_phase_sum_direct(0, 1.0, table) == 0

    def test_hyperbola_hand_values(self):
        assert divisor_phase_sum_hyperbola(10, 0.0) == pytest.approx(27 + 0j)
        assert divisor_phase_sum_hyperbola(1, 9.9) == pytest.approx(1 + 0j)
        assert divisor_phase_sum_hyperbola(0, 1.0) == 0

    def test_hyperbola_matches_direct(self, table):
        for u in (100, 1000, 10000):
            for t in (0.0, 1.3, 17.77, 123.456):
                direct = divisor_phase_sum_direct(u, t, table)
                hyper = divisor_phase_sum_hyperbola(u, t)
                assert abs(hyper - direct) <= 1e-9 * (1 + abs(direct))

    def test_hyperbola_large_u(self):
        # identity is exact over the integers; only rounding noise remains
        u = 10**6
        t = 13.7
        table = DivisorTable(u)
        direct = divisor_phase_sum_direct(u, t, table)
        hyper = divisor_phase_sum_hyperbola(u, t)
        assert abs(hyper - direct) <= 1e-9 * (1 + abs(direct))


    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_u_is_a_domain_error(self, table, u):
        with pytest.raises(DomainError):
            divisor_phase_sum_direct(u, 1.3, table)
        with pytest.raises(DomainError):
            divisor_phase_sum_hyperbola(u, 1.3)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_t_is_a_domain_error(self, table, t):
        with pytest.raises(DomainError, match="t must be finite"):
            divisor_phase_sum_direct(100, t, table)
        with pytest.raises(DomainError, match="t must be finite"):
            divisor_phase_sum_hyperbola(100, t)

    def test_both_routes_return_complex(self, table):
        for u in (0, 1, 10, 1000):
            assert type(divisor_phase_sum_direct(u, 1.3, table)) is complex
            assert type(divisor_phase_sum_hyperbola(u, 1.3)) is complex


class TestTermCap:
    """Every route to an exact divisor series refuses more than _MAX_TERMS
    terms before it allocates; a small cap keeps both sides cheap."""

    CAP = 1000

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(dirichlet, "_MAX_TERMS", self.CAP)

    def test_table(self):
        assert DivisorTable(self.CAP).max_n == self.CAP
        with pytest.raises(ResourceLimitError, match="divisor table"):
            DivisorTable(self.CAP + 1)

    def test_routes_refuse_before_the_phase_row(self, monkeypatch):
        table = DivisorTable(self.CAP)
        assert divisor_phase_sum_direct(self.CAP, 1.3, table) == pytest.approx(
            divisor_phase_sum_hyperbola(self.CAP, 1.3), rel=1e-12
        )

        def no_row(*args):
            raise AssertionError("a phase row was allocated")

        monkeypatch.setattr(dirichlet, "_phase_row", no_row)
        with pytest.raises(ResourceLimitError):
            divisor_phase_sum_direct(self.CAP + 1, 1.3, table)
        with pytest.raises(ResourceLimitError):
            divisor_phase_sum_hyperbola(self.CAP + 1, 1.3)

    def test_cached_row_grows_no_further_than_the_cap(self):
        _evict_phase_row()
        _phase_row(4.2, 600)
        _phase_row(4.2, 700)  # would double to 1200
        assert dirichlet._phase_cache[1].size == self.CAP


class TestCompensatedCumsum:
    @pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("t", [0.0, 1.3, 17.77])
    def test_block_ends_match_fsum(self, size, t):
        n = np.arange(1, size + 1, dtype=np.float64)
        terms = np.exp(1j * t * np.log(n))
        got = _compensated_cumsum(terms)
        eps = np.finfo(np.float64).eps
        for k in list(range(_BLOCK, size + 1, _BLOCK)) + [size]:
            lo = (k - 1) // _BLOCK * _BLOCK
            # recursive summation in one block (Higham, Accuracy and
            # Stability of Numerical Algorithms, sec. 4.2), plus 2 ulp of
            # the running value for the rounded carry
            in_block = (_BLOCK - 1) * eps * float(np.abs(terms[lo:k]).sum())
            want_re = math.fsum(terms[:k].real.tolist())
            want_im = math.fsum(terms[:k].imag.tolist())
            assert abs(got[k - 1].real - want_re) <= in_block + 2 * math.ulp(want_re)
            assert abs(got[k - 1].imag - want_im) <= in_block + 2 * math.ulp(want_im)


def _fsum_reference(z: np.ndarray):
    """complex(fsum(real), fsum(imag)) as repr, or the exception fsum raises."""
    try:
        return repr(complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist())))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _fsum_complex_outcome(z: np.ndarray):
    try:
        return repr(_fsum_complex(z))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


# both sides of the crossover, a block, and past one block
SIZES = [1, 7, _EXACT_MIN - 1, _EXACT_MIN, _EXACT_MIN + 1, 1000, 4097, _BLOCK, 20011]


class TestExactSum:
    """_fsum_complex is fsum on each part, bit for bit, exceptions included."""

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.sampled_from(SIZES),
        low=st.integers(-300, 300),
        span=st.integers(0, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exponents_from_1e_minus_300_to_1e300(self, size, low, span, seed):
        rng = np.random.default_rng(seed)
        high = min(low + span, 300)
        parts = [
            rng.uniform(-1, 1, size) * 10.0 ** rng.uniform(low, high, size) for _ in range(2)
        ]
        z = parts[0] + 1j * parts[1]
        assert _fsum_complex_outcome(z) == _fsum_reference(z)

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1))
    def test_same_sign_terms_near_the_peak(self, size, seed):
        # the partial sums grow to size * max|x|, the worst case for the split
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.5, 1.0, size) - 1j * rng.uniform(0.5, 1.0, size)
        assert _fsum_complex_outcome(z) == _fsum_reference(z)

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from(SIZES),
        normal_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_subnormals(self, size, normal_share, seed):
        rng = np.random.default_rng(seed)
        tiny = rng.integers(-(2**52), 2**52, size) * 5e-324
        normal = rng.uniform(-1, 1, size) * 2.0**-1000
        z = np.where(rng.random(size) < normal_share, normal, tiny) + 1j * tiny[::-1]
        assert _fsum_complex_outcome(z) == _fsum_reference(z)

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from(SIZES),
        scale=st.integers(-200, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_heavy_cancellation(self, size, scale, seed):
        rng = np.random.default_rng(seed)
        big = rng.uniform(-1, 1, size) * 10.0**scale
        small = rng.uniform(-1, 1, 3) * 10.0 ** (scale - 30)
        re = np.concatenate([big, small, -big[::-1]])
        z = re + 1j * np.roll(re, 1)
        assert _fsum_complex_outcome(z) == _fsum_reference(z)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.sampled_from(SIZES[1:]),
        base_exp=st.integers(-900, 800),
        odd=st.booleans(),
        nudge=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_half_even_ties(self, size, base_exp, odd, nudge, seed):
        # base + half an ulp of base, split over many terms, sits exactly
        # between two doubles; a nudge of one tiny term breaks the tie
        rng = np.random.default_rng(seed)
        base = math.ldexp(1.0 + odd * 2.0**-52, base_exp)
        half_ulp = math.ulp(base) / 2
        pieces = rng.integers(1, 1000, size - 1).astype(np.float64)
        pieces *= half_ulp / pieces.sum()  # not exact in general: rebuild below
        pieces = np.floor(pieces / 2.0 ** (base_exp - 100)) * 2.0 ** (base_exp - 100)
        pieces[-1] += half_ulp - math.fsum(pieces.tolist())
        pieces[-1] += nudge * 2.0 ** (base_exp - 100)
        re = rng.permutation(np.concatenate([[base], pieces]))
        z = re - 1j * re
        assert _fsum_complex_outcome(z) == _fsum_reference(z)

    @pytest.mark.parametrize("size", SIZES)
    def test_zeros_and_signed_zeros(self, size):
        zero = np.zeros(size)
        for z in (
            zero + 0j,
            -zero - 0j,
            np.where(np.arange(size) % 2 == 0, 0.0, -0.0) * (1 - 1j),
            np.ones(size) - 0j * zero,  # real ones, imag all -0.0
            np.ones(size) * complex(1.0, -0.0),
        ):
            assert _fsum_complex_outcome(z) == _fsum_reference(z)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize(
        "special",
        [
            (math.nan, 0.0),
            (math.inf, 0.0),
            (-math.inf, 1.0),
            (0.0, math.inf),
            (math.inf, -math.inf),
            (1e308, 1e308),  # intermediate overflow
            (2.0**950, -(2.0**950)),  # huge but finite, cancels
        ],
    )
    def test_nan_inf_and_overflow(self, size, special):
        rng = np.random.default_rng(size)
        z = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
        z[rng.integers(0, size)] = complex(*special)
        z[-1] = complex(special[1], special[0])
        assert _fsum_complex_outcome(z) == _fsum_reference(z)

    @pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_cumsum_carries_match_fsum_of_block_fsums(self, size):
        # the carry rule of the loop that fsums every block in turn
        rng = np.random.default_rng(size)
        terms = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size) + 1j
        want = np.empty(size, dtype=np.complex128)
        block_re: list[float] = []
        block_im: list[float] = []
        for lo in range(0, size, _BLOCK):
            seg = terms[lo : lo + _BLOCK]
            carry = complex(math.fsum(block_re), math.fsum(block_im))
            want[lo : lo + _BLOCK] = np.cumsum(seg) + carry
            block_re.append(math.fsum(seg.real.tolist()))
            block_im.append(math.fsum(seg.imag.tolist()))
        got = _compensated_cumsum(terms)
        assert got.tobytes() == want.tobytes()


def _evict_phase_row():
    _phase_row(-12345.678, 1)


class TestPhaseRowCache:
    US = [1, 2, 3, 100, 511, 512, 513, 8191, 8192, 8193, 9000, 16384, 16385, 20000]

    @pytest.mark.parametrize("t", [0.0, -0.0, 1.3, 123.456])
    def test_cold_and_warm_agree(self, t, table):
        def values(u):
            return (
                repr(divisor_phase_sum_direct(u, t, table)),
                repr(divisor_phase_sum_hyperbola(u, t)),
            )

        cold = {}
        for u in self.US:
            _evict_phase_row()
            cold[u] = values(u)
        for order in (self.US, self.US[::-1]):
            _evict_phase_row()
            warm = {u: values(u) for u in order}
            assert warm == cold

    def test_row_matches_a_cold_computation(self):
        for t in (0.0, 17.77):
            _evict_phase_row()
            for m in (1, 5000, 8193, 20000, 300):
                row, prefix = _phase_row(t, m)
                n = np.arange(1, m + 1, dtype=np.float64)
                cold = np.exp(1j * t * np.log(n))
                assert row.tobytes() == cold.tobytes()
                assert prefix.tobytes() == _compensated_cumsum(cold).tobytes()

    def test_growth_is_geometric(self):
        _evict_phase_row()
        for m in range(1, 1001):
            _phase_row(2.5, m)
        assert dirichlet._phase_cache[1].size == 1024

    def test_a_long_row_is_not_kept(self):
        # row and prefix hold 32 B a term, 128 MiB at u = 2^22; none of it
        # may outlive the call
        _evict_phase_row()
        tracemalloc.start()
        try:
            divisor_phase_sum_hyperbola(2**22, 13.7)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 8 * 2**20

    def test_signed_zero_t_are_distinct(self):
        # the entry is keyed on the bits of t, so 0.0 and -0.0 never share one
        n = np.arange(1, 51, dtype=np.float64)
        keys = []
        for t in (0.0, -0.0, 0.0):
            row, _ = _phase_row(t, 50)
            keys.append(dirichlet._phase_cache[0])
            assert row.tobytes() == np.exp(1j * t * np.log(n)).tobytes()
        assert keys[0] != keys[1] and keys[0] == keys[2]

    def test_views_are_read_only(self):
        row, prefix = _phase_row(3.0, 100)
        for view in (row, prefix):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0


def _mixed_rows(k: int, seed: int) -> np.ndarray:
    """Complex rows of length k, each of a different kind: wide exponents,
    zero padding, zero totals of either sign, cancellation, subnormals,
    and the non-finite and huge parts that go to fsum."""
    rng = np.random.default_rng(seed)
    wide = rng.uniform(-1, 1, k) * 10.0 ** rng.uniform(-300, 300, k)
    padded = np.where(np.arange(k) < k // 3, rng.uniform(0.5, 1.0, k), 0.0)
    big = rng.uniform(-1, 1, k // 2) * 1e40
    cancel = np.resize(np.concatenate([big, [3e-7], -big[::-1]]), k)
    tiny = rng.integers(-(2**52), 2**52, k) * 5e-324
    special = rng.uniform(-1, 1, (3, k))
    special[0, k // 2] = math.nan
    special[1, 1] = -math.inf
    special[2, [0, -1]] = 2.0**950, -(2.0**950)
    z = np.empty((9, k), dtype=np.complex128)
    z.real = np.vstack([wide, padded, np.zeros(k), -np.zeros(k), cancel, tiny, special])
    z.imag = np.roll(z.real, 1, axis=0)
    return z


class TestExactRowSums:
    """_fsum_rows sums each row as fsum does, whatever the other rows hold."""

    @pytest.mark.parametrize("k", [3, 20, _EXACT_MIN + 1, 3000])
    def test_each_row_is_fsum_of_the_row(self, k):
        z = _mixed_rows(k, seed=k)
        got = _fsum_rows(_complex_parts(z))
        assert [repr(complex(re, im)) for re, im in got] == [_fsum_reference(row) for row in z]

    def test_a_row_does_not_depend_on_its_neighbours(self):
        z = _mixed_rows(1000, seed=3)
        alone = [_fsum_rows(_complex_parts(row[None]))[0].tobytes() for row in z]
        together = _fsum_rows(_complex_parts(z))
        assert [row.tobytes() for row in together] == alone

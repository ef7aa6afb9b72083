import json
import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from moyalmetric import BadDimension, DimensionMismatch, finite
from moyalmetric.cli import MAX_PAIRS, _finite_checks, main
from moyalmetric.finite import (MAX_BASIS_DIMENSION, DiscreteSymbol, basis_words, clock,
                                clock_powers, discrete_dagger, discrete_star, from_symbol,
                                phase_angle, shift, to_symbol)

TOL = 1e-9
DIMS = (2, 3, 5, 8)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestClockShift:
    def test_frozen_small_matrices(self):
        assert np.allclose(clock(2), np.diag([1.0, -1.0]), atol=1e-15)
        assert np.allclose(shift(2), np.array([[0, 1], [1, 0]]), atol=1e-15)
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(clock(3), np.diag([1.0, w, w ** 2]), atol=1e-14)

    def test_shift_permutes_upward(self):
        h = shift(4)
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert np.allclose(h @ e0, [0, 1, 0, 0])

    def test_bad_dimensions(self):
        for n in (1, 0, -3, 257):
            with pytest.raises(BadDimension):
                clock(n)
            with pytest.raises(BadDimension):
                shift(n)

    @pytest.mark.parametrize("n", DIMS)
    def test_weyl_relation(self, n):
        g, h = clock(n), shift(n)
        phi = phase_angle(n)
        assert np.max(np.abs(g @ h - np.exp(1j * phi) * h @ g)) < 1e-12

    @pytest.mark.parametrize("n", DIMS)
    def test_unitarity_and_periods(self, n):
        g, h = clock(n), shift(n)
        eye = np.eye(n)
        assert np.max(np.abs(g @ g.conj().T - eye)) < TOL
        assert np.max(np.abs(h @ h.conj().T - eye)) < TOL
        assert np.max(np.abs(np.linalg.matrix_power(g, n) - eye)) < TOL
        assert np.max(np.abs(np.linalg.matrix_power(h, n) - eye)) < TOL

    @pytest.mark.parametrize("n", DIMS)
    def test_trace_of_gh_vanishes(self, n):
        assert abs(np.trace(clock(n) @ shift(n))) < TOL

    @pytest.mark.parametrize("n", DIMS)
    def test_trace_orthogonality(self, n):
        words = basis_words(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        expected = n if (a, b) == (c, d) else 0.0
                        assert abs(np.vdot(words[a, b], words[c, d]) - expected) < TOL


class TestSymbolMaps:
    def test_identity_symbol(self):
        s = to_symbol(np.eye(3))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.max(np.abs(s.coeffs - expected)) < TOL

    def test_clock_symbol(self):
        s = to_symbol(clock(4))
        assert abs(s.coeffs[1, 0] - 1.0) < TOL
        assert np.sum(np.abs(s.coeffs) > TOL) == 1

    def test_shift_from_symbol(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 1] = 1.0
        assert np.max(np.abs(from_symbol(DiscreteSymbol(coeffs)) - shift(3))) < TOL

    def test_zero_round_trip(self):
        assert np.max(np.abs(from_symbol(DiscreteSymbol(np.zeros((3, 3)))))) == 0.0

    @pytest.mark.parametrize("n", DIMS)
    def test_round_trip_random(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            A = random_matrix(rng, n)
            assert np.max(np.abs(from_symbol(to_symbol(A)) - A)) < TOL

    def test_hermitian_coefficients_give_hermitian_matrix(self):
        rng = np.random.default_rng(12)
        A = random_matrix(rng, 3)
        H = A + A.conj().T
        rebuilt = from_symbol(to_symbol(H))
        assert np.max(np.abs(rebuilt - rebuilt.conj().T)) < TOL


class TestDiscreteStar:
    def test_basis_product_without_phase(self):
        n = 5
        g, h = clock(n), shift(n)
        lhs = discrete_star(to_symbol(g), to_symbol(h))
        assert np.max(np.abs(lhs.coeffs - to_symbol(g @ h).coeffs)) < TOL

    def test_reversed_product_picks_up_phase(self):
        n = 5
        g, h = clock(n), shift(n)
        lhs = discrete_star(to_symbol(h), to_symbol(g))
        rhs = np.exp(-1j * phase_angle(n)) * to_symbol(g @ h).coeffs
        assert np.max(np.abs(lhs.coeffs - rhs)) < TOL

    @pytest.mark.parametrize("n", DIMS)
    def test_matrix_product_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            A, B = random_matrix(rng, n), random_matrix(rng, n)
            lhs = discrete_star(to_symbol(A), to_symbol(B))
            assert np.max(np.abs(lhs.coeffs - to_symbol(A @ B).coeffs)) < TOL

    def test_associativity(self):
        n = 4
        rng = np.random.default_rng(77)
        for _ in range(10):
            a, b, c = (to_symbol(random_matrix(rng, n)) for _ in range(3))
            lhs = discrete_star(discrete_star(a, b), c)
            rhs = discrete_star(a, discrete_star(b, c))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < TOL

    def test_dimension_mismatch(self):
        for left in (np.eye(2), np.zeros((2, 2, 2))):  # one operator, or a stack of two
            with pytest.raises(DimensionMismatch, match="^dimension mismatch: 2 vs 3$"):
                discrete_star(to_symbol(left), to_symbol(np.eye(3)))


class TestDiscreteDagger:
    def test_clock_dagger(self):
        n = 5
        s = discrete_dagger(to_symbol(clock(n)))
        assert abs(s.coeffs[n - 1, 0] - 1.0) < TOL
        assert np.sum(np.abs(s.coeffs) > TOL) == 1

    def test_hermitian_fixed_point(self):
        rng = np.random.default_rng(8)
        A = random_matrix(rng, 4)
        H = A + A.conj().T
        s = to_symbol(H)
        assert np.max(np.abs(discrete_dagger(s).coeffs - s.coeffs)) < TOL

    def test_non_hermitian_moves(self):
        rng = np.random.default_rng(9)
        A = random_matrix(rng, 4)
        A[0, 1] += 1.0  # ensure asymmetry
        s = to_symbol(A)
        assert np.max(np.abs(discrete_dagger(s).coeffs - s.coeffs)) > 1e-6

    @pytest.mark.parametrize("n", DIMS)
    def test_conjugate_transpose_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            A = random_matrix(rng, n)
            lhs = discrete_dagger(to_symbol(A))
            assert np.max(np.abs(lhs.coeffs - to_symbol(A.conj().T).coeffs)) < TOL

    def test_shared_phase_table_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            finite._tables(5).dft[0, 0] = 0

    @pytest.mark.parametrize("n", [5, 160])  # 160: a 400 KB phase table
    def test_bit_identical_to_the_inline_phase_table(self, n):
        a = random_matrix(np.random.default_rng(n), n)
        idx = (-np.arange(n)) % n
        k = np.arange(n)
        phases = np.conj(np.exp(2j * np.pi * (np.outer(k, k) % n) / n))
        expected = np.conj(a)[np.ix_(idx, idx)] * phases
        assert np.array_equal(discrete_dagger(DiscreteSymbol(a)).coeffs, expected)

    def test_involution(self):
        rng = np.random.default_rng(13)
        s = to_symbol(random_matrix(rng, 5))
        twice = discrete_dagger(discrete_dagger(s))
        assert np.max(np.abs(twice.coeffs - s.coeffs)) < TOL


def fourier_values(s: DiscreteSymbol) -> np.ndarray:
    """[k, l]: the symbol's value sum a[n, m] exp(2*pi*i*(n*k + m*l)/N) on the Fourier grid."""
    return s.n ** 2 * np.fft.ifft2(s.coeffs)


class TestEvaluate:
    def test_identity_everywhere_one(self):
        s = to_symbol(np.eye(4))
        assert np.max(np.abs(fourier_values(s) - 1.0)) < TOL

    def test_clock_value(self):
        n = 6
        s = to_symbol(clock(n))
        assert abs(fourier_values(s)[1, 0] - np.exp(2j * np.pi / n)) < TOL

    def test_parseval(self):
        n = 5
        rng = np.random.default_rng(21)
        s = to_symbol(random_matrix(rng, n))
        grid = np.sum(np.abs(fourier_values(s)) ** 2)
        assert abs(grid / n ** 2 - np.sum(np.abs(s.coeffs) ** 2)) < TOL


class TestBasisBudget:
    def test_basis_past_the_budget_is_refused(self):
        n = 65
        cached = basis_words.cache_info().currsize
        with pytest.raises(BadDimension, match=f"at most {MAX_BASIS_DIMENSION}, got 65"):
            basis_words(n)
        with pytest.raises(BadDimension, match=f"at most {MAX_BASIS_DIMENSION}, got 65"):
            from_symbol(DiscreteSymbol(np.eye(n)))
        assert basis_words.cache_info().currsize == cached

    def test_cached_dimension_does_not_admit_an_equal_non_int(self):
        basis_words(4)
        for n in (4.0, np.int64(4)):
            with pytest.raises(BadDimension):
                basis_words(n)

    def test_orthogonality_check_allocates_no_n4_temporary(self):
        n = 24
        _finite_checks(n, 2, 0)  # caches the basis tensor
        tracemalloc.start()
        try:
            _finite_checks(n, 2, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * n ** 3

    def test_cache_evicts_the_least_recently_used_past_its_byte_budget(self, monkeypatch):
        basis_words.cache_clear()
        monkeypatch.setattr(finite, "BASIS_CACHE_BYTES", 16 * (4 ** 4 + 7 ** 4))
        for n in (4, 5, 6):
            basis_words(n)
        four = basis_words(4)  # now the most recently used
        with pytest.raises(ValueError, match="read-only"):  # shared by every caller
            four[0, 0, 0, 0] = 0
        assert basis_words.cache_info() == (3, 16 * (4 ** 4 + 5 ** 4 + 6 ** 4))
        basis_words(7)  # 16*7^4 bytes: 5 and then 6 go, oldest first
        assert basis_words.cache_info() == (2, 16 * (4 ** 4 + 7 ** 4))
        assert basis_words(4) is four
        basis_words(5)  # evicts 7, the least recently used
        assert basis_words.cache_info() == (2, 16 * (4 ** 4 + 5 ** 4))
        assert basis_words(4) is four
        monkeypatch.setattr(finite, "BASIS_CACHE_BYTES", 0)
        fresh = basis_words(8)  # past the budget alone: built, kept and the others evicted
        assert basis_words.cache_info() == (1, 16 * 8 ** 4)
        assert basis_words(8) is fresh
        assert np.array_equal(basis_words(4), four) and basis_words(4) is not four
        basis_words.cache_clear()
        assert basis_words.cache_info() == (0, 0)

    def test_cache_keeps_every_finite_weyl_dimension(self):
        dims = (*range(4, 15), 16, 18, 20, 22, 24)  # the benchmark's finite-weyl N
        basis_words.cache_clear()
        built = {n: basis_words(n) for n in dims}
        assert all(basis_words(n) is built[n] for n in dims)
        assert basis_words.cache_info() == (len(dims), sum(16 * n ** 4 for n in dims))
        basis_words.cache_clear()

    def test_basis_free_maps_keep_the_dimension_limit(self):
        n = 65
        g, h = clock(n), shift(n)
        assert abs(np.trace(g @ h)) < TOL
        s = DiscreteSymbol(np.eye(n))
        assert discrete_star(s, s).n == n
        assert discrete_dagger(s).n == n
        assert to_symbol(np.eye(n)).n == n
        with pytest.raises(BadDimension, match=r"an integer in \[2, 256\], got 257"):
            to_symbol(np.eye(257))


# The loop kernels the whole-array ones replaced, kept as oracles.

def tensor_to_symbol(operator: np.ndarray) -> DiscreteSymbol:
    """The matvec against the basis tensor that the DFT to_symbol replaced, verbatim."""
    arr = np.asarray(operator, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise BadDimension("operator must be a square matrix")
    n = arr.shape[0]
    finite._check_dim(n)
    flat = basis_words(n).reshape(n * n, n * n)  # a view: row n*a + b is U(a, b)
    return DiscreteSymbol(np.conj(flat @ np.conj(arr.ravel())).reshape(n, n) / n)


def loop_to_symbol(operator):
    arr = np.asarray(operator, dtype=complex)
    n = arr.shape[0]
    words = basis_words(n)
    coeffs = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            coeffs[a, b] = np.vdot(words[a, b], arr) / n
    return DiscreteSymbol(coeffs)


def loop_discrete_star(s1, s2):
    n = s1.n
    phi = 2.0 * np.pi / n
    phases = np.exp(-1j * phi * np.outer(np.arange(n), np.arange(n)))  # [m, n']
    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            c = s1.coeffs[a, b]
            if c == 0:
                continue
            out += c * np.roll(phases[b][:, None] * s2.coeffs, (a, b), axis=(0, 1))
    return DiscreteSymbol(out)


def shift_loop_discrete_star(s1, s2):
    """The per-shift kernel the batched discrete_star replaced, verbatim."""
    if s1.n != s2.n:
        raise DimensionMismatch(f"dimension mismatch: {s1.n} vs {s2.n}")
    n = s1.n
    phases = np.conj(finite.clock_powers(n))  # [m, n']
    shifts = (np.arange(n)[:, None] - np.arange(n)) % n  # [c, n'] -> (c - n') mod N
    out = np.zeros((n, n), dtype=complex)
    for m in range(n):  # out[c, d] += sum_n' a[c-n', m] phase[m, n'] b[n', d-m]
        out += s1.coeffs[shifts, m] @ (phases[m][:, None] * s2.coeffs[:, shifts[:, m]])
    return DiscreteSymbol(out)


def block_loop_trace_orthogonality(n):
    """The per-block Gram pass of finite-demo before its batched path, verbatim."""
    flat = finite.basis_words(n).reshape(n * n, n * n)
    block_devs = np.empty(n)
    for b in range(n):
        block, own = flat[b::n], np.arange(b, n * n, n)
        cols = block.any(axis=0)
        partners = flat[:, cols]
        hit = partners.any(axis=1)
        hit[own] = True
        rows = np.flatnonzero(hit)
        gram = np.conj(block[:, cols]) @ partners[rows].T - n * (rows == own[:, None])
        block_devs[b] = np.abs(gram).max()
    return float(np.max(block_devs))


def loop_trace_orthogonality(n):
    words = finite.basis_words(n)
    dev = 0.0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    expected = n if (a, b) == (c, d) else 0.0
                    dev = max(dev, abs(np.vdot(words[a, b], words[c, d]) - expected))
    return float(dev)



def pair_loop_finite_checks(n: int, pairs: int, seed: int) -> dict[str, float]:
    """finite-demo's checks as they ran one random pair per loop pass, verbatim."""
    if pairs > MAX_PAIRS:
        raise ValueError(f"--pairs {pairs} exceeds the limit of {MAX_PAIRS}")
    import numpy as np

    from moyalmetric import finite

    rng = np.random.default_rng(seed)
    g, h = finite.clock(n), finite.shift(n)
    phi = finite.phase_angle(n)
    eye = np.eye(n)
    checks: dict[str, float] = {}
    checks["gh_phase"] = float(np.max(np.abs(g @ h - np.exp(1j * phi) * h @ g)))
    checks["g_power_n"] = float(np.max(np.abs(np.linalg.matrix_power(g, n) - eye)))
    checks["h_power_n"] = float(np.max(np.abs(np.linalg.matrix_power(h, n) - eye)))
    checks["trace_gh"] = float(abs(np.trace(g @ h)))

    # Gram matrix tr(U_i^dag U_j) = N * delta_ij of the words g^a h^b: words of different
    # shifts b have disjoint supports, and those of one shift meet where their clock
    # diagonals do, so every block is the Gram matrix of the table's rows.
    table = finite.clock_powers(n)  # [a, i]: the diagonal of g^a
    checks["trace_orthogonality"] = float(np.abs(np.conj(table) @ table.T - n * eye).max())

    devs = np.empty((pairs, 3))  # round trip, star, dagger per pair
    for k in range(pairs):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sa, sb = finite.to_symbol(A), finite.to_symbol(B)
        devs[k, 0] = np.max(np.abs(finite.from_symbol(sa) - A))
        prod = finite.discrete_star(sa, sb)
        devs[k, 1] = np.max(np.abs(prod.coeffs - finite.to_symbol(A @ B).coeffs))
        dag = finite.discrete_dagger(sa)
        devs[k, 2] = np.max(np.abs(dag.coeffs - finite.to_symbol(A.conj().T).coeffs))
    checks["round_trip"], checks["star_isomorphism"], checks["dagger_transpose"] = (
        float(dev) for dev in np.max(devs, axis=0))
    return checks

ORACLE_TOL = 1e-12
ORACLE_DIMS = (2, 3, 5, 8, 13)


def sparse_coeffs(rng, n):
    """Random coefficients with about half of them exactly zero."""
    return random_matrix(rng, n) * (rng.random((n, n)) < 0.5)


def oracle_symbols(rng, n):
    single = np.zeros((n, n), dtype=complex)
    single[n - 1, 1 % n] = 2.0 - 1.0j
    yield DiscreteSymbol(np.zeros((n, n)))
    yield DiscreteSymbol(single)
    yield to_symbol(clock(n))
    yield to_symbol(shift(n))
    for _ in range(4):
        yield DiscreteSymbol(sparse_coeffs(rng, n))
        yield to_symbol(random_matrix(rng, n))


def oracle_operators(rng, n):
    """Operators of oracle_symbols' kinds: zero, clock, shift, one word, sparse and random."""
    single = np.zeros((n, n), dtype=complex)
    single[n - 1, 1 % n] = 2.0 - 1.0j
    yield np.zeros((n, n))
    yield clock(n)
    yield shift(n)
    yield from_symbol(DiscreteSymbol(single))
    for _ in range(4):
        yield from_symbol(DiscreteSymbol(sparse_coeffs(rng, n)))
        yield random_matrix(rng, n)
    yield random_matrix(rng, n).T  # a non-contiguous array


class TestDiagonalDFT:
    """to_symbol's DFT of the wrapped diagonals against the basis-tensor matvec and the
    vdot loop, and the round trip that compares it with the words."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_to_symbol_matches_the_tensor_and_the_vdot_loop(self, n):
        rng = np.random.default_rng(700 + n)
        for op in oracle_operators(rng, n):
            dft = to_symbol(op).coeffs
            assert np.max(np.abs(dft - tensor_to_symbol(op).coeffs)) < ORACLE_TOL
            assert np.max(np.abs(dft - loop_to_symbol(op).coeffs)) < ORACLE_TOL

    @pytest.mark.parametrize("n", [65, 128, 256])  # past the basis tensor
    def test_a_word_has_its_unit_coefficient(self, n):
        g, h = clock(n), shift(n)
        for a, b in ((0, 0), (1, 0), (0, 1), (3, n - 2), (n - 1, n // 2)):
            word = np.linalg.matrix_power(g, a) @ np.linalg.matrix_power(h, b)
            expected = np.zeros((n, n))
            expected[a, b] = 1.0
            assert np.max(np.abs(to_symbol(word).coeffs - expected)) < ORACLE_TOL

    def test_shared_diagonal_index_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            finite._tables(5).diagonals[0, 0] = 0

    def test_round_trip_sees_words_of_the_other_ordering(self, monkeypatch):
        # h^b g^a is a phase times g^a h^b: unitary and trace-orthogonal, so only the
        # round trip, which rebuilds the operator from the words, tells the two apart.
        n = 5
        g, h = clock(n), shift(n)
        power = np.linalg.matrix_power
        swapped = np.array([[power(h, b) @ power(g, a) for b in range(n)] for a in range(n)])
        monkeypatch.setattr(finite, "basis_words", lambda _n: swapped)
        checks = _finite_checks(n, 2, 0)
        assert checks["trace_orthogonality"] < TOL
        assert checks["round_trip"] > 1
        assert checks["star_isomorphism"] < TOL and checks["dagger_transpose"] < TOL


class TestLoopOracles:
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_to_symbol_matches_vdot_loop(self, n):
        rng = np.random.default_rng(300 + n)
        operators = [np.eye(n), clock(n), shift(n), np.zeros((n, n))]
        operators += [from_symbol(DiscreteSymbol(sparse_coeffs(rng, n))) for _ in range(4)]
        operators += [random_matrix(rng, n) for _ in range(4)]
        for op in operators:
            dev = np.max(np.abs(to_symbol(op).coeffs - loop_to_symbol(op).coeffs))
            assert dev < ORACLE_TOL

    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_discrete_star_matches_roll_loop(self, n):
        rng = np.random.default_rng(400 + n)
        symbols = list(oracle_symbols(rng, n))
        for left in symbols:
            for right in symbols[::3]:
                dev = np.max(np.abs(discrete_star(left, right).coeffs
                                    - loop_discrete_star(left, right).coeffs))
                assert dev < ORACLE_TOL

    @pytest.mark.parametrize("n", ORACLE_DIMS)
    def test_orthogonality_check_matches_vdot_loop(self, n, monkeypatch, capsys):
        checked = _finite_checks(n, pairs=1, seed=0)["trace_orthogonality"]
        assert abs(checked - loop_trace_orthogonality(n)) < ORACLE_TOL
        # A broken basis: one word rescaled, another nudged off orthogonality.  The Gram
        # check and the DFT to_symbol read the clock table, but from_symbol's word sum
        # reads the tensor, so finite-demo fails through the round trip alone.
        words = basis_words(n).copy()
        words[1, 0] *= 1.5
        words[n - 1, 1, 0, 0] += 0.3j
        monkeypatch.setattr(finite, "basis_words", lambda _n: words)
        assert loop_trace_orthogonality(n) > 1.0
        assert main(["finite-demo", "--n", str(n), "--pairs", "1", "--seed", "0",
                     "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"]["trace_orthogonality"] == checked
        assert [name for name, dev in doc["checks"].items() if not dev < TOL] == ["round_trip"]

    @given(st.data())
    def test_orthogonality_check_matches_vdot_loop_on_perturbed_bases(self, data):
        n = data.draw(st.integers(2, 8))
        kind = data.draw(st.sampled_from(("scale", "off_support", "zero", "nan")))
        a, b, i = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        on_support = (i - b) % n  # shift^b has its one entry of row i there
        value = data.draw(st.complex_numbers(max_magnitude=4))
        words = basis_words(n).copy()
        if kind == "scale":
            words[a, b, i, on_support] *= value
        elif kind == "off_support":
            words[a, b, i, (on_support + data.draw(st.integers(1, n - 1))) % n] = value
        elif kind == "zero":
            words[a, b] = 0
        else:
            words[a, b, i, data.draw(st.integers(0, n - 1))] = np.nan
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(finite, "basis_words", lambda _n: words)
            checked = block_loop_trace_orthogonality(n)
            if kind == "nan":
                assert math.isnan(checked)
            else:
                assert abs(checked - loop_trace_orthogonality(n)) < ORACLE_TOL
            round_trip = _finite_checks(n, pairs=1, seed=0)["round_trip"]
        # one entry moves by `change` (a whole word for "zero"); every coefficient of the
        # round trip's seed-0 operator is at least 0.02 in magnitude for N <= 8
        change = {"scale": abs(value - 1), "off_support": abs(value), "zero": 1.0,
                  "nan": math.inf}[kind]
        if change > 1e-6:
            assert not round_trip < TOL


class TestBatchedKernels:
    """The batched discrete_star and Gram check give the per-shift and per-block
    loops' arrays bit for bit."""

    @pytest.mark.parametrize("n", [*range(2, 65), 128, 256])
    def test_discrete_star_is_bitwise_the_shift_loop(self, n):
        rng = np.random.default_rng(500 + n)
        left, right = (DiscreteSymbol(random_matrix(rng, n)) for _ in range(2))
        assert (discrete_star(left, right).coeffs.tobytes()
                == shift_loop_discrete_star(left, right).coeffs.tobytes())

    @pytest.mark.parametrize("entries", [1, 2 * 13 ** 2, 5 * 13 ** 2, 13 ** 3])
    def test_discrete_star_is_bitwise_the_shift_loop_for_any_batch(self, entries, monkeypatch):
        monkeypatch.setattr(finite, "BATCH_ENTRIES", entries)  # 13, 7, 3 and 1 batches
        rng = np.random.default_rng(600)
        symbols = list(oracle_symbols(rng, 13))
        symbols.append(DiscreteSymbol(random_matrix(rng, 13).T))  # a non-contiguous array
        for left in symbols:
            for right in symbols[::3]:
                assert (discrete_star(left, right).coeffs.tobytes()
                        == shift_loop_discrete_star(left, right).coeffs.tobytes())

    @pytest.mark.parametrize("n", [*range(2, 33), 64])
    def test_orthogonality_check_is_the_block_loop(self, n):
        basis_words.cache_clear()
        expected = block_loop_trace_orthogonality(n)
        basis_words.cache_clear()
        assert _finite_checks(n, pairs=1, seed=0)["trace_orthogonality"] == expected
        basis_words.cache_clear()

    def test_discrete_star_allocates_batches_not_an_n3_stack(self):
        n = 256
        rng = np.random.default_rng(7)
        left, right = (DiscreteSymbol(random_matrix(rng, n)) for _ in range(2))
        tracemalloc.start()
        try:
            discrete_star(left, right)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        batch = max(finite.BATCH_ENTRIES, n * n) * 16  # bytes of one batch operand
        assert peak < 16 * batch < 16 * n ** 3 // 10


class TestClockTable:
    """One reduced phase table w^((a*k) mod N) behind clock, the basis tensor and the
    ordering phases."""

    @pytest.mark.parametrize("n", [49, 256])
    def test_ordering_phases_take_the_reduced_exponent(self, n):
        k = np.arange(n)
        expected = np.conj(np.exp(2j * np.pi * (np.outer(k, k) % n) / n))
        assert np.array_equal(finite._tables(n).dft, expected)

    def test_deviations_at_49_stay_at_rounding(self):
        # the unreduced exponent j*k read 8.4e-14 and 1.4e-13 here
        checks = _finite_checks(49, 3, 7)
        assert checks["round_trip"] < 2e-14 and checks["star_isomorphism"] < 2e-14

    @pytest.mark.parametrize("n", range(2, 65))
    def test_clock_and_basis_are_bitwise_unchanged(self, n):
        # clock and the tensor as they were built before the shared table, verbatim; the
        # tensor is compared one clock power at a time, so N = 64 holds no second copy
        k = np.arange(n)
        assert clock(n).tobytes() == np.diag(np.exp(2j * np.pi * k / n)).tobytes()
        clock_diags = np.exp(2j * np.pi * (np.outer(k, k) % n) / n)  # [a, i]: clock^a[i, i]
        shift_pows = (k[:, None] - k) % n == k[:, None, None]  # [b, i, j]: shift^b[i, j] = 1
        basis_words.cache_clear()
        words = basis_words(n)
        assert all(words[a].tobytes() == (clock_diags[a, None, :, None] * shift_pows).tobytes()
                   for a in range(n))
        basis_words.cache_clear()

    def test_one_record_holds_the_tables_of_one_dimension(self):
        tables = finite._tables(7)
        assert finite._tables(7) is tables and clock_powers(7) is tables.clock
        assert np.array_equal(tables.dft, np.conj(tables.clock))

    def test_table_is_shared_read_only_and_takes_int_dimensions(self):
        with pytest.raises(ValueError, match="read-only"):
            clock_powers(5)[0, 0] = 0
        assert clock_powers(4) is clock_powers(4)
        for n in (4.0, np.int64(4), 1, 257):
            with pytest.raises(BadDimension):
                clock_powers(n)


def bits(checks):
    return {name: dev.hex() for name, dev in checks.items()}


def chunk_pairs(n):
    return max(1, finite.BATCH_ENTRIES // (4 * n ** 2))


class TestPairChunks:
    """finite-demo draws and maps its random pairs one chunk at a time, through the
    stacked to_symbol and discrete_dagger; the checks are the pair loop's bit for bit."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_checks_are_bitwise_the_pair_loop(self, n):
        step = chunk_pairs(n)
        for pairs in sorted({1, 2, 3, 4, min(step, MAX_PAIRS), min(step + 1, MAX_PAIRS)}):
            for seed in (0, 1, 7):
                assert (bits(_finite_checks(n, pairs, seed))
                        == bits(pair_loop_finite_checks(n, pairs, seed))), (pairs, seed)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 24, 64, 65, 256])
    def test_stacked_maps_are_bitwise_per_operator(self, n):
        rng = np.random.default_rng(800 + n)
        stack = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        views = (stack, stack.swapaxes(1, 2), stack[::-2], np.asfortranarray(stack),
                 stack[None, :, ::-1])  # contiguous, transposed, strided, F-ordered, 4-D
        for ops in views:
            symbols = to_symbol(ops)
            daggers = discrete_dagger(symbols)
            assert symbols.coeffs.shape == daggers.coeffs.shape == ops.shape
            for index in np.ndindex(ops.shape[:-2]):
                alone = to_symbol(ops[index])
                assert symbols.coeffs[index].tobytes() == alone.coeffs.tobytes()
                assert (daggers.coeffs[index].tobytes()
                        == discrete_dagger(alone).coeffs.tobytes())

    def test_stacked_from_symbol_agrees_to_rounding(self):
        rng = np.random.default_rng(850)
        stack = DiscreteSymbol(rng.normal(size=(2, 4, 6, 6)))
        rebuilt = from_symbol(stack)
        assert rebuilt.shape == (2, 4, 6, 6)
        for index in np.ndindex(2, 4):
            single = from_symbol(DiscreteSymbol(stack.coeffs[index]))
            assert np.max(np.abs(rebuilt[index] - single)) < ORACLE_TOL

    def test_bad_shapes_keep_their_messages(self):
        for shape in ((4,), (3, 4), (2, 3, 4), (0,)):
            with pytest.raises(BadDimension, match="^operator must be a square matrix$"):
                to_symbol(np.zeros(shape))
            with pytest.raises(BadDimension, match="^coefficient array must be square$"):
                DiscreteSymbol(np.zeros(shape))
        with pytest.raises(BadDimension, match=r"an integer in \[2, 256\], got 1"):
            to_symbol(np.zeros((3, 1, 1)))
        stack = to_symbol(np.zeros((3, 3, 3)))  # three 3 x 3 operators, not one 3 x 3 x 3
        with pytest.raises(BadDimension, match="one symbol per operand, not a stack"):
            discrete_star(stack, to_symbol(np.eye(3)))
        with pytest.raises(BadDimension, match="one symbol per operand, not a stack"):
            discrete_star(to_symbol(np.eye(3)), stack)

    @staticmethod
    def assert_peak_stays_flat(n, counts):
        """Pairs of one chunk, then of many: the peak grows by less than half of one
        chunk's draw, so no chunk's arrays outlive the next chunk's draw."""
        step = chunk_pairs(n)
        assert counts[0] <= step < counts[1]
        _finite_checks(n, 2, 0)  # builds the basis tensor before either run is measured
        peaks = []
        for pairs in counts:
            tracemalloc.start()
            try:
                _finite_checks(n, pairs, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < step * 4 * n ** 2 * 8 / 2

    def test_memory_does_not_grow_with_the_pairs(self):
        self.assert_peak_stays_flat(64, (1, 40))  # 1 and 40 chunks of 1 pair

    # One chunk of BATCH_ENTRIES // (4*N^2) pairs at N = 10 and 24, and 5 chunks.
    @pytest.mark.parametrize("n, counts", [(10, (20, 100)), (24, (3, 15))])
    def test_memory_does_not_grow_with_the_pairs_at_smaller_n(self, n, counts):
        self.assert_peak_stays_flat(n, counts)

    def test_per_n_checks_run_once_per_n(self, monkeypatch):
        n = 9
        expected = bits(pair_loop_finite_checks(n, 2, 3))
        first = _finite_checks(n, 2, 3)
        for name in first:  # a caller's edits must not reach the cached checks
            first[name] = math.nan
        calls, exact = [], np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power",
                            lambda *args: calls.append(args) or exact(*args))
        assert bits(_finite_checks(n, 2, 3)) == expected
        assert calls == []

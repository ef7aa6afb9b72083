"""Finite-dimensional clock/shift Weyl algebra and its discrete symbol calculus.

The clock matrix g = diag(1, w, w^2, ...) with w = exp(2*pi*i/N) and the
cyclic shift h (mapping basis vector e_k to e_{k+1 mod N}) generate the
relations g*h = exp(i*phi)*h*g with phi = 2*pi/N and g^N = h^N = 1.  The
words U(n, m) = g^n h^m form a trace-orthogonal basis, so every N x N matrix
has a unique coefficient array a[n, m]; multiplying matrices corresponds to
convolving coefficient arrays with the phase exp(-i*m*n'*phi), which is the
discrete star product implemented here.

Every per-N table is one cached, read-only record, _tables(N): the clock phases
w^((a*i) mod N), indexed [a, i], whose row a is the diagonal of g^a; their
conjugate, which is both the DFT matrix and the ordering phases; and the flat
index of an operator's wrapped diagonals.

Every map is whole-array numpy work with no per-element Python loop.  to_symbol
is one DFT of the operator's wrapped diagonals, a[n, m] = (1/N) sum_j
w^(-n*j) A[j, (j - m) mod N], with no basis tensor.  from_symbol is the word
sum itself, one contraction with basis_words: one (N, N, N, N) tensor per N,
16*N^4 bytes, so basis_words refuses N above MAX_BASIS_DIMENSION (64, 268 MB)
and keeps the tensors of the most recently used N within BASIS_CACHE_BYTES.
discrete_star makes one circulant-matrix product per shift m, stacked into
batched matmuls of at most BATCH_ENTRIES entries per operand.  Every map but
from_symbol takes any N up to MAX_DIMENSION.

DiscreteSymbol and every map but discrete_star also take a stack of operators
along leading axes, in the same code through `...` indexing; discrete_star takes
one symbol per operand.

isomorphism_checks is finite-demo's check suite.  It refuses fewer than 1 or more
than MAX_PAIRS pairs, then an N that basis_words refuses, before it draws, maps or
caches anything.
"""

from __future__ import annotations

import functools
from collections import OrderedDict, namedtuple

import numpy as np

from .errors import BadDimension, DimensionMismatch

MAX_DIMENSION = 256
MAX_BASIS_DIMENSION = 64  # basis_words(64) is a 268 MB tensor; 128 would be 4.3 GB
# The basis cache holds tensors up to this many bytes in all, evicting the least
# recently used: the N = 64 tensor alone, or every N up to 37.
BASIS_CACHE_BYTES = 16 * MAX_BASIS_DIMENSION ** 4
# Complex entries per operand of one stacked matmul (128 KiB): discrete_star
# takes N <= 20 in one batch and N >= 65 one shift per batch.
BATCH_ENTRIES = 8192


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or n < 2 or n > MAX_DIMENSION:
        raise BadDimension(f"dimension must be an integer in [2, {MAX_DIMENSION}], got {n!r}")


def phase_angle(n: int) -> float:
    _check_dim(n)
    return 2.0 * np.pi / n


_Tables = namedtuple("_Tables", "clock dft diagonals")


# 16 records of at most 2.5 MiB, every finite-weyl N; typed, so that an equal float or
# numpy n misses the cache and is refused.
@functools.lru_cache(maxsize=16, typed=True)
def _tables(n: int) -> _Tables:
    """The per-N tables, read-only, as every caller of one N shares them: clock[a, k] =
    w^((a*k) mod N), whose row a is the diagonal of clock^a; dft, its conjugate; and
    diagonals[j, m], the flat index of A[j, (j - m) mod N] into a C-ordered array."""
    _check_dim(n)
    k = np.arange(n)
    powers = np.exp(2j * np.pi * (np.outer(k, k) % n) / n)
    tables = _Tables(powers, np.conj(powers), k[:, None] * n + (k[:, None] - k) % n)
    for table in tables:
        table.flags.writeable = False
    return tables


def clock_powers(n: int) -> np.ndarray:
    """_tables(n).clock: row a is the diagonal of clock^a."""
    return _tables(n).clock


def clock(n: int) -> np.ndarray:
    """Diagonal phase matrix diag(exp(2*pi*i*k/N)), k = 0..N-1."""
    return np.diag(clock_powers(n)[1])


def shift(n: int) -> np.ndarray:
    """Cyclic permutation sending e_k to e_{k+1 mod N}."""
    _check_dim(n)
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


_basis_cache: OrderedDict[int, np.ndarray] = OrderedDict()
BasisCacheInfo = namedtuple("BasisCacheInfo", "currsize nbytes")


def basis_words(n: int) -> np.ndarray:
    """All U(a, b) = clock^a @ shift^b, shaped (n, n, n, n): one tensor per n, shared by
    every caller.  Only an int n hits the cache, so an equal float or numpy n is refused;
    a refused n raises, so it is never cached."""
    words = _basis_cache.get(n) if type(n) is int else None
    if words is not None:
        _basis_cache.move_to_end(n)
        return words
    _check_dim(n)
    if n > MAX_BASIS_DIMENSION:
        raise BadDimension(f"the basis tensor takes 16*N^4 bytes; dimension must be at most "
                           f"{MAX_BASIS_DIMENSION}, got {n}")
    held = sum(w.nbytes for w in _basis_cache.values())
    while _basis_cache and held + 16 * n ** 4 > BASIS_CACHE_BYTES:  # evict before building
        held -= _basis_cache.popitem(last=False)[1].nbytes
    k = np.arange(n)
    shift_pows = (k[:, None] - k) % n == k[:, None, None]  # [b, i, j]: shift^b[i, j] = 1
    words = _basis_cache[n] = clock_powers(n)[:, None, :, None] * shift_pows
    words.flags.writeable = False  # every caller of one n shares it
    return words


basis_words.cache_info = lambda: BasisCacheInfo(
    len(_basis_cache), sum(w.nbytes for w in _basis_cache.values()))
basis_words.cache_clear = _basis_cache.clear


class DiscreteSymbol:
    """Coefficient array a[..., n, m] of an operator, or of a stack of them along
    leading axes, in the clock/shift basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
            raise BadDimension("coefficient array must be square")
        _check_dim(arr.shape[-1])
        self.coeffs = arr

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    def __repr__(self):
        return f"DiscreteSymbol(n={self.n})"


def to_symbol(operator: np.ndarray) -> DiscreteSymbol:
    """Expansion coefficients a[n, m] = tr(U(n, m)^dag A) / N: U(n, m) has the entries
    w^(n*j) at (j, (j - m) mod N), so a is the DFT of A's wrapped diagonals.  A stack
    of operators along leading axes gives the stack of their symbols."""
    arr = np.asarray(operator, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise BadDimension("operator must be a square matrix")
    n = arr.shape[-1]
    _check_dim(n)
    tables = _tables(n)  # one gather of A's wrapped diagonals, then one DFT
    flat = arr.reshape(*arr.shape[:-2], n * n)  # C order, as ravel reads one operator
    return DiscreteSymbol(tables.dft @ flat[..., tables.diagonals] / n)


def from_symbol(symbol: DiscreteSymbol) -> np.ndarray:
    """Reconstruct the operator sum a[n, m] g^n h^m from the words themselves, the
    definition that to_symbol's DFT inverts.  A stack of symbols gives its operators
    through one contraction, equal to one symbol at a time to rounding."""
    n = symbol.n
    words = basis_words(n)
    return np.tensordot(symbol.coeffs, words, axes=([-2, -1], [0, 1]))


def discrete_star(s1: DiscreteSymbol, s2: DiscreteSymbol) -> DiscreteSymbol:
    """Coefficient convolution with the ordering phase exp(-i*m*n'*phi), of one
    symbol per operand."""
    if s1.n != s2.n:
        raise DimensionMismatch(f"dimension mismatch: {s1.n} vs {s2.n}")
    if s1.coeffs.ndim != 2 or s2.coeffs.ndim != 2:
        raise BadDimension("discrete_star takes one symbol per operand, not a stack")
    n = s1.n
    phases = _tables(n).dft  # [m, n']: exp(-i*m*n'*phi)
    # Strided views of the operands doubled along their shifted axis, so that an index
    # N + k - j needs no mod N: lefts[m, c, n'] = a[(c - n') mod N, m], the circulant
    # of column m, and rights[m, n', d] = b[n', (d - m) mod N].  The views read the
    # doubled arrays in C order, which concatenate keeps from C-ordered operands.
    a, b = np.ascontiguousarray(s1.coeffs), np.ascontiguousarray(s2.coeffs)
    a2, b2 = np.concatenate((a, a)), np.concatenate((b, b), axis=1)
    item = a2.itemsize
    lefts = np.ndarray((n, n, n), complex, a2, n * n * item, (item, n * item, -n * item))
    rights = np.ndarray((n, n, n), complex, b2, n * item, (-item, 2 * n * item, item))
    out = np.zeros((n, n), dtype=complex)
    step = max(1, BATCH_ENTRIES // (n * n))
    for m in range(0, n, step):  # out[c, d] += sum_n' a[c-n', m] phase[m, n'] b[n', d-m]
        batch = slice(m, m + step)
        for product in np.ascontiguousarray(lefts[batch]) @ (phases[batch, :, None]
                                                             * rights[batch]):
            out += product  # in ascending m, one shift at a time, as a loop over m adds
    return DiscreteSymbol(out)


def discrete_dagger(symbol: DiscreteSymbol) -> DiscreteSymbol:
    """Coefficients of the conjugate-transpose: a*[-n, -m] * exp(-i*m*n*phi), of each
    symbol of a stack."""
    n = symbol.n
    idx = (-np.arange(n)) % n
    flipped = np.conj(symbol.coeffs)[..., idx[:, None], idx]
    return DiscreteSymbol(flipped * _tables(n).dft)


# Budget of finite-demo --pairs: at N = 64 one pair takes about 0.013 s on a 2-vCPU Xeon
# VM, the whole budget about 13 s.
MAX_PAIRS = 1000


def isomorphism_checks(n: int, pairs: int, seed: int) -> dict[str, float]:
    """finite-demo's deviations: the per-N checks of _weyl_checks, then per random pair
    the round trip, star and dagger.  Both budgets are checked before any work: pairs
    first, then n through basis_words, the tensor from_symbol reads for every pair."""
    if pairs > MAX_PAIRS:
        raise ValueError(f"--pairs {pairs} exceeds the limit of {MAX_PAIRS}")
    if pairs < 1:
        raise ValueError(f"--pairs {pairs} is below the minimum of 1")
    basis_words(n)  # refuses n outside 2..64
    checks = dict(_weyl_checks(n))  # a fresh dict
    rng = np.random.default_rng(seed)
    # The pairs go in chunks of at most BATCH_ENTRIES // (4*N^2), so that a chunk's
    # stack of four operators per pair holds at most BATCH_ENTRIES entries (one pair
    # for N > 45).  Each chunk is drawn as one array in the order of four (N, N) draws
    # per pair, and its arrays are freed before the next is drawn.  A NaN in any pair
    # survives np.max.
    step = max(1, BATCH_ENTRIES // (4 * n ** 2))
    devs = np.empty((pairs, 3))  # round trip, star, dagger per pair
    for first in range(0, pairs, step):
        devs[first:first + step] = _pair_deviations(
            rng.normal(size=(min(step, pairs - first), 4, n, n)))
    checks["round_trip"], checks["star_isomorphism"], checks["dagger_transpose"] = (
        float(dev) for dev in np.max(devs, axis=0))
    return checks


def _pair_deviations(draws):
    """The round trip, star and dagger deviations, shaped (pairs, 3), of the pairs
    A = draws[:, 0] + i*draws[:, 1] and B = draws[:, 2] + i*draws[:, 3]."""
    ops = np.empty(draws.shape, dtype=complex)  # A, B, A @ B and A^dagger per pair
    ops[:, 0], ops[:, 1] = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
    A = ops[:, 0]
    ops[:, 2], ops[:, 3] = A @ ops[:, 1], A.conj().swapaxes(1, 2)
    symbols = to_symbol(ops).coeffs
    # from_symbol and discrete_star take one pair at a time (a stacked contraction moves
    # the round trip's last digits), each in a loop of its own while its tables are in cache.
    rebuilt, products = np.empty_like(A), np.empty_like(A)
    for k in range(len(ops)):
        rebuilt[k] = from_symbol(DiscreteSymbol(symbols[k, 0]))
    for k in range(len(ops)):
        a, b = DiscreteSymbol(symbols[k, 0]), DiscreteSymbol(symbols[k, 1])
        products[k] = discrete_star(a, b).coeffs
    daggers = discrete_dagger(DiscreteSymbol(symbols[:, 0])).coeffs
    return np.stack([np.abs(rebuilt - A).max(axis=(1, 2)),
                     np.abs(products - symbols[:, 2]).max(axis=(1, 2)),
                     np.abs(daggers - symbols[:, 3]).max(axis=(1, 2))], axis=1)


# Depends on n alone, so each N is checked once per process; isomorphism_checks refuses
# n outside 2..64 first, so only those are cached.
@functools.lru_cache(maxsize=None, typed=True)
def _weyl_checks(n: int) -> dict[str, float]:
    """finite-demo's deviations that depend on N alone: the Weyl relations, and the
    words' trace orthogonality from the clock table.  Callers copy the dict."""
    g, h = clock(n), shift(n)
    phi = phase_angle(n)
    eye = np.eye(n)
    checks: dict[str, float] = {}
    checks["gh_phase"] = float(np.max(np.abs(g @ h - np.exp(1j * phi) * h @ g)))
    checks["g_power_n"] = float(np.max(np.abs(np.linalg.matrix_power(g, n) - eye)))
    checks["h_power_n"] = float(np.max(np.abs(np.linalg.matrix_power(h, n) - eye)))
    checks["trace_gh"] = float(abs(np.trace(g @ h)))

    # Gram matrix tr(U_i^dag U_j) = N * delta_ij of the words g^a h^b: words of different
    # shifts b have disjoint supports, and those of one shift meet where their clock
    # diagonals do, so every block is the Gram matrix of the table's rows.
    table = clock_powers(n)  # [a, i]: the diagonal of g^a
    checks["trace_orthogonality"] = float(np.abs(np.conj(table) @ table.T - n * eye).max())
    return checks

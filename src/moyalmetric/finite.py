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
    _check_dim(n)
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


"""Dense exact diagonalization, smoothed entropy models, and energy windows.

All estimators downstream work in the energy eigenbasis, so this module owns
the two objects everything else consumes: the sorted spectrum with its
eigenvector matrix, and a smooth entropy model S(E), the level density (count
per unit energy) smoothed by the one Gaussian kernel over the spectrum, with
beta(E) = S'(E) from centered finite differences. The same kernel and width
rule give O(E) in ``extract``; one kernel row is the wave packet of ``dynamics``.

Eigendecompositions are dense; dimensions are capped at 2**13 because every
formula in the package needs the full spectrum, but |A_mn|^2 is only formed
PAIR_BLOCK_ROWS rows at a time (OperatorEigenbasis.abs2_rows). Every ``eigh``
runs through one block path: a Hamiltonian that commutes with an involutive
index permutation r (the reflection of a uniform Ising chain) is given as
its blocks in the parity-adapted basis of r, which parity_layout alone lays
out, and eigendecompose_blocks diagonalizes them one at a time; a
Hamiltonian without such a symmetry is the one block of the identity r. The
eigenvectors are kept as the block matrices (BlockEigenvectors, about d^2/2
numbers for two blocks), and no d x d basis exists unless
EnergySpectrum.basis is read.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError, NumericError, SizeError, ValidationError

MAX_DENSE_DIM = 1 << 13
HERMITICITY_RTOL = 1e-12
PAIR_BLOCK_ROWS = 64       # rows of the pair table |A_mn|^2 per block


def _hermitian_deviation(m):
    """Frobenius norm of m - m^H, summed over the upper 64 x 64 tiles.

    Tile (I, J) with I < J holds X_IJ - X_JI^H, whose squared norm counts
    twice; a diagonal tile counts once. Small contiguous tiles avoid the
    strided full-matrix transpose of ``m - m.conj().T``.
    """
    d, tile = m.shape[0], 64
    total = 0.0
    for i in range(0, d, tile):
        for j in range(i, d, tile):
            diff = m[i:i + tile, j:j + tile] - m[j:j + tile, i:i + tile].conj().T
            total += (1.0 if i == j else 2.0) * np.vdot(diff, diff).real
    return np.sqrt(total)


def _hermitize(m):
    """Replace the square m by (m + m^H) / 2 in place, over 64 x 64 tiles,
    so that the result is exactly Hermitian."""
    d, tile = m.shape[0], 64
    for i in range(0, d, tile):
        for j in range(i, d, tile):
            x = m[i:i + tile, j:j + tile] + m[j:j + tile, i:i + tile].conj().T
            x *= 0.5
            m[i:i + tile, j:j + tile] = x
            m[j:j + tile, i:i + tile] = x.conj().T


def require_hermitian(h, name="matrix"):
    """Validate that ``h`` is square and Hermitian within ``HERMITICITY_RTOL``."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {h.shape}")
    norm = np.linalg.norm(h)
    dev = _hermitian_deviation(h)
    if norm > 0 and dev > HERMITICITY_RTOL * norm:
        raise ValidationError(
            f"{name} is not Hermitian: relative deviation {dev / norm:.3e}"
        )
    return h


def parity_layout(r, k):
    """Block k of the parity-adapted basis of an involutive index permutation r.

    Block 0 (even) lives on the representatives s <= r(s) and block 1 (odd)
    on the pairs s < r(s); the identity r has no pairs and so only block 0,
    the standard basis. The basis vector of representative s is |s> on a
    fixed point s = r(s) and (|s> + |r(s)>)/sqrt(2) on a pair, with a minus
    sign on the mirror |r(s)> in the odd block. Returns ``(reps, row, coef)``:
    block k's representatives, and per basis state x the row of the block
    that carries it (-1 for none) and its coefficient, so that column j of an
    eigenvector matrix u of the block is the vector V[x] = coef[x] u[row[x], j].
    """
    states = np.arange(r.size)
    reps = states[states <= r] if k == 0 else states[states < r]
    row = np.full(r.size, -1)
    row[reps] = np.arange(reps.size)
    row = row[np.minimum(states, r)]
    amp = np.where(r == states, 1.0, np.sqrt(0.5))
    coef = np.where(row < 0, 0.0, np.where(states <= r, amp, -amp if k else amp))
    return reps, row, coef


@dataclass(frozen=True)
class BlockEigenvectors:
    """Eigenvectors of a Hamiltonian h, kept as the blocks that ``eigh`` returns.

    ``symmetry`` is an involutive index permutation r that commutes with h,
    ``vectors[k]`` the eigenvector matrix of block k of its parity-adapted
    basis (:func:`parity_layout`), and ``columns[k]`` the sorted positions of
    block k's eigenvalues, which is the one record of each eigenstate's
    sector. The identity r with one block is the plain ``eigh`` basis.
    """

    symmetry: np.ndarray
    vectors: tuple
    columns: tuple

    @property
    def dim(self):
        return self.symmetry.size

    def dense(self):
        """The d x d eigenvector matrix V, scattered from the blocks on each call."""
        v = np.zeros((self.dim, self.dim), dtype=np.result_type(*self.vectors))
        for k, (u, cols) in enumerate(zip(self.vectors, self.columns)):
            _, row, coef = parity_layout(self.symmetry, k)
            on = np.flatnonzero(row >= 0)
            v[np.ix_(on, cols)] = coef[on, None] * u[row[on]]
        return v

    def signed_permutation_elements(self, source, sign, factor):
        """V^H S V for the Hermitian signed permutation S with
        (S v)[x] = factor * sign[x] * v[source[x]].

        Row i of u_k carries the states s and r(s) of its representative, so
        the rows of V^H S V in block k are u_k^H Z with Z[i] = b_i (W[s] +-
        W[r(s)]), W = S V and b = 1/sqrt(2) on a pair (1/2 on a fixed point,
        whose two terms coincide). Within the columns of block k', each row of
        W is sign[x] coef[source[x]] times one row of u_k', so Z[i] is a
        signed gather of at most two rows of u_k', folded into one when both
        are the same row. Rows whose weights vanish drop out of the product,
        and a pair of blocks with none left stays exactly 0. S is Hermitian,
        as every Pauli word is, so only the blocks k <= k' are multiplied: the
        others are their conjugate transposes, and a diagonal block is
        averaged with its own, which makes the result exactly Hermitian. That
        costs at most 3 d^3 / 4 flops (2 d^3 for one block), and about 3 d^3 / 8
        for a word that maps each pair {s, r(s)} to itself with half its
        weights cancelling, such as Z_0. No d x d V is formed.
        """
        r = self.symmetry
        layouts = [parity_layout(r, k) for k in range(len(self.vectors))]
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(factor, *self.vectors))
        for k, (u, cols) in enumerate(zip(self.vectors, self.columns)):
            reps = layouts[k][0]
            b = np.where(r[reps] == reps, 0.5, np.sqrt(0.5))
            s0, s1 = source[reps], source[r[reps]]
            for k2 in range(k, len(self.vectors)):
                u2, cols2 = self.vectors[k2], self.columns[k2]
                _, row2, coef2 = layouts[k2]
                j0, j1 = row2[s0], row2[s1]
                w0 = b * sign[reps] * coef2[s0]
                w1 = (-b if k else b) * sign[r[reps]] * coef2[s1]
                fold = j0 == j1
                w0[fold] += w1[fold]
                w1[fold] = 0.0
                keep = np.flatnonzero((w0 != 0) | (w1 != 0))
                if keep.size == 0:
                    continue
                j0, j1, w0, w1 = j0[keep], j1[keep], w0[keep], w1[keep]
                z = u2[j0]
                z *= w0[:, None]
                if w1.any():
                    z += w1[:, None] * u2[j1]
                block = u[keep].conj().T @ z
                if factor != 1:
                    block = factor * block
                if k == k2:
                    _hermitize(block)
                else:
                    # 256 rows at a time, each panel copied to C order: the
                    # scatter reads a transposed view at a cache-hostile
                    # stride, and a copy of the whole block costs one block
                    # of memory
                    for i in range(0, block.shape[1], 256):
                        out[np.ix_(cols2[i:i + 256], cols)] = block[:, i:i + 256].T.conj().copy()
                out[np.ix_(cols, cols2)] = block
                del z, block    # before the next pair's product is formed
        return out


@dataclass(frozen=True)
class EnergySpectrum:
    """Sorted eigenvalues and eigenvectors of a Hermitian matrix.

    ``eigenvectors`` holds them per symmetry block (:class:`BlockEigenvectors`);
    ``None`` means the identity basis, used by synthetic spectra that are
    generated directly in their own eigenbasis.
    """

    eigenvalues: np.ndarray
    eigenvectors: BlockEigenvectors | None = None

    def __post_init__(self):
        e = np.asarray(self.eigenvalues, dtype=float)
        if e.ndim != 1 or e.size < 1:
            raise ValidationError("eigenvalues must be a nonempty 1-D array")
        if np.any(np.diff(e) < 0):
            raise ValidationError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", e)
        if self.eigenvectors is not None and self.eigenvectors.dim != e.size:
            raise ValidationError("eigenvector count does not match eigenvalue count")

    @property
    def dim(self):
        return self.eigenvalues.size

    @property
    def bandwidth(self):
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @property
    def basis(self):
        """The d x d column eigenvector matrix, formed on each read (``None``
        for the identity basis)."""
        return None if self.eigenvectors is None else self.eigenvectors.dense()


def _eigh(h):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc


def _require_involution(r):
    """Validate that ``r`` is an involutive permutation of its own indices."""
    r = np.asarray(r)
    d = r.size
    if (r.ndim != 1 or not np.issubdtype(r.dtype, np.integer)
            or np.any((r < 0) | (r >= d))
            or not np.array_equal(r[r], np.arange(d))):
        raise ValidationError(
            f"symmetry must be an involutive permutation of the {d} basis indices")
    return r


def eigendecompose_blocks(symmetry, blocks):
    """Diagonalize a Hamiltonian given as its blocks in a parity-adapted basis.

    ``symmetry`` is an involutive index permutation r that commutes with the
    Hamiltonian H, and ``blocks`` yields block 0 and then block 1 of H in the
    basis of :func:`parity_layout`; the identity has only block 0, so a dense
    h is diagonalized as ``eigendecompose_blocks(np.arange(d), [h])``, and
    :func:`ethlab.models.reflection_blocks` yields both blocks of the Ising
    chain. Each block is checked for Hermiticity and diagonalized before the
    next is taken, so a lazy iterable keeps one block alive at a time; two
    blocks cost about a quarter of one full ``eigh``. The eigenvectors stay
    per block (:class:`BlockEigenvectors`), and the eigenvalues are merged by
    a stable sort (block 0 before block 1 on ties). A permutation that is not
    an involution, a wrong number of blocks, a block of the wrong size or one
    not Hermitian to ``HERMITICITY_RTOL`` raises :class:`ValidationError`,
    and a dimension above ``MAX_DENSE_DIM`` raises :class:`SizeError`.
    """
    r = _require_involution(symmetry)
    d = r.size
    if d > MAX_DENSE_DIM:
        raise SizeError(f"dimension {d} exceeds dense cap {MAX_DENSE_DIM}")
    sizes = [parity_layout(r, k)[0].size for k in (0, 1)]
    sizes = [n for n in sizes if n]    # the identity has no block 1
    values, vectors = [], []
    for block in blocks:    # not enumerate, whose cached tuple holds on to the block
        k = len(values)
        block = require_hermitian(
            block, name="hamiltonian" if len(sizes) == 1 else f"hamiltonian block {k}")
        if k >= len(sizes) or block.shape[0] != sizes[k]:
            raise ValidationError(
                f"symmetry of dimension {d} has blocks of sizes {sizes}, "
                f"got block {k} of size {block.shape[0]}")
        if np.iscomplexobj(block) and np.abs(block.imag).max(initial=0.0) == 0.0:
            block = block.real
        e, u = _eigh(block)
        del block
        values.append(e)
        vectors.append(u)
    if len(values) != len(sizes):
        raise ValidationError(f"symmetry has {len(sizes)} blocks, got {len(values)}")
    eigenvalues = np.concatenate(values)
    order = np.argsort(eigenvalues, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[order] = np.arange(d)
    columns = tuple(np.split(column, np.cumsum(sizes)[:-1]))
    return EnergySpectrum(eigenvalues=eigenvalues[order],
                          eigenvectors=BlockEigenvectors(symmetry=r, vectors=tuple(vectors),
                                                         columns=columns))


@dataclass(frozen=True)
class OperatorEigenbasis:
    """Matrix elements A_mn of an observable in an energy eigenbasis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def is_hermitian(self):
        """True when ||A - A^H||_F <= 2e-10 ||A||_F."""
        norm = np.linalg.norm(self.matrix)
        return _hermitian_deviation(self.matrix) <= 1e-10 * norm * 2

    def abs2_rows(self):
        """Yield (rows, |A[rows]|^2) over slices of PAIR_BLOCK_ROWS rows (the
        last may be shorter): the one place the pair table is formed."""
        for start in range(0, self.dim, PAIR_BLOCK_ROWS):
            rows = slice(start, min(start + PAIR_BLOCK_ROWS, self.dim))
            yield rows, np.abs(self.matrix[rows]) ** 2

    def upper_pairs(self):
        """Yield (rows, upper, |A_mn|^2 over m < n) per :meth:`abs2_rows` block;
        ``x[upper]`` puts any (rows, d) array x, e.g. e - e[rows, None], in that order."""
        cols = np.arange(self.dim)
        for rows, a2 in self.abs2_rows():
            upper = cols > cols[rows, None]
            a2 = a2[upper]    # drops the block
            yield rows, upper, a2


def mean_level_spacing(eigenvalues):
    """Mean spacing over the central 60% of the sorted spectrum."""
    e = np.asarray(eigenvalues, dtype=float)
    if e.size < 2:
        raise ValidationError("need at least two levels for a spacing")
    n = e.size
    lo = int(round(0.2 * n))  # 20% off each end
    hi = max(lo + 2, n - lo)    # <= n, so e[lo:hi] holds at least two levels
    return float(np.diff(e[lo:hi]).mean())


def spacing_ratio_mean(eigenvalues):
    """Mean consecutive-spacing ratio <r> over the central 50% of the spectrum.

    r_n = min(s_n, s_{n+1}) / max(s_n, s_{n+1}) for consecutive spacings s_n.
    Chaotic (GOE) spectra give <r> near 0.5307; uncorrelated (Poisson)
    spectra give about 0.386.
    """
    e = np.sort(np.asarray(eigenvalues, dtype=float))
    n = e.size
    lo = int(round(0.25 * n))  # 25% off each end
    hi = max(lo + 3, n - lo)
    s = np.diff(e[lo:hi])
    if s.size < 2:
        raise ValidationError("not enough bulk levels for spacing ratios")
    pairs = np.stack([s[:-1], s[1:]])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = pairs.min(axis=0) / pairs.max(axis=0)
    r = r[np.isfinite(r)]
    return float(r.mean())


@dataclass(frozen=True)
class EntropyModel:
    """Smooth S(E) and beta(E) = S'(E) on an energy grid.

    ``exp(S(E))`` approximates the level density per unit energy.
    Evaluation between grid points is linear interpolation; outside the grid
    the edge value is used.
    """

    grid_energies: np.ndarray
    grid_entropy: np.ndarray
    grid_beta: np.ndarray

    def entropy_at(self, e):
        return np.interp(e, self.grid_energies, self.grid_entropy)

    def beta_at(self, e):
        return np.interp(e, self.grid_energies, self.grid_beta)

    @classmethod
    def constant(cls, value, e_min, e_max):
        """Energy-independent entropy, e.g. S = log(D) for flat synthetic models."""
        grid = np.linspace(float(e_min), float(e_max), 17)
        s = np.full_like(grid, float(value))
        return cls(grid_energies=grid, grid_entropy=s, grid_beta=np.gradient(s, grid))


def _gaussian_kernel(grid, e, width):
    """exp(-((g - e_n)/width)^2 / 2) for grid points g (rows) and levels e_n
    (columns), formed in place; z z (-1/2) equals (-z/2) z, as halving is exact."""
    z = grid[:, None] - e[None, :]
    z /= width
    z *= z
    z *= -0.5
    return np.exp(z, out=z)


def _smoothing_width(spectrum, width, name):
    """The kernel width of S(E) and O(E): ``width``, or for None the larger of
    2% of the spectral bandwidth and 3 mean bulk level spacings. A given width
    below that floor, where it would resolve level discreteness, is refused,
    as is a spectrum of one energy."""
    if spectrum.bandwidth <= 0:
        raise ValidationError("spectrum has zero bandwidth")
    floor = 3 * mean_level_spacing(spectrum.eigenvalues)
    width = max(0.02 * spectrum.bandwidth, floor) if width is None else float(width)
    if width < floor:
        raise ValidationError(
            f"{name}={width:g} below 3 mean bulk level spacings ({floor:g})")
    return width


def entropy_model(spectrum, sigma_s=None):
    """Gaussian-kernel entropy model from a finite spectrum.

    exp(S(E)) is the kernel-smoothed level density
    sum_n N(E; E_n, sigma_s**2) on a uniform grid of 2049 energies spanning
    the spectrum padded by 2 sigma_s on each side, and beta(E) comes from
    centered finite differences of S on that grid; sigma_s follows
    :func:`_smoothing_width`, and the kernel is summed 2**22 cells at a time.
    """
    e = spectrum.eigenvalues
    sigma_s = _smoothing_width(spectrum, sigma_s, "sigma_s")
    grid = np.linspace(e[0] - 2 * sigma_s, e[-1] + 2 * sigma_s, 2049)
    norm = 1.0 / (np.sqrt(2 * np.pi) * sigma_s)
    chunk = 2**22 // grid.size
    density = sum(norm * _gaussian_kernel(grid, e[i:i + chunk], sigma_s).sum(axis=1)
                  for i in range(0, e.size, chunk))
    s = np.log(np.maximum(density, 1e-300))
    return EntropyModel(grid_energies=grid, grid_entropy=s, grid_beta=np.gradient(s, grid))


@dataclass(frozen=True)
class MicrocanonicalWindow:
    """Contiguous index range of eigenstates inside [center - hw, center + hw]."""

    center: float
    half_width: float
    start: int
    stop: int

    @property
    def size(self):
        return self.stop - self.start

    @property
    def indices(self):
        return np.arange(self.start, self.stop)


def microcanonical_window(spectrum, center, half_width):
    """Maximal contiguous index range with eigenvalues inside the window.

    Raises :class:`EmptyWindowError` when no eigenvalue falls inside, so
    callers cannot silently carry on with an empty shell.
    """
    if half_width <= 0:
        raise ValidationError("half_width must be positive")
    e = spectrum.eigenvalues
    start = int(np.searchsorted(e, center - half_width, side="left"))
    stop = int(np.searchsorted(e, center + half_width, side="right"))
    if stop <= start:
        raise EmptyWindowError(
            f"no eigenvalues in [{center - half_width:g}, {center + half_width:g}]"
        )
    return MicrocanonicalWindow(center=float(center), half_width=float(half_width),
                                start=start, stop=stop)

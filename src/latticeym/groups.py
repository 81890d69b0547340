"""U(N) primitives: Haar sampling, unitarity, the exponential map, and the
quadratic bound on the plaquette action.

Every primitive works on stacks: of matrices (..., n, n) or of Lie-algebra
coefficients (..., n**2).  The Haar sampler, the unitarity defect and the
quadratic-bound sides compute with the matrix entries leading, (n, n, ...),
so that every numpy loop runs over the stack rather than over n <= 3
entries; their (..., n, n) forms are moveaxis views into the same routine.
Haar samples take Gram-Schmidt on their columns, with the last column in
closed form for n = 2 and 3.
Conventions used throughout the package:

* the Lie-algebra basis is orthonormal under Tr(a b), ordered as the real and
  imaginary off-diagonal pairs (row-major over j < k), the diagonal traceless
  generators, and the scaled identity last;
* a plaquette holonomy is U1 U2 U3^dag U4^dag and its action is the squared
  Hilbert-Schmidt distance to the identity, 2 Re Tr(1 - U_p).
"""

import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonUnitaryInput, ShapeMismatch

UNITARITY_TOL = 1e-8
_SCAN_BATCH = 50_000
_SCAN_BLOCK = 120_000  # largest pooled block of the scan, in stack entries (4 n**2 per quadruple)


@dataclass(frozen=True)
class GroupSpec:
    """The unitary group U(n)."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"group rank must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", operator.index(self.n))  # an int, for the JSON reports

    @property
    def dim(self) -> int:
        """Real dimension of the Lie algebra, n**2."""
        return self.n * self.n


@lru_cache(maxsize=None)
def generator_basis(n: int) -> np.ndarray:
    """Orthonormal Hermitian basis of u(n), shape (n**2, n, n).

    Order: for each pair j < k the symmetric then antisymmetric combination,
    then the n-1 diagonal traceless generators, then identity/sqrt(n).
    For n = 2 this is (sigma_1, sigma_2, sigma_3, 1)/sqrt(2).
    """
    basis = np.zeros((n * n, n, n), dtype=complex)
    idx = 0
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            basis[idx] = sym
            idx += 1
            antisym = np.zeros((n, n), dtype=complex)
            antisym[j, k] = -1j / np.sqrt(2.0)
            antisym[k, j] = 1j / np.sqrt(2.0)
            basis[idx] = antisym
            idx += 1
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -float(l)
        basis[idx] = np.diag(diag / np.sqrt(l * (l + 1.0)))
        idx += 1
    basis[idx] = np.eye(n) / np.sqrt(n)
    basis.setflags(write=False)
    return basis


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def leading_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of stacks with the entries leading, (n, n, ...),
    accumulated over the inner index in sequence."""
    if a.shape[0] == 1:  # the sampler's U(1) class step is bound by calls
        return a * b
    out = a[:, 0:1] * b[0:1, :]
    for k in range(1, a.shape[0]):
        out = out + a[:, k:k + 1] * b[k:k + 1, :]
    return out


def leading_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis in the order np.sum adds along a contiguous
    trailing axis, its pairwise sum: in sequence below w terms, else w
    running sums combined as a binary tree, then the rest in sequence, with
    w = 8 for real and w = 4 for complex terms (up to 128 reals).

    Stacks with the entries leading keep their sums bit-identical to sums
    over trailing axes this way.
    """
    width = 4 if np.iscomplexobj(terms) else 8
    m = terms.shape[0]
    if m < width:
        return terms.sum(axis=0)
    partial = terms[:width]
    for i in range(width, m - m % width, width):
        partial = partial + terms[i:i + width]
    while partial.shape[0] > 1:
        partial = partial[0::2] + partial[1::2]
    total = partial[0]
    for term in terms[m - m % width:]:
        total = total + term
    return total


def _ginibre(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices from the real and imaginary normals of a
    stack, shape + (n, n), laid out (column, row) + shape[::-1], so that
    each column is one contiguous block."""
    z = np.empty(re.shape[::-1], dtype=complex)
    # Transposed about 1024 matrices at a time, whose strided reads stay in cache.
    step = max(1, 1024 // math.prod(re.shape[1:-2]))
    for s in range(0, re.shape[0], step):
        z.real[..., s:s + step], z.imag[..., s:s + step] = re[s:s + step].T, im[s:s + step].T
    return z


def _orthonormalize(z: np.ndarray) -> None:
    """Haar Q, in place, of Ginibre matrices laid out (column, row, ...);
    it works sample by sample, so any slice of the trailing axes may go alone.

    Gram-Schmidt, applied twice per column, on the columns of a complex
    Ginibre matrix.  It yields the Q of the QR decomposition whose R has a
    real positive diagonal, which is Haar distributed (Mezzadri, Notices
    AMS 54, 592 (2007), math-ph/0609050); a plain LAPACK QR is not, until
    each column is rephased.  The Ginibre scale does not change Q.  For
    n = 2 and 3 the last column is closed-form: the unit vector w orthogonal
    to the others, (-conj q_1[1], conj q_1[0]) or conj(q_1 x q_2), times
    the phase of w^dag v, v the last Ginibre column; Gram-Schmidt gives the
    same column, with R's diagonal entry |w^dag v| > 0.
    """
    n = z.shape[0]
    closed = n in (2, 3)
    for j, v in enumerate(z[:n - 1] if closed else z):
        for _ in range(2):
            for q in z[:j]:
                v -= q * np.sum(q.conj() * v, axis=0)
        v /= np.sqrt(np.sum(v.real**2 + v.imag**2, axis=0))
    if closed:
        q1, v = z[0], z[-1]
        if n == 2:
            conj_w = (-q1[1], q1[0])
        else:
            q2 = z[1]
            conj_w = (q1[1] * q2[2] - q1[2] * q2[1], q1[2] * q2[0] - q1[0] * q2[2],
                      q1[0] * q2[1] - q1[1] * q2[0])
        c = sum(a * b for a, b in zip(conj_w, v))  # w^dag v
        c /= np.abs(c)
        for i, a in enumerate(conj_w):
            v[i] = np.conj(a) * c


def leading_haar(n: int, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Haar sample with the entries leading, (n, n) + shape[::-1]: the
    matrices `haar_sample_batch` would draw for a stack `shape`, in the
    reversed layout, so that the first axis of `shape` varies fastest."""
    draws = shape + (n, n)
    z = _ginibre(rng.standard_normal(draws), rng.standard_normal(draws))
    _orthonormalize(z)
    return np.swapaxes(z, 0, 1)


def haar_sample_batch(group: GroupSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Haar sample of shape (count, n, n), a view of `leading_haar`."""
    return np.moveaxis(leading_haar(group.n, rng, (count,)), (0, 1), (-2, -1))


def leading_unitarity_defect(u: np.ndarray) -> float:
    """Largest Hilbert-Schmidt norm of U^dag U - 1 over a stack with the
    entries leading, (n, n, ...).

    The Gram matrix is Hermitian: its diagonal holds the squared column
    norms, and each upper entry counts twice.
    """
    n = u.shape[0]
    total = 0.0
    for j in range(n):
        norm = leading_sum(u[:, j].real**2 + u[:, j].imag**2) - 1.0
        total = total + norm * norm
        for k in range(j + 1, n):
            g = leading_sum(np.conj(u[:, j]) * u[:, k])
            total = total + 2.0 * (g.real**2 + g.imag**2)
    return float(np.sqrt(np.max(total)))


def unitarity_defect(u: np.ndarray) -> float:
    """Largest Hilbert-Schmidt norm of U^dag U - 1 over a stack (..., n, n)."""
    return leading_unitarity_defect(np.moveaxis(np.asarray(u), (-2, -1), (0, 1)))


def unitary_from_coefficients(coeffs: np.ndarray, group: GroupSpec) -> np.ndarray:
    """exp(i X) for X = sum_a x_a T_a, coefficients (..., n**2) to matrices (..., n, n)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (group.dim,):
        raise ShapeMismatch(f"expected {group.dim} coefficients, got shape {coeffs.shape}")
    w, v = np.linalg.eigh(np.einsum("...a,aij->...ij", coeffs, generator_basis(group.n)))
    return (v * np.exp(1j * w)[..., None, :]) @ dagger(v)


def traceless3_root(a, z):
    """Trigonometric root of traceless Hermitian 3 x 3 matrices A, given
    their diagonal a = (a_00, a_11, a_22) and upper entries z = (a_01, a_02,
    a_12) as stacks.

    Returns (x0, p, phi) with p = tr(A^2)/6 and phi = arccos(|det A| /
    (2 p^{3/2}))/3 in [0, pi/6]: x0 = sign(det A) 2 sqrt(p) cos(phi) is the
    eigenvalue farthest from the other two, -x0/2 +- sqrt(3 p) sin(phi)
    (Smith, Commun. ACM 4, 168 (1961)).  Only x0 keeps the accuracy of
    eigvalsh; near a degenerate pair the arccos loses digits of phi.
    """
    n01, n02, n12 = (v.real**2 + v.imag**2 for v in z)
    p = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + 2.0 * (n01 + n02 + n12)) / 6.0
    det = (a[0] * a[1] * a[2] + 2.0 * (z[0] * z[2] * np.conj(z[1])).real
           - a[0] * n12 - a[1] * n02 - a[2] * n01)
    r = np.divide(np.abs(det), 2.0 * p * np.sqrt(p), out=np.zeros_like(p), where=p > 0.0)
    phi = np.arccos(np.minimum(r, 1.0)) / 3.0
    return np.copysign(2.0 * np.sqrt(p) * np.cos(phi), det), p, phi


def _cosines(u: np.ndarray) -> np.ndarray:
    """Eigenvalues cos(lambda_j) of B = (U + U^dag)/2 for a stack with the
    entries leading, (n, n, ...), shape (n, ...) in no fixed order; one route
    per rank.

    n = 1 is Re u and n = 2 is m +- sqrt(d**2 + |b_12|**2).  For n = 3,
    `traceless3_root` gives the root x0 of A = B - m farthest from the
    other two, and they are -x0/2 +- sqrt(D) with 2 D = ||A + (x0/2)(1 -
    3 P)||_F**2, P = adj(A - x0)/tr adj(A - x0) the projector on the x0
    eigenvector.  That norm is a sum of squares, so a near-degenerate pair
    keeps an absolute error of a few eps, where the trigonometric pair loses
    digits (Kopp, Int. J. Mod. Phys. C 19, 523 (2008), physics/0610206).
    Larger ranks call eigvalsh.
    """
    n = u.shape[0]
    if n > 3:
        us = np.moveaxis(u, (0, 1), (-2, -1))
        return np.moveaxis(np.linalg.eigvalsh(0.5 * (us + dagger(us))), -1, 0)
    b = [u[i, i].real for i in range(n)]
    if n == 1:
        return b[0][None]
    if n == 2:
        m, d = 0.5 * (b[0] + b[1]), 0.5 * (b[0] - b[1])
        h = 0.5 * (u[0, 1] + np.conj(u[1, 0]))
        s = np.sqrt(d * d + h.real**2 + h.imag**2)
        return np.stack([m + s, m - s])
    z = [0.5 * (u[i, j] + np.conj(u[j, i])) for i, j in ((0, 1), (0, 2), (1, 2))]
    m = (b[0] + b[1] + b[2]) / 3.0
    a = [bi - m for bi in b]
    x0 = traceless3_root(a, z)[0]
    d0, d1, d2 = (ai - x0 for ai in a)
    n01, n02, n12 = (v.real**2 + v.imag**2 for v in z)
    # adj(A - x0), Hermitian: diagonal c and upper entries c_up
    c = (d1 * d2 - n12, d0 * d2 - n02, d0 * d1 - n01)
    c_up = (z[1] * np.conj(z[2]) - z[0] * d2, z[0] * z[2] - z[1] * d1,
            z[1] * np.conj(z[0]) - d0 * z[2])
    h = 0.5 * x0
    w = np.divide(3.0 * h, c[0] + c[1] + c[2], out=np.zeros_like(h), where=h != 0.0)
    s = np.sqrt(sum(0.5 * (ai + h - w * ci)**2 for ai, ci in zip(a, c))
                + sum(np.abs(zk - w * ck)**2 for zk, ck in zip(z, c_up)))
    return np.stack([m + x0, m - h + s, m - h - s])


def _leading_bound_sides(u: np.ndarray):
    """`quadratic_bound_sides` of k-tuples with the entries leading,
    (n, n, k, ...); raises NonUnitaryInput unless every matrix is unitary
    to UNITARITY_TOL.

    Re tr U_p is Re tr(A B^dag) with A = U1 U2 and B = U4 U3, missing legs
    the identity, summed entry by entry as `lattice.leading_traces` sums
    it.  The k n squared angles are summed in np.sum's order over trailing
    (k, n) axes.
    """
    defect = leading_unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise NonUnitaryInput(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL:.1e}")
    n, k = u.shape[0], u.shape[2]
    legs = [u[:, :, j] for j in range(k)]
    a = legs[0] if k == 1 else leading_matmul(legs[0], legs[1])
    if k <= 2:
        re_trace = leading_sum(np.stack([a[i, i].real for i in range(n)]))
    else:
        b = legs[2] if k == 3 else leading_matmul(legs[3], legs[2])
        re_trace = leading_sum((a * np.conj(b)).real.reshape((n * n,) + a.shape[2:]))
    lhs = 2.0 * (n - re_trace)
    squares = np.arccos(np.clip(_cosines(u), -1.0, 1.0)) ** 2
    rhs = k * n * leading_sum(np.swapaxes(squares, 0, 1).reshape((k * n,) + u.shape[3:]))
    return lhs, rhs


def quadratic_bound_sides(us: np.ndarray, group: GroupSpec):
    """Both sides of A_p <= k n sum_j |x^j|^2 for each k-tuple of a stack (..., k, n, n).

    The k unitaries sit on the first k legs of a plaquette U1 U2 U3^dag
    U4^dag (1 <= k <= 4) and the remaining legs are the identity.  A_p =
    2 Re tr(1 - U_p) is the plaquette action and |x^j|^2 the squared
    coefficient norm of the log of U_j, equal to the sum of its squared
    angular eigenvalues.  Returns (lhs, rhs), each of shape (...).

    As |lambda| = arccos(cos lambda) on (-pi, pi], sum_j lambda_j**2 is
    sum_j arccos(mu_j)**2 over the eigenvalues mu_j of (U + U^dag)/2
    (`_cosines`): no eigenvectors of U, and no pairing of mirrored or
    repeated angles.  Rounding eps in mu costs about 2 eps near lambda = 0 and
    2 pi sqrt(2 eps) ~ 2e-7 at |lambda| = pi, where a scan (k = 4) has
    rhs >= 4 n pi**2 and lhs <= 4 n, so it cannot fake a violation.
    """
    us = np.asarray(us, dtype=complex)
    n = group.n
    if us.ndim < 3 or us.shape[-2:] != (n, n) or not 1 <= us.shape[-3] <= 4:
        raise ShapeMismatch(f"expected (..., k, {n}, {n}) with 1 <= k <= 4, got {us.shape}")
    k = us.shape[-3]
    # One flat stack axis: single tuples take the array loops of any stack.
    flat = np.moveaxis(us.reshape((-1, k, n, n)), (1, 2, 3), (2, 0, 1))
    return tuple(side.reshape(us.shape[:-3]) for side in _leading_bound_sides(flat))


def usable_cores() -> int:
    """Cores this process may run on; platforms without CPU affinity
    (macOS, Windows) count all."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _scan_block(re: np.ndarray, im: np.ndarray):
    """(violations, max_ratio) of the Haar quadruples of one block of
    Ginibre normals, shape (m, 4, n, n)."""
    z = _ginibre(re, im)
    _orthonormalize(z)
    lhs, rhs = _leading_bound_sides(np.swapaxes(z, 0, 1))
    # Absolute cushion: near lambda = 0 both sides vanish quadratically and
    # the trace form of lhs loses all significant digits, so a relative
    # comparison is meaningless there.
    return (int(np.count_nonzero(lhs > rhs + 1e-12)),
            float(np.max(lhs / np.maximum(rhs, 1e-30))))


def quadratic_bound_scan(group: GroupSpec, rng: np.random.Generator, count: int):
    """Sample `count` random quadruples of Haar matrices and count violations (k = 4).

    Returns (violations, max_ratio) where max_ratio is the largest observed
    lhs/rhs; the bound holds when max_ratio <= 1.  The quadruples are
    `haar_sample_batch` draws laid out (n, n, 4, count), one contiguous
    block per leg, and checked for unitarity like any other input.

    Each batch of _SCAN_BATCH quadruples draws its normals on the calling
    thread, in the order of `leading_haar`: all real parts, then the
    imaginary parts block by block.  Each block goes to one of a pool of
    worker threads, one per usable core, as soon as its normals are drawn;
    the worker orthonormalizes, checks and bounds it (`_scan_block`).  Every
    step after the draws works sample by sample, so the result does not
    depend on the block size or the number of workers.
    """
    from concurrent.futures import ThreadPoolExecutor

    n = group.n
    workers = usable_cores()
    violations = 0
    max_ratio = 0.0
    with ThreadPoolExecutor(workers) as pool:
        remaining = count
        while remaining > 0:
            m = min(_SCAN_BATCH, remaining)
            remaining -= m
            # The fewest blocks of at most _SCAN_BLOCK entries, in a multiple of
            # the worker count, so that the workers finish together.
            blocks = workers * -(-4 * n * n * m // (workers * _SCAN_BLOCK))
            block = -(-m // blocks)
            re = rng.standard_normal((m, 4, n, n))
            parts = [re[s:s + block] for s in range(0, m, block)]
            # map submits each block as soon as its imaginary parts are drawn.
            ims = (rng.standard_normal(part.shape) for part in parts)
            for v, r in pool.map(_scan_block, parts, ims):
                violations += v
                max_ratio = max(max_ratio, r)
    return violations, max_ratio

"""Hom, tensor, Matlis duality and the natural transformations between
their composites.

Basis conventions are fixed once and reused everywhere:

* a hom element phi: M -> N is a (dim N) x (dim M) matrix, flattened
  row-major; the hom basis is the deterministic kernel basis of the
  commutation constraints, so coordinates of any R-linear map are just
  its flattened matrix restricted to the kernel's free indices;
* M (x)_R N is the Matlis dual of Hom_R(N, M^v), with the same basis:
  an element of M (x)_k N ordered (a, b) -> a*dimN + b is a flattened
  dim M x dim N matrix, i.e. a map N -> M^v, and the tensor basis is
  dual to the hom basis.

`hom_module`, `tensor_module` and `matlis_dual` return name-free
modules.  The first two are wrapped by `module.memoized` and return
read-only arrays, so one value serves every caller, and the natural
maps and the tensor's own Hom reuse it.  `matlis_dual` is not memoized:
it is one transpose per call, and a memoized copy gained less on the
sweep-small benchmark than the spread between its runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RingMismatch
from .module import Module, ModuleMap, memoized, regular_module


@dataclass(frozen=True)
class HomData:
    """Hom module plus its explicit basis of map matrices.

    basis has shape (dimN * dimM, h); column j flattened row-major is
    the matrix of the j-th basis homomorphism.  support is the tuple of
    coordinates where the basis is the identity, so coordinates of a
    map are vec(map)[support].
    """
    module: Module
    basis: np.ndarray
    support: tuple

    def __post_init__(self):
        self.basis.setflags(write=False)

    def coords(self, flat):
        """Coordinates of R-linear maps given as flattened columns."""
        p = self.module.ring.p
        flat = np.asarray(flat)
        if self.basis.shape[0] == 0:
            # Hom into or out of a zero space: every map is zero
            return linalg.zeros(0, flat.shape[1] if flat.ndim > 1 else 1)
        flat = linalg.as_fp(flat, p).reshape(self.basis.shape[0], -1)
        if not linalg.in_span(self.basis, self.support, flat, p):
            raise ArithmeticError("vector is not an R-linear map")
        return flat[self.support, :]


@dataclass(frozen=True)
class TensorData:
    """Module tensor with projection from and section into M (x)_k N."""
    module: Module
    proj: np.ndarray
    sect: np.ndarray

    def __post_init__(self):
        self.proj.setflags(write=False)
        self.sect.setflags(write=False)


@memoized
def hom_module(m, n):
    """Hom_R(M, N) with the ring acting through the target."""
    if m.ring.key != n.ring.key:
        raise RingMismatch("functor arguments live over different rings")
    ring = m.ring
    p = ring.p
    nm, nn = m.dim, n.dim
    # vec(X A_i) - vec(B_i X) = 0, row-major vec: entry (i, a, b, c, e)
    # is delta_ac A_i[e, b] - B_i[a, c] delta_be
    constraint = (linalg.eye_kron(nn, m.action.transpose(0, 2, 1))
                  - linalg.kron_eye(n.action, nm)) % p
    constraint = constraint.reshape(ring.dim * nn * nm, nn * nm)
    basis, support = linalg.kernel_with_support(constraint, p)
    h = basis.shape[1]
    # B_i X for every basis column X, read as an nn x nm matrix
    action = (n.action @ basis.reshape(nn, nm * h) % p).reshape(
        ring.dim, nn * nm, h)[:, support, :]
    module = Module(ring, h, action, check=False)
    return HomData(module, basis, tuple(support))


@memoized
def tensor_module(m, n):
    """M (x)_R N as the Matlis dual of Hom_R(N, M^v), since (M (x)_R N)^v
    = Hom_R(N, M^v) for finite-length modules.

    The constraints X B_i - A_i^T X of Hom(N, M^v) are, up to sign, the
    bilinearity relations (A_i m) (x) n - m (x) (B_i n) of M (x)_k N in
    the same (a, b) -> a*dimN + b order.  An rref depends only on the
    row space, so the transposed hom basis is the projection of the
    quotient by those relations onto its rref-pivot complement, the unit
    columns at the hom support are its section, and the transposed hom
    action is the quotient action.
    """
    hom = hom_module(n, matlis_dual(m))
    return TensorData(matlis_dual(hom.module), hom.basis.T,
                      linalg.identity(m.dim * n.dim)[:, hom.support])


def matlis_dual(m):
    """Base-field linear dual with transpose action."""
    action = np.stack([m.action[i].T for i in range(m.ring.dim)])
    return Module(m.ring, m.dim, action, check=False)


def injective_hull(ring):
    """E = injective hull of the residue field = dual of the regular
    module: e_i acts by the transpose of multiplication by e_i."""
    return Module(ring, ring.dim, ring.mult.transpose(0, 2, 1), name="E",
                  check=False)


def homothety_map(m):
    """chi: R -> Hom(M, M), e_i -> action of e_i."""
    hom = hom_module(m, m)
    flat = np.stack([m.action[i].reshape(-1) for i in range(m.ring.dim)],
                    axis=1)
    coords = hom.coords(flat)
    return ModuleMap(regular_module(m.ring), hom.module, coords)


def biduality_map(l, m):
    """delta: L -> Hom(Hom(L, M), M), l -> (phi -> phi(l))."""
    h1 = hom_module(l, m)
    h2 = hom_module(h1.module, m)
    k1 = h1.basis.shape[1]
    # column a evaluates the hom basis at e_a: entry (x, j) is phi_j[x, a]
    flat = h1.basis.reshape(m.dim, l.dim, k1).transpose(0, 2, 1).reshape(
        m.dim * k1, l.dim)
    coords = h2.coords(flat)
    return ModuleMap(l, h2.module, coords)


def evaluation_map(lp, l):
    """xi: Hom(L', L) (x) L' -> L, phi (x) x -> phi(x)."""
    p = l.ring.p
    hom = hom_module(lp, l)
    tens = tensor_module(hom.module, lp)
    h = hom.basis.shape[1]
    # phi_j (x) e_y -> phi_j e_y: block j of the columns is phi_j
    full = hom.basis.reshape(l.dim, lp.dim, h).transpose(0, 2, 1).reshape(
        l.dim, h * lp.dim)
    matrix = full @ tens.sect % p
    return ModuleMap(tens.module, l, matrix)


def gamma_map(lp, l):
    """gamma: L -> Hom(L', L' (x) L), l -> (x -> x (x) l)."""
    tens = tensor_module(lp, l)
    hom = hom_module(lp, tens.module)
    # column a is e_b -> e_b (x) e_a: entry (x, b) is proj[x, b*dim L + a]
    flat = tens.proj.reshape(tens.module.dim * lp.dim, l.dim)
    coords = hom.coords(flat)
    return ModuleMap(l, hom.module, coords)


def is_isomorphism(f):
    """(flag, {'injective': ..., 'surjective': ...}) from the rank."""
    r = linalg.rank(f.matrix, f.source.ring.p)
    injective = r == f.source.dim
    surjective = r == f.target.dim
    return injective and surjective, {
        "injective": injective, "surjective": surjective}

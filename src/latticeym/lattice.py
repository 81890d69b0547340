"""Hypercubic lattice geometry and gauge-field configurations: complex
arrays of bond matrices, (n_bonds, n, n), or (R, n_bonds, n, n) for R replicas.

A geometry object is a bundle of integer tables: site coordinates, bonds as
(origin site, direction) pairs, oriented plaquettes as ordered 4-tuples of
bond indices, and the gauge-fixed spanning tree.  The plaquette product
follows the convention

    U_p = U_mu(x) U_nu(x + e_mu) U_mu(x + e_nu)^dag U_nu(x)^dag,

so the dagger pattern of the four legs is always (no, no, yes, yes).

Gauge fixing uses the enhanced temporal gauge: bond b_k(x) is fixed to the
identity iff x_j = 0 for every j < k and x_k <= L - 2.  Direction 0 gives the
usual temporal gauge, the remaining directions add combs on the x^0 = 0
boundary slab until the fixed set is a maximal tree (L^d - 1 bonds).  The
builder verifies the tree property (L^d - 1 bonds forming one connected
component) rather than trusting the counting.

For Metropolis updates the builder also groups the retained bonds into at
most four checkerboard classes in any dimension.  Read a direction mu < 4 as
an element of GF(4) = {0, 1, w, w^2 = w + 1}, written as a 2-bit code so
that addition is XOR; the bond (x, mu) falls in class

    c(x, mu) = mu + w sum_nu (x_nu mod 2) (mu + nu).

A step x -> x + e_nu flips x_nu mod 2 (a periodic wrap moves x_nu by L - 1,
odd for even L) and so adds w (mu + nu) to c(., mu).  The legs of the
plaquette (mu, nu) at x therefore fall in the classes X, X + B, Y + B and Y,
with X = c(x, mu), Y = c(x, nu) and B = w (mu + nu) != 0.  Since
X + Y = (mu + nu)(1 + w s), with s the parity of sum(x), is mu + nu or
w^2 (mu + nu), neither 0 nor B, the four classes differ: no class holds two
bonds of one plaquette, and a whole class can be updated at once.

Per class the builder precomputes one gather list, the rows of the stacked
table [U, U^dag, 0] of `dagger_table` that hold the three-leg staples M_p
of every containing plaquette, arranged so that A_p = 2n - 2 Re tr(U_b M_p),
followed by the bond's own row; and one scatter list, the rows of U_b and
U_b^dag, so that a class is read and written back with one index along the
row axis of the (n, n, rows, R) table each.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidLattice, ShapeMismatch
from .groups import leading_matmul, leading_sum

# Staple leg recipe: for a bond sitting at position l of a plaquette, the
# matrix M with Re tr(U_b M) = Re tr(U_p) is the ordered product of the other
# three legs (row l: leg positions, and 1 where the leg enters daggered).
# Positions 2 and 3 enter the plaquette daggered, which flips their staples
# via Re tr(U^dag S) = Re tr(U S^dag).
_STAPLE_LEGS = np.array([[1, 2, 3], [2, 3, 0], [1, 0, 3], [2, 1, 0]])
_STAPLE_DAGS = np.array([[0, 1, 1], [1, 1, 0], [1, 1, 0], [0, 1, 1]])

# Multiplication by a generator w of GF(4) = {0, 1, w, w^2 = w + 1}, the
# elements written as 2-bit codes (w = 2) so that addition is XOR.
_TIMES_OMEGA = np.array([0, 2, 3, 1])


@dataclass
class LatticeGeometry:
    d: int
    L: int
    boundary: str
    coords: np.ndarray          # (n_sites, d) int
    bond_site: np.ndarray       # (n_bonds,) origin site index
    bond_dir: np.ndarray        # (n_bonds,) direction mu
    bond_head: np.ndarray       # (n_bonds,) endpoint site index
    bond_id: np.ndarray         # (d, n_sites) bond lookup, -1 where absent
    plaq_legs: np.ndarray       # (n_plaquettes, 4) bond indices
    fixed_mask: np.ndarray      # (n_bonds,) bool
    classes: list = field(default_factory=list)        # arrays of bond idx
    gather_rows: list = field(default_factory=list)    # (3 P + 1, n_c) table rows
    scatter_rows: list = field(default_factory=list)   # (2 n_c,) table rows

    @property
    def n_sites(self):
        return self.coords.shape[0]

    @property
    def n_bonds(self):
        return self.bond_site.shape[0]

    @property
    def n_plaquettes(self):
        return self.plaq_legs.shape[0]


def _site_shift(coords, mu, L, periodic):
    """Index of coords + e_mu, or -1 if it leaves a free lattice."""
    out = coords.copy()
    out[:, mu] += 1
    if periodic:
        out[:, mu] %= L
        valid = np.ones(len(out), dtype=bool)
    else:
        valid = out[:, mu] < L
        out[~valid, mu] = 0  # placeholder, masked out below
    idx = np.ravel_multi_index(tuple(out.T), (L,) * coords.shape[1])
    return np.where(valid, idx, -1)


def build_geometry(d: int, L: int, boundary: str = "free") -> LatticeGeometry:
    if d not in (2, 3, 4):
        raise InvalidLattice(f"d must be 2, 3 or 4, got {d}")
    if L < 2 or L % 2 != 0:
        raise InvalidLattice(f"side length must be even and >= 2, got L = {L}")
    if boundary not in ("free", "periodic"):
        raise InvalidLattice(f"boundary must be 'free' or 'periodic', got {boundary!r}")
    periodic = boundary == "periodic"
    n_sites = L**d
    coords = np.stack(np.unravel_index(np.arange(n_sites), (L,) * d), axis=1)

    # Bonds: free-pattern bonds first (x_mu <= L-2, grouped by direction),
    # then the wrap bonds (x_mu = L-1) for periodic closure.
    bond_site, bond_dir = [], []
    for mu in range(d):
        sites = np.flatnonzero(coords[:, mu] <= L - 2)
        bond_site.append(sites)
        bond_dir.append(np.full(sites.size, mu))
    if periodic:
        for mu in range(d):
            sites = np.flatnonzero(coords[:, mu] == L - 1)
            bond_site.append(sites)
            bond_dir.append(np.full(sites.size, mu))
    bond_site = np.concatenate(bond_site)
    bond_dir = np.concatenate(bond_dir)
    bond_head = np.empty(bond_site.size, dtype=np.int64)
    for mu in range(d):
        sel = bond_dir == mu
        bond_head[sel] = _site_shift(coords[bond_site[sel]], mu, L, True)

    bond_id = np.full((d, n_sites), -1, dtype=np.int64)
    bond_id[bond_dir, bond_site] = np.arange(bond_site.size)

    # Plaquettes, plane by plane in lexicographic (mu, nu) order.
    plaq_legs = []
    for mu in range(d):
        for nu in range(mu + 1, d):
            if periodic:
                sites = np.arange(n_sites)
            else:
                sites = np.flatnonzero(
                    (coords[:, mu] <= L - 2) & (coords[:, nu] <= L - 2))
            x_mu = _site_shift(coords[sites], mu, L, periodic)
            x_nu = _site_shift(coords[sites], nu, L, periodic)
            legs = np.stack([
                bond_id[mu, sites],
                bond_id[nu, x_mu],
                bond_id[mu, x_nu],
                bond_id[nu, sites],
            ], axis=1)
            if np.any(legs < 0):
                raise InvalidLattice("plaquette references a missing bond")
            plaq_legs.append(legs)
    plaq_legs = np.concatenate(plaq_legs, axis=0)

    # Enhanced temporal gauge: fix b_k(x) iff x_j = 0 for j < k, x_k <= L-2.
    # Wrap bonds have x_k = L-1 in their own direction, so the x_k <= L-2
    # clause keeps them out automatically and the same tree works for both
    # boundary conditions.
    fixed_mask = np.zeros(bond_site.size, dtype=bool)
    for k in range(d):
        sel = coords[bond_site, k] <= L - 2
        for j in range(k):
            sel &= coords[bond_site, j] == 0
        fixed_mask |= (bond_dir == k) & sel

    _check_spanning_tree(n_sites, bond_site[fixed_mask], bond_head[fixed_mask])

    geom = LatticeGeometry(
        d=d, L=L, boundary=boundary, coords=coords,
        bond_site=bond_site, bond_dir=bond_dir, bond_head=bond_head,
        bond_id=bond_id, plaq_legs=plaq_legs, fixed_mask=fixed_mask)
    _attach_update_tables(geom)
    return geom


def _check_spanning_tree(n_sites: int, tails: np.ndarray, heads: np.ndarray) -> None:
    """Raise InvalidLattice unless the bonds tails[i] -- heads[i] form a spanning tree.

    A graph on n_sites vertices is a tree iff it has n_sites - 1 edges and
    one connected component; the components are counted by union-find.
    """
    parent = list(range(n_sites))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = n_sites
    for tail, head in zip(tails.tolist(), heads.tolist()):
        a, b = root(tail), root(head)
        if a != b:
            parent[a] = b
            components -= 1
    if tails.size != n_sites - 1 or components != 1:
        raise InvalidLattice(
            f"gauge-fixed set is not a spanning tree: {tails.size} bonds, "
            f"{components} components on {n_sites} sites")


def _attach_update_tables(geom: LatticeGeometry) -> None:
    """Checkerboard classes plus their gather and scatter rows.

    Bond (x, mu) joins class mu + w sum_nu (x_nu mod 2)(mu + nu) of GF(4):
    along plaquette (mu, nu) the class moves by w (mu + nu) != 0 per step,
    and the classes of the two directions at one corner differ by mu + nu or
    w^2 (mu + nu), so the four legs of a plaquette land in four classes
    (module docstring).  The clash check guards that argument.

    Rows index axis 2 of the table [U, U^dag, 0] (`dagger_table`): bond b
    enters as row b, or as row b + n_bonds when daggered.  A class of n_c
    bonds in at most P plaquettes each gets a (3 P + 1, n_c) gather array:
    row k P + p holds leg k of the staple in slot p, and row 3 P the bond
    itself.  Bonds in fewer than P plaquettes are padded with the zero row
    2 n_bonds, whose staples vanish.  The scatter array [members, members +
    n_bonds] writes U and U^dag back together.
    """
    n_b = geom.n_bonds
    mu = geom.bond_dir
    shift = np.bitwise_xor.reduce(geom.coords[geom.bond_site] % 2
                                  * (mu[:, None] ^ np.arange(geom.d)), axis=1)
    key = np.where(geom.fixed_mask, -1, mu ^ _TIMES_OMEGA[shift])
    leg_key = key[geom.plaq_legs]
    clash = (leg_key[:, :, None] == leg_key[:, None, :]) & (leg_key[:, :, None] >= 0)
    if np.any(clash & ~np.eye(4, dtype=bool)):
        raise InvalidLattice("a checkerboard class holds two bonds of one plaquette")

    # Retained (bond, staple) incidences in plaquette order, grouped by bond.
    pos = np.tile(np.arange(4), geom.n_plaquettes)
    plaq = np.repeat(np.arange(geom.n_plaquettes), 4)
    bond = geom.plaq_legs.ravel()
    keep = key[bond] >= 0
    pos, plaq, bond = pos[keep], plaq[keep], bond[keep]
    staples = geom.plaq_legs[plaq[:, None], _STAPLE_LEGS[pos]] + n_b * _STAPLE_DAGS[pos]
    order = np.argsort(bond, kind="stable")
    bond, staples = bond[order], staples[order]
    slot = np.arange(bond.size) - np.searchsorted(bond, bond)

    row = np.empty(n_b, dtype=np.int64)
    for k in np.unique(key[key >= 0]):
        members = np.flatnonzero(key == k)
        row[members] = np.arange(members.size)
        sel = key[bond] == k
        legs = np.full((3, slot[sel].max() + 1, members.size), 2 * n_b, dtype=np.int64)
        legs[:, slot[sel], row[bond[sel]]] = staples[sel].T
        geom.classes.append(members)
        geom.gather_rows.append(np.concatenate([legs.reshape(-1, members.size),
                                                members[None]]))
        geom.scatter_rows.append(np.concatenate([members, members + n_b]))


def cold_start(geom: LatticeGeometry, n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n, dtype=np.complex128), (geom.n_bonds, n, n)).copy()


def _entries_leading(u: np.ndarray) -> np.ndarray:
    """View of bond matrices (..., n_bonds, n, n) as (n, n, n_bonds, ...)."""
    return np.moveaxis(u, (-2, -1, -3), (0, 1, 2))


def dagger_table(u: np.ndarray) -> np.ndarray:
    """Entries-leading stacked [U, U^dag, 0]: bonds (..., n_bonds, n, n) to
    a C-ordered table of shape (n, n, 2 n_bonds + 1, ...).

    Entry (i, j) of row b holds U_b[i, j], of row b + n_bonds U_b^dag[i, j],
    and the last row is zero; the gather and scatter rows of
    `LatticeGeometry` index axis 2.  With the entries leading and the
    replicas last, each leg of a class gathered along axis 2 is one
    contiguous run of plaquettes x bonds x replicas per matrix entry.
    """
    u = _entries_leading(u)
    zero = np.zeros(u.shape[:2] + (1,) + u.shape[3:], dtype=u.dtype)
    table = np.concatenate([u, np.conj(np.swapaxes(u, 0, 1)), zero], axis=2)
    return np.ascontiguousarray(table)  # concatenate keeps the inputs' memory order


def _check_bonds(u, geom: LatticeGeometry) -> np.ndarray:
    """`_entries_leading` view of a configuration or a batch u of `geom`."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim not in (3, 4) or u.shape[-1] != u.shape[-2] or u.shape[-3] != geom.n_bonds:
        raise ShapeMismatch(f"expected {geom.n_bonds} bonds of square matrices, got {u.shape}")
    return _entries_leading(u)


def leading_traces(u: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """tr U_p for the plaquettes with leg rows `legs` (P, 4), shape (P, ...).

    u holds bond matrices with the entries leading and the rows on axis 2,
    (n, n, rows, ...): the sampler's `dagger_table`, or an `_entries_leading`
    view of one configuration or a batch.  tr(A B^dag) with A = U_1 U_2 and
    B = U_4 U_3 is summed entry by entry, without forming U_p, in the order
    np.sum takes over trailing (n, n) axes.
    """
    g = np.take(u, legs.T, axis=2)
    a = leading_matmul(g[:, :, 0], g[:, :, 1])
    b = leading_matmul(g[:, :, 3], g[:, :, 2])
    return leading_sum((a * np.conj(b)).reshape((-1,) + a.shape[2:]))


def leading_action(u: np.ndarray, geom: LatticeGeometry):
    """`wilson_action` of entries-leading bond matrices (n, n, rows, ...),
    the plaquettes added in index order at every batch size (np.sum would
    add a lone configuration's pairwise)."""
    traces = leading_traces(u, geom.plaq_legs)
    action = 2.0 * (u.shape[0] * geom.n_plaquettes - np.cumsum(traces.real, axis=0)[-1])
    return float(action) if action.ndim == 0 else action


def leading_field_traces(u: np.ndarray, geom: LatticeGeometry, coupling,
                         indices) -> np.ndarray:
    """`scaled_field_traces` of entries-leading bond matrices (n, n, rows, ...):
    shape (..., r)."""
    legs = geom.plaq_legs[np.asarray(indices)]
    return np.sqrt(coupling.beta) * np.moveaxis(leading_traces(u, legs).imag, 0, -1)


def wilson_action(u, geom: LatticeGeometry):
    """Sum over plaquettes of 2 Re tr(1 - U_p); nonnegative.

    A float for one configuration, an (R,) array for a batch.
    """
    return leading_action(_check_bonds(u, geom), geom)


def scaled_field_traces(u, geom: LatticeGeometry, coupling, indices) -> np.ndarray:
    """sqrt(beta) Im tr U_p over the given plaquette indices, shape (..., r)."""
    return leading_field_traces(_check_bonds(u, geom), geom, coupling, indices)

"""Geometry tests: counts, spanning tree, checkerboard classes, gauge
invariance, field variants."""

import numpy as np
import pytest

from latticeym.errors import InvalidLattice, NonUnitaryInput, ShapeMismatch
from latticeym.factorized import lattice_counts
from latticeym.groups import GroupSpec, haar_sample_batch, unitarity_defect
from latticeym.lattice import (_check_spanning_tree, build_geometry, cold_start, dagger_table,
                               leading_action, leading_field_traces, scaled_field_traces,
                               wilson_action)
from latticeym.single_bond import CouplingSpec

GRID = [(d, L) for d in (2, 3, 4) for L in (2, 4)]


def random_config(geom, n, rng, include_fixed=False):
    cfg = cold_start(geom, n)
    bonds = range(geom.n_bonds) if include_fixed else np.flatnonzero(~geom.fixed_mask)
    for b in bonds:
        cfg[b] = haar_sample_batch(GroupSpec(n), rng, 1)[0]
    return cfg


def plaquette_oracle(cfg, geom):
    """U_p = U_1 U_2 U_3^dag U_4^dag of every plaquette by np.matmul,
    shape (..., n_plaquettes, n, n)."""
    g = cfg[..., geom.plaq_legs, :, :]
    dag = np.conj(np.swapaxes(g, -1, -2))
    return g[..., 0, :, :] @ g[..., 1, :, :] @ dag[..., 2, :, :] @ dag[..., 3, :, :]


def gauge_transform(config, geom, site, v):
    """Apply U_b -> V U_b (b leaving `site`) and U_b -> U_b V^dag (b entering)."""
    if unitarity_defect(v) > 1e-10:
        raise NonUnitaryInput("unitarity defect above 1e-10")
    out = config.copy()
    leaving = np.flatnonzero(geom.bond_site == site)
    entering = np.flatnonzero(geom.bond_head == site)
    out[leaving] = v @ out[leaving]
    out[entering] = out[entering] @ np.conj(v.T)
    return out


# ---------------------------------------------------------------------------
# construction and counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,L", GRID)
def test_free_counts_match_closed_forms(d, L):
    geom = build_geometry(d, L, "free")
    c = lattice_counts(d, L)
    assert geom.n_bonds == c.bonds
    assert geom.n_plaquettes == c.plaquettes
    assert np.count_nonzero(~geom.fixed_mask) == c.retained_bonds
    assert int(geom.fixed_mask.sum()) == L**d - 1


@pytest.mark.parametrize("d,L", GRID)
def test_periodic_counts(d, L):
    geom = build_geometry(d, L, "periodic")
    c = lattice_counts(d, L)
    assert geom.n_bonds == c.bonds + c.extra_bonds
    assert np.count_nonzero(~geom.fixed_mask) == c.retained_bonds + c.extra_bonds
    # wraparound multiplies plaquettes; never fewer than the free count
    assert geom.n_plaquettes == (d * (d - 1) // 2) * L**d
    assert geom.n_plaquettes >= c.plaquettes


@pytest.mark.parametrize("d,L", GRID)
@pytest.mark.parametrize("boundary", ["free", "periodic"])
def test_fixed_set_is_spanning_tree(d, L, boundary):
    # Independent of the builder's own connected-components check: BFS over
    # fixed bonds.
    geom = build_geometry(d, L, boundary)
    fixed = np.flatnonzero(geom.fixed_mask)
    assert fixed.size == geom.n_sites - 1
    adj = {s: [] for s in range(geom.n_sites)}
    for b in fixed:
        adj[int(geom.bond_site[b])].append(int(geom.bond_head[b]))
        adj[int(geom.bond_head[b])].append(int(geom.bond_site[b]))
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for s in frontier:
            for t in adj[s]:
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    assert len(seen) == geom.n_sites  # connected + right edge count => tree


def test_spanning_tree_check_rejects_cycle_and_forest():
    # Four sites: a triangle with site 3 left out has the tree's edge count
    # but two components; two disjoint edges are a forest one edge short.
    _check_spanning_tree(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    with pytest.raises(InvalidLattice, match="spanning tree"):
        _check_spanning_tree(4, np.array([0, 1, 2]), np.array([1, 2, 0]))
    with pytest.raises(InvalidLattice, match="spanning tree"):
        _check_spanning_tree(4, np.array([0, 2]), np.array([1, 3]))


def test_d2_comb_structure():
    # Fixed set: all 12 temporal bonds plus the three x^0 = 0 spatial bonds.
    geom = build_geometry(2, 4, "free")
    fixed = np.flatnonzero(geom.fixed_mask)
    assert fixed.size == 15
    temporal = fixed[geom.bond_dir[fixed] == 0]
    spatial = fixed[geom.bond_dir[fixed] == 1]
    assert temporal.size == 12
    assert spatial.size == 3
    assert np.all(geom.coords[geom.bond_site[spatial], 0] == 0)


def test_d2_plaquette_bond_bijection():
    # In the comb gauge every plaquette's temporal legs are fixed and its
    # second leg b_1(x + e_0) is retained; the map plaquette -> second leg is
    # a bijection onto the retained set.  (Interior plaquettes also contain a
    # second retained bond at leg 3, so the telescoped change of variables,
    # not a naive per-plaquette split, is what factorizes the action.)
    geom = build_geometry(2, 4, "free")
    leg1 = geom.plaq_legs[:, 1]
    assert np.all(~geom.fixed_mask[leg1])
    assert np.all(geom.fixed_mask[geom.plaq_legs[:, 0]])
    assert np.all(geom.fixed_mask[geom.plaq_legs[:, 2]])
    assert sorted(leg1) == sorted(np.flatnonzero(~geom.fixed_mask))


def gf4_times(a, b):
    """Product in GF(4) = GF(2)[w] / (w^2 + w + 1), elements as 2-bit codes."""
    product = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
    return product ^ 0b111 if product & 0b100 else product


@pytest.mark.parametrize("d,L", [(d, L) for d in (2, 3, 4) for L in (2, 4, 6)
                                 if d < 4 or L <= 4])
@pytest.mark.parametrize("boundary", ["free", "periodic"])
def test_checkerboard_classes_partition_and_conflict_free(d, L, boundary):
    geom = build_geometry(d, L, boundary)
    members = np.concatenate(geom.classes)
    assert np.array_equal(np.sort(members), np.flatnonzero(~geom.fixed_mask))  # each bond once
    # The sweep counts its bonds from the gather tables.
    assert [g.shape[1] for g in geom.gather_rows] == [cls.size for cls in geom.classes]
    assert len(geom.classes) <= 4
    label = np.full(geom.n_bonds, -1)
    for k, cls in enumerate(geom.classes):
        label[cls] = k
    legs = label[geom.plaq_legs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.any((legs[:, i] == legs[:, j]) & (legs[:, i] >= 0))
    # keyed by mu + w sum_nu (x_nu mod 2)(mu + nu) in GF(4), one key per class
    keys = []
    for cls in geom.classes:
        key = set()
        for b in cls:
            mu, x = int(geom.bond_dir[b]), geom.coords[geom.bond_site[b]]
            shift = 0
            for nu in range(d):
                shift ^= int(x[nu] % 2) * (mu ^ nu)
            key.add(mu ^ gf4_times(2, shift))
        assert len(key) == 1
        keys += key
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("boundary", ["free", "periodic"])
def test_staple_tables_reproduce_plaquette_traces(boundary, rng):
    # Re tr(U_b sum of staples) is the sum of Re tr U_p over the plaquettes
    # containing b, for every retained bond.
    # The gather rows end with the bond's own row, and the scatter rows
    # address U_b and U_b^dag.
    geom = build_geometry(3, 4, boundary)
    cfg = random_config(geom, 2, rng, include_fixed=True)
    table = dagger_table(cfg)
    re_tr = np.trace(plaquette_oracle(cfg, geom), axis1=-2, axis2=-1).real
    for members, gather, scatter in zip(geom.classes, geom.gather_rows,
                                        geom.scatter_rows):
        g = np.moveaxis(table[:, :, gather], (0, 1), (-2, -1))
        slots = (gather.shape[0] - 1) // 3
        assert np.array_equal(g[-1], cfg[members])
        assert np.array_equal(scatter, np.concatenate([members, members + geom.n_bonds]))
        t = (g[:slots] @ g[slots:2 * slots] @ g[2 * slots:3 * slots]).sum(axis=0)
        got = np.trace(cfg[members] @ t, axis1=-2, axis2=-1).real
        want = [re_tr[np.any(geom.plaq_legs == b, axis=1)].sum() for b in members]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_class_counts_d3_l4():
    # Four GF(4) classes cover every dimension and boundary; d=3, L=4 and
    # d=4, L=4 use all four.
    for d in (3, 4):
        for boundary in ("free", "periodic"):
            assert len(build_geometry(d, 4, boundary).classes) == 4


@pytest.mark.parametrize("d,L,boundary", [(5, 4, "free"), (2, 3, "free"),
                                          (2, 0, "free"), (3, 4, "warped")])
def test_build_rejects_bad_input(d, L, boundary):
    with pytest.raises(InvalidLattice):
        build_geometry(d, L, boundary)


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("boundary", ["free", "periodic"])
def test_identity_config_zero_action(boundary):
    geom = build_geometry(3, 2, boundary)
    cfg = cold_start(geom, 2)
    assert wilson_action(cfg, geom) == 0.0
    assert unitarity_defect(cfg) == 0.0


def test_single_bond_contribution_d2():
    # One retained bond set to e^{i theta} contributes 2(1 - cos theta) per
    # containing plaquette; an interior vertical bond sits in two.
    geom = build_geometry(2, 4, "free")
    theta = 0.9
    b = geom.bond_id[1, np.ravel_multi_index((1, 1), (4, 4))]
    assert not geom.fixed_mask[b]
    containing = int(np.sum(geom.plaq_legs == b))
    assert containing == 2
    cfg = cold_start(geom, 1)
    cfg[b] = np.exp(1j * theta)
    assert wilson_action(cfg, geom) == pytest.approx(
        containing * 2 * (1 - np.cos(theta)), rel=1e-13)


def test_action_nonnegative_and_gauge_invariant(rng):
    geom = build_geometry(3, 2, "periodic")
    cfg = random_config(geom, 2, rng, include_fixed=True)
    base = wilson_action(cfg, geom)
    assert base >= 0.0
    for site in (0, 3, 7):
        v = haar_sample_batch(GroupSpec(2), rng, 1)[0]
        transformed = gauge_transform(cfg, geom, site, v)
        assert wilson_action(transformed, geom) == pytest.approx(base, abs=1e-10)
        # field traces are gauge invariant too
        before = scaled_field_traces(cfg, geom, CouplingSpec(d=3, a=1.0, g2=1.0),
                                     np.arange(geom.n_plaquettes))
        after = scaled_field_traces(transformed, geom,
                                    CouplingSpec(d=3, a=1.0, g2=1.0),
                                    np.arange(geom.n_plaquettes))
        assert np.max(np.abs(before - after)) < 1e-10


def test_gauge_transform_rejects_nonunitary():
    geom = build_geometry(2, 2, "free")
    cfg = cold_start(geom, 2)
    with pytest.raises(NonUnitaryInput):
        gauge_transform(cfg, geom, 0, np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_config_shape_validation():
    geom = build_geometry(2, 4, "free")
    with pytest.raises(ShapeMismatch):
        wilson_action(np.zeros((geom.n_bonds, 2, 3)), geom)
    with pytest.raises(ShapeMismatch):
        scaled_field_traces(np.zeros((geom.n_bonds, 2)), geom,
                            CouplingSpec(d=2, a=1.0, g2=1.0), [0])
    short = np.stack([np.eye(2, dtype=complex)] * 5)
    with pytest.raises(ShapeMismatch):
        wilson_action(short, geom)


def test_require_unitary_flags_drift():
    geom = build_geometry(2, 2, "free")
    cfg = cold_start(geom, 1)
    cfg[0] *= 1.0 + 1e-6
    assert unitarity_defect(cfg) > 1e-10


# ---------------------------------------------------------------------------
# plaquette field variants
# ---------------------------------------------------------------------------
#
# M = sqrt(beta) Im tr U_p (scaled field), F = a^(-d/2) M (physical
# normalization), S = a^(d-4) A_p / g with A_p = 2 (n - Re tr U_p) (action
# density; nonnegative).


def field_variants(cfg, geom, cp):
    m = scaled_field_traces(cfg, geom, cp, np.arange(geom.n_plaquettes))
    f = cp.a ** (-cp.d / 2.0) * m
    tr = np.trace(plaquette_oracle(cfg, geom), axis1=-2, axis2=-1)
    s = cp.a ** (cp.d - 4) * 2.0 * (cfg.shape[-1] - tr.real) / np.sqrt(cp.g2)
    return m, f, s, tr


def test_field_variants_identity_config():
    geom = build_geometry(2, 4, "free")
    cfg = cold_start(geom, 1)
    cp = CouplingSpec(d=2, a=0.5, g2=1.0)
    for variant in field_variants(cfg, geom, cp)[:3]:
        assert np.all(variant == 0.0)


def test_field_scaling_identities(rng):
    geom = build_geometry(3, 2, "free")
    cfg = random_config(geom, 2, rng)
    cp = CouplingSpec(d=3, a=0.5, g2=0.8)
    m, f, s, tr = field_variants(cfg, geom, cp)
    assert np.allclose(m, np.sqrt(cp.beta) * tr.imag, rtol=1e-12, atol=1e-14)
    assert np.allclose(m, cp.a ** (cp.d / 2) * f, rtol=1e-12, atol=0)
    assert np.all(s >= 0.0)
    # the action densities add up to the Wilson action
    assert np.sum(s) * np.sqrt(cp.g2) * cp.a ** (4 - cp.d) == pytest.approx(
        wilson_action(cfg, geom), rel=1e-12)


def test_abelian_field_is_root_beta_sine():
    geom = build_geometry(2, 2, "free")
    cfg = cold_start(geom, 1)
    theta = 0.37
    cfg[int(np.flatnonzero(~geom.fixed_mask)[0])] = np.exp(1j * theta)
    cp = CouplingSpec(d=2, a=0.5, g2=0.9)
    expected = np.sqrt(cp.beta) * np.sin(theta)
    assert scaled_field_traces(cfg, geom, cp, [0])[0] == pytest.approx(expected, rel=1e-13)


def test_batched_config_matches_each_replica(rng):
    geom = build_geometry(3, 2, "periodic")
    cfgs = [random_config(geom, 2, rng, include_fixed=True) for _ in range(3)]
    batch = np.stack(cfgs)
    cp = CouplingSpec(d=3, a=1.0, g2=1.0)
    actions = wilson_action(batch, geom)
    traces = scaled_field_traces(batch, geom, cp, [0, 5])
    assert actions.shape == (3,) and traces.shape == (3, 2)
    for r, cfg in enumerate(cfgs):
        assert actions[r] == pytest.approx(wilson_action(cfg, geom), rel=1e-14)
        assert np.allclose(traces[r], scaled_field_traces(cfg, geom, cp, [0, 5]),
                           rtol=1e-14, atol=0)
    assert unitarity_defect(batch) < 1e-12


@pytest.mark.parametrize("replicas", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampler_table_layout_contract(n, replicas):
    # dagger_table keeps the rows before the replicas, (n, n, 2 n_bonds + 1,
    # R), and the measurements read it bit for bit as the configuration
    # views do, one row per replica.
    geom = build_geometry(3, 2, "periodic")
    n_b = geom.n_bonds
    u = haar_sample_batch(GroupSpec(n), np.random.default_rng(11), replicas * n_b)
    u = u.reshape(replicas, n_b, n, n)
    table = dagger_table(u)
    assert table.shape == (n, n, 2 * n_b + 1, replicas) and table.flags.c_contiguous
    assert np.array_equal(np.moveaxis(table[:, :, :n_b], (0, 1, 2), (-2, -1, -3)), u)
    assert np.array_equal(np.moveaxis(table[:, :, n_b:2 * n_b], (0, 1, 2), (-1, -2, -3)),
                          np.conj(u))
    assert np.all(table[:, :, -1] == 0.0)
    single = dagger_table(u[0])
    assert single.shape == (n, n, 2 * n_b + 1)
    assert np.array_equal(single, table[..., 0])

    actions = leading_action(table, geom)
    assert np.array_equal(wilson_action(u, geom), actions)
    cp = CouplingSpec(d=3, a=1.0, g2=1.0)
    indices = [0, 5, 5, geom.n_plaquettes - 1]
    traces = leading_field_traces(table, geom, cp, indices)
    assert traces.shape == (replicas, len(indices))
    assert np.array_equal(scaled_field_traces(u, geom, cp, indices), traces)
    for r in range(replicas):
        alone = u[r]
        assert wilson_action(alone, geom) == actions[r]
        assert np.array_equal(scaled_field_traces(alone, geom, cp, indices), traces[r])

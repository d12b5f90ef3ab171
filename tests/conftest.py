"""Shared fixtures: deterministic particle sets of several shapes.

Every stochastic fixture takes its entropy from a fixed seed so the
whole suite is reproducible run-to-run.
"""

import numpy as np
import pytest

from repro.sim.models import plummer_model, uniform_sphere


def sweep_lists(tc):
    """``tc``'s last sweep's interaction lists, walked again here: the
    sweep keeps only their lengths."""
    from repro.core.traversal import build_interaction_lists
    tree, groups = tc.last_tree, tc.last_groups
    if groups is not None:
        return build_interaction_lists(tree, groups.center, groups.radius,
                                       tc.mac)
    return build_interaction_lists(tree, tree.pos_sorted,
                                   np.zeros(tree.n_particles), tc.mac)


def uncut_sweep(tc, backend, eps):
    """The reference for "the shard cut is invisible": ``tc``'s whole
    last sweep walked here (:func:`sweep_lists`), evaluated by ONE
    ``backend.eval_lists`` call in the window a sweep
    announces, charged as the engine charges a sweep, and finished like
    ``accelerations`` finishes one.  Returns ``(acc, pot)`` in input
    order.  ``src/`` keeps no second walk or evaluation body, so the
    tests that pin the contract make the uncut call themselves."""
    from repro.core.kernels import self_potential_correction
    from repro.exec.plan import SweepSpec
    tree, groups = tc.last_tree, tc.last_groups
    if groups is not None:
        center, start, count = groups.center, groups.start, groups.count
    else:
        center = tree.pos_sorted
        start = np.arange(tree.n_particles, dtype=np.int64)
        count = np.ones(tree.n_particles, dtype=np.int64)
    backend.set_domain(float(np.min(tree.corner)),
                       float(np.max(tree.corner + tree.size)))
    lists = sweep_lists(tc)
    acc_s = np.empty((tree.n_particles, 3))
    pot_s = np.empty(tree.n_particles)
    backend.eval_lists(tree.pos_sorted, tree.mass_sorted, tree.com,
                       tree.mass, lists, start, count, eps, acc_s, pot_s)
    spec = SweepSpec(tree=tree, sink_center=center, sink_start=start,
                     sink_count=count, eps=eps,
                     build_lists=lambda a, b: sweep_lists(tc))
    backend.charge(spec, lists.list_lengths)
    pot_s += self_potential_correction(tree.mass_sorted, eps)
    acc, pot = np.empty_like(acc_s), np.empty_like(pot_s)
    acc[tree.order], pot[tree.order] = acc_s, pot_s
    return acc, pot


@pytest.fixture
def rng():
    return np.random.default_rng(20260705)


@pytest.fixture
def plummer_1k(rng):
    """A 1024-particle virialised Plummer sphere (pos, vel, mass)."""
    return plummer_model(1024, rng)


@pytest.fixture
def plummer_pos_mass(plummer_1k):
    pos, _, mass = plummer_1k
    return pos, mass


@pytest.fixture
def uniform_500(rng):
    """A cold uniform sphere of 500 particles."""
    return uniform_sphere(500, rng)


@pytest.fixture
def clustered_2k(rng):
    """A deliberately clumpy distribution: three Plummer clumps plus a
    diffuse background -- exercises deep, uneven trees."""
    parts = []
    for center, n, a in (((0, 0, 0), 900, 0.1),
                         ((1.5, 0.3, -0.2), 600, 0.05),
                         ((-0.8, -1.1, 0.5), 400, 0.2)):
        p, _, m = plummer_model(n, rng, scale_radius=a)
        parts.append((p + np.asarray(center, dtype=float), m))
    bg = rng.uniform(-2.5, 2.5, (100, 3))
    parts.append((bg, np.full(100, 1.0 / 2000)))
    pos = np.concatenate([p for p, _ in parts])
    mass = np.concatenate([m for _, m in parts])
    return pos, mass

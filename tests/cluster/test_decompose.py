"""Domain decomposition: determinism, coverage, balance."""

import numpy as np
import pytest

from repro.cluster import orb_partition


def _sinks(rng, n=500):
    centers = rng.standard_normal((n, 3)) * np.array([3.0, 1.0, 1.0])
    weights = rng.integers(1, 64, n).astype(np.float64)
    return centers, weights


@pytest.mark.parametrize("partition", [orb_partition])
@pytest.mark.parametrize("hosts", [1, 2, 3, 4, 7])
def test_partition_covers_all_hosts(partition, hosts, rng):
    centers, weights = _sinks(rng)
    owner = partition(centers, weights, hosts)
    assert owner.shape == (centers.shape[0],)
    assert owner.dtype == np.int64
    assert set(np.unique(owner)) == set(range(hosts))


@pytest.mark.parametrize("partition", [orb_partition])
def test_partition_deterministic(partition, rng):
    centers, weights = _sinks(rng)
    a = partition(centers, weights, 4)
    b = partition(centers.copy(), weights.copy(), 4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("partition", [orb_partition])
def test_partition_weight_balance(partition, rng):
    """Every host's weight share is within 2x of perfect balance."""
    centers, weights = _sinks(rng, n=2000)
    hosts = 4
    owner = partition(centers, weights, hosts)
    shares = np.array([weights[owner == h].sum() for h in range(hosts)])
    ideal = weights.sum() / hosts
    assert shares.max() < 2.0 * ideal
    assert shares.min() > 0.25 * ideal


def test_single_host_is_all_zeros(rng):
    centers, weights = _sinks(rng, n=50)
    np.testing.assert_array_equal(orb_partition(centers, weights, 1),
                                  np.zeros(50, dtype=np.int64))


def test_orb_handles_tiny_inputs(rng):
    centers = rng.standard_normal((2, 3))
    weights = np.ones(2)
    owner = orb_partition(centers, weights, 4)
    # two sinks cannot cover four hosts, but all owners stay in range
    assert np.all((owner >= 0) & (owner < 4))


def test_validation_errors(rng):
    centers, weights = _sinks(rng, n=10)
    with pytest.raises(ValueError):
        orb_partition(centers[:, :2], weights[:10], 2)
    with pytest.raises(ValueError):
        orb_partition(centers, weights[:5], 2)
    with pytest.raises(ValueError):
        orb_partition(centers, -weights, 2)
    with pytest.raises(ValueError):
        orb_partition(centers, weights, 0)
    with pytest.raises(ValueError):
        orb_partition(centers.ravel(), weights, 2)

import numpy as np
import pytest

from otlab.engine import autodiff as ad
from otlab.errors import StateError

from oracles import finite_difference, matmul, rel_error


def test_add_broadcast_unbroadcasts_gradient():
    a = ad.Node(np.ones((3, 4)))
    b = ad.Node(np.ones(4))
    out = ad.sum_along(a + b)
    ga, gb = ad.gradients(out, [a, b])
    assert ga.shape == (3, 4) and np.all(ga == 1.0)
    assert gb.shape == (4,) and np.all(gb == 3.0)


def test_multiply_gradients_match_finite_differences(rng):
    a_val = rng.normal(size=(2, 3))
    b_val = rng.normal(size=(2, 3))

    def f():
        return float((a_val * b_val).sum())

    fd = finite_difference(f, a_val)
    a, b = ad.Node(a_val), ad.Node(b_val)
    (ga,) = ad.gradients(ad.sum_along(a * b), [a])
    assert rel_error(ga, fd) < 1e-8


def test_matmul_gradients(rng):
    a_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=(4, 2))

    def f():
        return float((a_val @ b_val).sum())

    fd_a = finite_difference(f, a_val)
    fd_b = finite_difference(f, b_val)
    a, b = ad.Node(a_val), ad.Node(b_val)
    ga, gb = ad.gradients(ad.sum_along(matmul(a, b)), [a, b])
    assert rel_error(ga, fd_a) < 1e-8
    assert rel_error(gb, fd_b) < 1e-8


def test_mean_and_sum_axis_gradients(rng):
    x_val = rng.normal(size=(4, 5))

    def f():
        return float(x_val.mean(axis=1).sum() + x_val.sum(axis=0).sum())

    fd = finite_difference(f, x_val)
    x = ad.Node(x_val)
    out = ad.sum_along(ad.mean_along(x, axis=1)) + ad.sum_along(ad.sum_along(x, axis=0))
    (gx,) = ad.gradients(out, [x])
    assert rel_error(gx, fd) < 1e-8


def test_relu_subgradient_is_zero_at_zero():
    x = ad.Node(np.array([-1.0, 0.0, 2.0]))
    (g,) = ad.gradients(ad.sum_along(ad.relu(x)), [x])
    np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])


def test_take_flat_scatter_adds_duplicate_indices():
    x = ad.Node(np.arange(6.0).reshape(3, 2))
    gathered = ad.take_flat(x, [0, 1, 0, 1, 4, 5])
    np.testing.assert_array_equal(gathered.value, [0.0, 1.0, 0.0, 1.0, 4.0, 5.0])
    (g,) = ad.gradients(ad.sum_along(gathered), [x])
    np.testing.assert_array_equal(g, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_sq_distances_and_take_flat_match_finite_differences(rng):
    # repeated flat indices (7 three times, 0 twice) exercise the bincount
    # scatter-add; 1 = (0, 1) and 5 = (1, 0) hit both halves of one pair,
    # while 7 = (1, 2) and 13 = (2, 3) make G asymmetric
    idx = np.array([1, 7, 7, 13, 24, 0, 0, 5, 7])
    worst = 0.0
    for _ in range(10):
        x_val = rng.normal(size=(5, 3))
        d_val = rng.normal(size=(5, 5))
        coeff = rng.normal(size=idx.size)

        def dist_loss():
            d = ((x_val[:, None, :] - x_val[None, :, :]) ** 2).sum(axis=2)
            return float((d.ravel()[idx] * coeff).sum())

        def gather_loss():
            return float((d_val.ravel()[idx] * coeff).sum())

        x, d = ad.Node(x_val), ad.Node(d_val)
        (gx,) = ad.gradients(ad.sum_along(ad.take_flat(ad.sq_distances(x), idx) * coeff), [x])
        (gd,) = ad.gradients(ad.sum_along(ad.take_flat(d, idx) * coeff), [d])
        worst = max(worst, rel_error(gx, finite_difference(dist_loss, x_val)),
                    rel_error(gd, finite_difference(gather_loss, d_val)))
    assert worst < 1e-4


def test_sq_distances_entries_equal_pairwise_differences(rng):
    x = rng.normal(size=(6, 4))
    d = ad.sq_distances(x).value
    for i in range(6):
        for j in range(6):
            assert d[i, j] == ((x[i] - x[j]) ** 2).sum()


def test_diamond_graph_accumulates_both_paths():
    x = ad.Node(np.array(3.0))
    y = x * x + x * 2.0          # dy/dx = 2x + 2 = 8
    (g,) = ad.gradients(y, [x])
    assert g == pytest.approx(8.0)


def test_unreachable_leaf_gets_zero_gradient():
    x = ad.Node(np.array([1.0, 2.0]))
    other = ad.Node(np.array([5.0]))
    (g,) = ad.gradients(ad.sum_along(x), [other])
    np.testing.assert_array_equal(g, [0.0])


def test_non_scalar_loss_rejected():
    x = ad.Node(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        ad.gradients(x, [x])


def test_bare_value_loss_raises_state_error():
    with pytest.raises(StateError):
        ad.gradients(np.float64(1.0), [])


def test_a_walked_graph_is_consumed(rng):
    x = ad.Node(rng.normal(size=(3, 2)))
    hidden = ad.relu(x * 2.0)
    loss = ad.sum_along(hidden)
    (g,) = ad.gradients(loss, [x])
    assert loss.parents is None and hidden.parents is None and x.parents == ()
    with pytest.raises(StateError, match="consumed"):
        ad.gradients(loss, [x])
    with pytest.raises(StateError, match="consumed"):
        ad.gradients(ad.sum_along(hidden * 3.0), [x])    # a new loss over a walked node
    # values stay readable, and a leaf is never consumed: a new graph over x walks
    assert float(loss.value) == float(hidden.value.sum())
    (again,) = ad.gradients(ad.sum_along(ad.relu(x * 2.0)), [x])
    assert again.tobytes() == g.tobytes()

"""Loss layers against longhand oracles, finite differences, and the
structural identities that pin the math down."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tiltnet import loss
from tiltnet.checks import (disc_loss_loops, fd_grad, gen_grad_closed_form_error,
                            gen_grad_loops, gen_loss_loops, loss_suite, rel_err)
from tiltnet.errors import DataError, NumericsError, ShapeError

# strategy: a well-scaled score matrix and matching labels
@st.composite
def scores_and_labels(draw, min_n=2, max_n=12, max_c=8):
    n = draw(st.integers(min_n, max_n))
    c = draw(st.integers(2, max_c))
    f = draw(hnp.arrays(np.float64, (n, c),
                        elements=st.floats(-30, 30, allow_nan=False)))
    y = draw(hnp.arrays(np.int64, (n,), elements=st.integers(0, c - 1)))
    return f, y


def test_worked_example_two_by_two():
    f = np.array([[np.log(3.0), 0.0], [0.0, 0.0]])
    y = np.array([0, 1])

    ld, gd = loss.disc_loss_and_grad(f, y)
    np.testing.assert_allclose(ld, np.log(0.75) + np.log(0.5), atol=1e-15)
    np.testing.assert_allclose(gd, [[0.25, -0.25], [-0.5, 0.5]], atol=1e-15)

    lg, gg = loss.gen_loss_and_grad(f, y)
    np.testing.assert_allclose(lg, np.log(1.5), atol=1e-15)
    np.testing.assert_allclose(gg, [[0.25, -0.5], [-0.25, 0.5]], atol=1e-15)

    # in-batch weights [0.75, 0.25] for class 0 and [0.5, 0.5] for class 1
    ess = loss.per_class_ess(f, y)
    assert ess == {0: pytest.approx(1.6), 1: pytest.approx(2.0)}


@settings(deadline=None, max_examples=150)
@given(scores_and_labels())
def test_gen_matches_longhand(case):
    f, y = case
    lg, gg = loss.gen_loss_and_grad(f, y)
    assert abs(lg - gen_loss_loops(f, y)) <= 1e-12 * max(1.0, abs(lg))
    assert np.abs(gg - gen_grad_loops(f, y)).max() <= 1e-12


@settings(deadline=None, max_examples=150)
@given(scores_and_labels())
def test_disc_matches_longhand(case):
    f, y = case
    ld, _ = loss.disc_loss_and_grad(f, y)
    assert abs(ld - disc_loss_loops(f, y)) <= 1e-12 * max(1.0, abs(ld))


@settings(deadline=None, max_examples=100)
@given(scores_and_labels())
def test_structural_sums(case):
    f, y = case
    _, gd = loss.disc_loss_and_grad(f, y)
    _, gg = loss.gen_loss_and_grad(f, y)
    assert np.abs(gd.sum(axis=1)).max() < 1e-10   # per-example rows
    assert np.abs(gg.sum(axis=0)).max() < 1e-10   # per-class columns


@settings(deadline=None, max_examples=100)
@given(scores_and_labels(), st.floats(-20, 20, allow_nan=False))
def test_shift_invariances(case, shift):
    f, y = case
    n, c = f.shape
    rng = np.random.default_rng(0)

    # per-example shifts leave the posterior objective's gradient alone
    _, gd = loss.disc_loss_and_grad(f, y)
    _, gd_shifted = loss.disc_loss_and_grad(f + rng.normal(size=(n, 1)) + shift, y)
    np.testing.assert_allclose(gd_shifted, gd, atol=1e-10)

    # per-class shifts leave the likelihood objective's gradient alone
    lg, gg = loss.gen_loss_and_grad(f, y)
    lg2, gg_shifted = loss.gen_loss_and_grad(f + rng.normal(size=(1, c)) + shift, y)
    np.testing.assert_allclose(gg_shifted, gg, atol=1e-10)
    np.testing.assert_allclose(lg2, lg, atol=1e-8)


def test_duality_on_square_batches(rng):
    # with one example per class, the two objectives are transposes of each
    # other up to the constant n*log(n)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        f = rng.normal(0.0, 3.0, (n, n))
        y = np.arange(n)
        lg, gg = loss.gen_loss_and_grad(f, y)
        ld, gd = loss.disc_loss_and_grad(f.T, y)
        np.testing.assert_allclose(gg, gd.T, atol=1e-12)
        assert lg == pytest.approx(ld + n * np.log(n), abs=1e-9)


def test_gradients_match_fd(rng):
    for trial in range(10):
        n, c = int(rng.integers(2, 10)), int(rng.integers(2, 7))
        f = rng.normal(0.0, 3.0, (n, c))
        y = rng.integers(0, c, n)
        _, gd = loss.disc_loss_and_grad(f, y)
        _, gg = loss.gen_loss_and_grad(f, y)
        fd_d = fd_grad(lambda a: loss.disc_loss_and_grad(a, y)[0], f.copy())
        fd_g = fd_grad(lambda a: loss.gen_loss_and_grad(a, y)[0], f.copy())
        assert rel_err(fd_d, gd) < 1e-8
        assert rel_err(fd_g, gg) < 1e-8


def test_extreme_scores_stay_finite():
    f = np.array([[1000.0, -1000.0], [-1000.0, 1000.0], [999.0, 999.0]])
    y = np.array([0, 1, 0])
    ld, gd = loss.disc_loss_and_grad(f, y)
    lg, gg = loss.gen_loss_and_grad(f, y)
    assert np.isfinite([ld, lg]).all()
    assert np.isfinite(gd).all() and np.isfinite(gg).all()


def test_gen_count_scaling():
    # duplicated class: the softmax column is scaled by its count
    f = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    y = np.array([0, 0, 1])
    _, gg = loss.gen_loss_and_grad(f, y)
    w = np.exp(f[:, 0] - f[:, 0].max())
    w /= w.sum()
    np.testing.assert_allclose(gg[:, 0], np.array([1, 1, 0]) - 2.0 * w, atol=1e-12)


def ess_by_column(f, y):
    """Reference for per_class_ess: one softmax column at a time."""
    ess = {}
    for k in np.unique(y):
        col = f[:, k]
        w = np.exp(col - col.max())
        w /= w.sum()
        ess[int(k)] = float(1.0 / np.square(w).sum())
    return ess


def test_per_class_ess_bounds():
    # a uniform column gives n, one dominant score gives 1
    f = np.array([[0.0, 1000.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert loss.per_class_ess(f, np.array([0, 1, 0, 1])) == {0: 4.0, 1: 1.0}
    with pytest.raises(NumericsError, match="non-finite"):
        loss.per_class_ess(np.array([[0.0, np.inf], [0.0, 0.0]]), np.array([0, 1]))


def test_per_class_ess_covers_present_classes(rng):
    f = rng.normal(size=(6, 4))
    y = np.array([0, 0, 2, 2, 2, 0])
    ess = loss.per_class_ess(f, y)
    assert set(ess) == {0, 2}
    assert all(1.0 <= v <= 6.0 for v in ess.values())


def test_per_class_ess_matches_column_loop(rng):
    for trial in range(300):
        n, c = int(rng.integers(2, 301)), int(rng.integers(2, 13))
        f = rng.normal(0.0, [0.1, 5.0, 50.0][trial % 3], (n, c))
        y = rng.integers(0, c, n)
        ess = loss.per_class_ess(f, y)
        want = ess_by_column(f, y)
        assert list(ess) == list(want)
        assert all(type(v) is float for v in ess.values())
        assert all(np.float64(ess[k]).tobytes() == np.float64(want[k]).tobytes() for k in want)
        assert all(1.0 <= v <= n for v in ess.values())


def test_validation_errors():
    f = np.zeros((3, 2))
    y = np.array([0, 1, 0])
    with pytest.raises(NumericsError, match="non-finite"):
        loss.disc_loss_and_grad(f * np.nan, y)
    with pytest.raises(DataError, match=r"^labels must lie in \[0, 2\), got range \[0, 5\]$"):
        loss.disc_loss_and_grad(f, np.array([0, 1, 5]))
    with pytest.raises(ShapeError):
        loss.disc_loss_and_grad(f, np.array([0, 1]))
    with pytest.raises(ShapeError):
        loss.disc_loss_and_grad(np.zeros((3, 1)), y)
    with pytest.raises(ShapeError, match="n >= 2"):
        loss.gen_loss_and_grad(np.zeros((1, 2)), np.array([0]))
    with pytest.raises(ShapeError, match="integers"):
        loss.disc_loss_and_grad(f, np.array([0.0, 1.0, 0.0]))


def test_builtin_loss_suite_is_green():
    for result in loss_suite(seed=5, instances=10):
        assert result.ok, f"{result.name}: {result.value} > {result.tol}"


def test_gen_grad_estimates_its_population_closed_form():
    # the in-batch reference's O(1/n) bias shrinks from n=32 to n=512
    large = gen_grad_closed_form_error(0, n=512, batches=156)
    small = gen_grad_closed_form_error(0, n=32, batches=2500)
    assert large <= 0.05
    assert large < small

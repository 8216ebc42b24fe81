import numpy as np
import pytest

from horofill import bootstrap as bs


def test_brick_bound_validation():
    with pytest.raises(ValueError):
        bs.BrickBound(k1=0.0, k2=1.0, p=3.0)
    with pytest.raises(ValueError):
        bs.BrickBound(k1=1.0, k2=1.0, p=1.5)


def test_balanced_terms_cubic_gives_order_2_5():
    """At lam = l/M with l ~ sqrt(M), the bound is of order M^2.5."""
    b = bs.BrickBound(1.0, 1.0, 3.0)
    for M in (10.0, 100.0, 1e4, 1e6):
        t1, t2 = bs.balanced_terms(b, M)
        total = t1 + t2
        assert 0.1 <= total / M**2.5 <= 10.0
        assert 0.1 <= t1 / t2 <= 10.0


def test_balanced_terms_eps_gives_improved_order():
    b = bs.BrickBound(1.0, 1.0, 2.5)
    eps = 0.5
    for M in (10.0, 1e3, 1e6):
        t1, t2 = bs.balanced_terms(b, M, eps=eps)
        order = 2 + eps - eps**2 / 2
        assert (t1 + t2) / M**order <= 10.0


def test_exponent_step_values():
    assert bs.exponent_step(1.0) == 0.5
    assert bs.exponent_step(0.0) == 0.0
    assert bs.exponent_step(0.5) == 0.375
    with pytest.raises(ValueError):
        bs.exponent_step(1.5)


def test_exponent_step_strictly_improves():
    for x in np.linspace(1e-6, 1.0, 200):
        y = bs.exponent_step(x)
        assert y < x
        assert y >= x / 2


def test_bootstrap_sequences():
    seq, steps = bs.bootstrap(1.0, 0.5)
    assert steps == 1 and seq == [0.5]
    seq, steps = bs.bootstrap(0.0, 0.5)
    assert steps == 0 and seq == []
    seq, steps = bs.bootstrap(1.0, 0.01)
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert seq[-1] <= 0.01
    # asymptotically ~ 2/tol steps
    assert 100 < steps < 400


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bs.bootstrap(2.0, 0.1)
    with pytest.raises(ValueError):
        bs.bootstrap(0.5, 0.0)

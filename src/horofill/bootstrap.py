"""Exponent-improvement arithmetic for mixed brick censuses.

A loop of length l filled at mesh lam with a cubic census of flat bricks
and a quadratic census of uncontrolled bricks obeys

    A_lam <= k1 * l^3 / lam^2 + k2 * l^2 / lam^p ,

and rebalancing mesh against length turns a filling exponent 2 + eps
into 2 + eps - eps^2/2, which iterates to 2.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class BrickBound:
    """Census coefficients and the current uncontrolled-brick exponent."""

    k1: float
    k2: float
    p: float

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("census coefficients must be positive")
        if self.p < 2:
            raise ValueError("exponent must be >= 2")


def balanced_terms(b, M, eps=None):
    """The two census terms at the balancing scale lam = l / M.

    With eps = None the cubic census (p = 3) is balanced at l = sqrt(M),
    giving order M^2.5; with eps in (0, 1] the census p = 2 + eps is
    balanced at l = M^(eps/2), giving order M^(2 + eps - eps^2/2).
    """
    if M <= 1:
        raise ValueError("M must exceed 1")
    if eps is None:
        l = M**0.5
    else:
        if not 0 < eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        l = M ** (eps / 2.0)
    lam = l / M
    term_cubic = b.k1 * l**3 / lam**2
    term_quad = b.k2 * l**2 / lam**b.p
    return term_cubic, term_quad


def exponent_step(eps):
    """One bootstrap improvement: eps -> eps - eps^2/2."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    return eps - eps**2 / 2.0


def bootstrap(eps0, tol):
    """Iterate exponent_step from eps0 until the excess drops below tol.

    Returns (sequence of iterates after the start, step count); the
    sequence is strictly decreasing with limit 0.
    """
    if not 0 <= eps0 <= 1:
        raise ValueError("eps0 must lie in [0, 1]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    seq = []
    eps = eps0
    while eps > tol:
        eps = exponent_step(eps)
        seq.append(eps)
    return seq, len(seq)

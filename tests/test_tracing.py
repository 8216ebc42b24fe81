"""The benchmark tracer's wrap list against the package's names.

``perfbench/tracing.py`` wraps each ``(owner, attr)`` of its ``WRAPPED``
list by ``getattr``, so renaming a wrapped function breaks every traced
benchmark run; these tests catch it in the Tier-1 suite.
"""

from horofill import filling as fl
from horofill import trace as tr


def test_every_wrapped_name_resolves(tracing):
    missing = [
        f"{name}: {owner.__name__}.{attr}"
        for name, owner, attr, _ in tracing.WRAPPED
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
    wrapped = {(owner, attr) for _, owner, attr, _ in tracing.WRAPPED}
    assert (tr, "linprog") in wrapped


def test_tracer_wraps_and_restores_the_lp_names(tracing):
    before = (tr.linprog, fl.linprog)
    with tracing.Tracer():
        assert (tr.linprog, fl.linprog) != before
    assert (tr.linprog, fl.linprog) == before

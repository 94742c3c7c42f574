"""The float backend against the exact oracle on maps with known answers.

Every map here is ``h^{-1} o R_{p/q} o h`` for a random exact lift ``h``,
so its rotation number is ``p/q`` and it is conjugate to the rigid
rotation.  The exact backend must say so.  The float copy of the same map
may answer less (an enclosure, ``Undecided`` or a typed precision loss)
but must never answer something else.
"""
from fractions import Fraction as Fr

from hypothesis import given, settings

import pwlrotor as pr
from pwlrotor import errors

from conftest import conjugate_maps, float_copy


def assert_consistent_rotation(rr, p, q):
    if rr.kind == "exact":
        assert (rr.p, rr.q) == (p, q)
    else:
        assert rr.lo <= Fr(p, q) <= rr.hi


@settings(max_examples=60, deadline=None)
@given(conjugate_maps())
def test_float_never_contradicts_exact(case):
    f, p, q = case
    verdict = pr.is_conjugate_to_rigid(f)
    assert isinstance(verdict, pr.Conjugate)
    assert (verdict.p, verdict.q) == (p, q)

    g = float_copy(f)
    try:
        assert_consistent_rotation(pr.exact_rotation(g), p, q)
    except errors.PrecisionLoss:
        pass
    try:
        fv = pr.is_conjugate_to_rigid(g)
    except errors.PrecisionLoss:
        return
    assert not isinstance(fv, pr.NotConjugate), fv
    if isinstance(fv, pr.Conjugate):
        assert (fv.p, fv.q) == (p, q)
    elif fv.enclosure is not None:
        assert_consistent_rotation(fv.enclosure, p, q)


@settings(max_examples=60, deadline=None)
@given(conjugate_maps())
def test_float_density_matches_exact(case):
    f, _, q = case
    exact = pr.invariant_density(f, q=q)
    approx = pr.invariant_density(float_copy(f), q=q)
    cuts = exact.cuts
    for j, c in enumerate(cuts):
        nxt = cuts[j + 1] if j + 1 < len(cuts) else cuts[0] + 1
        mid = pr.frac((c + nxt) / 2)
        assert abs(approx(float(mid)) - exact(mid)) <= 1e-9

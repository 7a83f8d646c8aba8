"""The paper's guarantees as Hypothesis properties, on the identity and on general tracks.

Sections come from strategies.py: admissible Frechet-mix sections with
points anywhere, at knots, or on the track.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcop import blend, c_psi_value, pointwise_upper_bound, psi_bounds, quadruplet

from strategies import sections_with_points
from test_kernels import same_bits

# A blend's value and the bound are computed from different psi, so they
# may round apart by a few ulps of 1 where the blend attains the bound.
BLEND_SLACK = 1e-15


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "general-track"])
@given(data=st.data(), t=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_upper_bound_is_the_larger_extremal_copula(identity, data, t):
    spec, points = data.draw(sections_with_points(identity))
    bounds = psi_bounds(spec)
    low, up = quadruplet(spec, bounds.psi_low), quadruplet(spec, bounds.psi_up)
    mix = blend(low, up, t)
    for x, y in points:
        bound = pointwise_upper_bound(spec, x, y)
        assert same_bits(bound, max(c_psi_value(spec, low, x, y), c_psi_value(spec, up, x, y)))
        assert c_psi_value(spec, mix, x, y) <= bound + BLEND_SLACK

"""Property tests of invariants the scheme guarantees by construction.

hypothesis draws the cases with derandomize=True, so every run of the
suite tries the same examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from nlw.model import GaussianBump, make_params
from nlw.solver import GridSpec, Monitors, evolve

PROPERTY = settings(derandomize=True, database=None, max_examples=25, deadline=None)


@PROPERTY
@given(
    p=st.sampled_from([3.0, 3.5, 4.0, 4.5]),
    amplitude=st.floats(0.0, 0.8),
    center=st.floats(1.0, 3.0),
    width=st.floats(0.2, 0.8),
    inv_h=st.sampled_from([16, 32]),
    linear=st.booleans(),
)
def test_channel_energies_add_up_bitwise(p, amplitude, center, width, inv_h, linear):
    """E = E_- + E_+ at every level, exactly as floats, for the totals and
    for every radius triple."""
    params = make_params(p, 0.5)
    family = GaussianBump(amplitude, center, width)
    grid = GridSpec.padded(1.0 / inv_h, 3.0, family.support_radius())
    mon = Monitors(radii=(1.0, 2.5, "t/4"))
    led = evolve(family.sample(grid), params, grid, mon, linear=linear).ledger
    assert np.array_equal(led.e_total, led.e_minus + led.e_plus)
    for total, minus, plus in led.radii.values():
        assert np.array_equal(total, minus + plus)

import os

import numpy as np
import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci fixes the examples and prints the blob that
# replays a failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Reference density matrices for channel 1 before/after storage, as printed
# in the bundled golden fixture (3-decimal rounding, trace 0.999).
TABLE4_BEFORE = np.array([
    [0.455 + 0j, 0.005 - 0.013j, -0.001 - 0.002j, 0.440 - 0.009j],
    [0.005 + 0.013j, 0.025 + 0j, 0.001 - 0.009j, -0.009 + 0.003j],
    [-0.001 + 0.002j, 0.001 + 0.009j, 0.029 + 0j, -0.021 + 0.020j],
    [0.440 + 0.009j, -0.009 - 0.003j, -0.021 - 0.020j, 0.490 + 0j],
])

TABLE4_AFTER = np.array([
    [0.403 + 0j, 0.023 - 0.028j, 0.009 + 0.002j, 0.421 + 0.042j],
    [0.023 + 0.028j, 0.047 + 0j, 0.004 + 0.048j, 0.013 + 0.018j],
    [0.009 - 0.002j, 0.004 - 0.048j, 0.066 + 0j, -0.019 + 0.023j],
    [0.421 - 0.042j, 0.013 - 0.018j, -0.019 - 0.023j, 0.483 + 0j],
])


@pytest.fixture
def rho_before():
    return TABLE4_BEFORE.copy()


@pytest.fixture
def rho_after():
    return TABLE4_AFTER.copy()

import numpy as np
import pytest

import opaa


@pytest.fixture
def planted_1d():
    return opaa.PlantedDensity(1, {(0,): 1.0, (2,): 0.1})


@pytest.fixture
def planted_2d():
    return opaa.PlantedDensity(2, {(0, 0): 1.0, (1, 1): 0.2})

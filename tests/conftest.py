import math

import pytest

from photonsurf import build_family, to_isotropic


@pytest.fixture(scope="session")
def schw3():
    st = build_family("schwarzschild", n=3, m=1)
    # every test shares it: scan now, before a test can patch the scan bracket
    st.spheres
    return st


@pytest.fixture(scope="session")
def schw3_spheres(schw3):
    return schw3.spheres


@pytest.fixture(scope="session")
def minkowski():
    return build_family("minkowski")


@pytest.fixture(scope="session")
def schw3_iso(schw3):
    return to_isotropic(schw3, r0=4.0)


ALPHA_STAR_SCHW3 = 1.0 / math.sqrt(27.0)

import pytest

from mlmsa.model import build_model


@pytest.fixture(scope="session")
def default_model():
    """m=32 sine/cosine model; shared so the exact solves it keeps carry across tests."""
    return build_model()


@pytest.fixture(scope="session")
def small_model():
    return build_model(m=8)


@pytest.fixture(scope="session")
def bias_off_model():
    """phi_l identical at every level: the perfect-coupling configuration."""
    return build_model(bias_choice="zero")


@pytest.fixture(scope="session")
def skew_model():
    """Bias shape without the quarter-period symmetry of the default pair,
    so every signed level-perturbation integral decays at the nominal rate."""
    return build_model(bias_choice="shifted-cosine")

import pytest

from olaurent import FamilySpec, realize


@pytest.fixture(scope="session")
def geometric():
    """f = 1/(1-z) truncated at order 64; d_k = 1."""
    return realize(FamilySpec("geometric"), 64)


@pytest.fixture(scope="session")
def exponential():
    """f = e^z truncated at order 64; d_k = 1/k!."""
    return realize(FamilySpec("exponential"), 64)


@pytest.fixture(scope="session")
def exp_binomial_spec():
    return FamilySpec("exp-binomial", b=1.0, a=(0.5,), family_lambda=(1.0,))


@pytest.fixture(scope="session")
def exp_binomial(exp_binomial_spec):
    """f = e^z / (1 - z/2) truncated at order 64."""
    return realize(exp_binomial_spec, 64)

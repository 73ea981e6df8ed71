import pytest

from copymax import builtin_graph, spectrum


@pytest.fixture(scope="session")
def g6():
    return builtin_graph("G6")


@pytest.fixture(scope="session")
def g6_spec(g6):
    return spectrum(g6)

import pytest

from oracles import manifest_groups
from skelsig.groups import bundled_catalog
from skelsig.kspace import realizable_set


@pytest.fixture(scope="session")
def catalog():
    return bundled_catalog()


@pytest.fixture(scope="session")
def catalog_groups(catalog):
    return manifest_groups(catalog, max_order=15)


@pytest.fixture(scope="session")
def realized_at_40(catalog):
    """The realized witnesses at max order 40, by genus, for genus 2..60 and 150."""
    return {sigma: realizable_set(sigma, catalog, 40).realized for sigma in [*range(2, 61), 150]}

import pytest

from oracles import manifest_groups
from skelsig.groups import bundled_catalog


@pytest.fixture(scope="session")
def catalog():
    return bundled_catalog()


@pytest.fixture(scope="session")
def catalog_groups(catalog):
    return manifest_groups(catalog, max_order=15)

import os

import pytest

from nc_capelli import identities


@pytest.fixture(autouse=True)
def _cold_rect_cache():
    """Each test starts with no cached rectangular instance, so a helper
    that a test patches (complex_weyl, decomplexify, coldet, ...) cannot
    be bypassed by minors cached under the real one."""
    identities._rect_instance.cache_clear()


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RUN_SLOW") or config.getoption("-m"):
        return
    skip = pytest.mark.skip(reason="slow; set RUN_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)

import sys
from pathlib import Path

# allow running the test suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

import pytest  # noqa: E402


@pytest.fixture
def fresh_sides():
    """Empty caches of packed branching sides before and after a test that
    rebinds a degree table: a cached `_BranchingSides` keeps the tables it
    was built from."""
    from younglab import characters, tableaux

    caches = (tableaux._eq2_sides, characters._eq1_sides)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()

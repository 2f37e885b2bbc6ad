"""Suite-wide test isolation for tests/ and perfbench/tests.

perfbench imports the library cold (``bench.fresh_import``), which replaces
every ``beauville`` module in ``sys.modules``.  A later test that imports
lazily would then mix classes of two copies of the package, so after each
test the ``beauville`` entries are put back as collection left them.
"""
import sys

import pytest

_PKG = "beauville"
_collected: dict = {}


def _ours():
    return {name: mod for name, mod in sys.modules.items()
            if name == _PKG or name.startswith(_PKG + ".")}


def pytest_collection_finish(session):
    _collected.update(_ours())


@pytest.fixture(autouse=True)
def _restore_library_modules():
    yield
    for name in _ours().keys() - _collected.keys():
        del sys.modules[name]
    sys.modules.update(_collected)

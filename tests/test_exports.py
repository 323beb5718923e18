"""The package namespace: every exported name exists, once."""

import qritz


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from qritz import *", namespace)
    missing = [name for name in qritz.__all__ if name not in namespace]
    assert missing == []


def test_exports_are_unique():
    duplicates = sorted({name for name in qritz.__all__ if qritz.__all__.count(name) > 1})
    assert duplicates == []

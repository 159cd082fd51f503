"""The package's public surface: every exported name resolves."""

import qorder


def test_every_exported_name_resolves():
    missing = [name for name in qorder.__all__ if not hasattr(qorder, name)]
    assert missing == []
    assert len(set(qorder.__all__)) == len(qorder.__all__)


def test_star_import_runs():
    namespace: dict = {}
    exec("from qorder import *", namespace)
    assert set(qorder.__all__) <= set(namespace)

"""The package's public surface."""

import tiltnet


def test_every_exported_name_resolves_once():
    names = tiltnet.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(tiltnet, n)] == []
    namespace = {}
    exec("from tiltnet import *", namespace)
    assert set(names) <= set(namespace)

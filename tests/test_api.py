"""The package's public names."""

import mdi_sarg04


def test_every_export_resolves():
    missing = [name for name in mdi_sarg04.__all__ if not hasattr(mdi_sarg04, name)]
    assert not missing
    assert len(set(mdi_sarg04.__all__)) == len(mdi_sarg04.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from mdi_sarg04 import *", namespace)
    assert set(mdi_sarg04.__all__) <= set(namespace)

"""Every name a module exports must exist, so a deleted function cannot
linger in an export list."""

import pytest

import mvgcn
from mvgcn import autodiff


@pytest.mark.parametrize("module", [mvgcn, autodiff], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []

"""The package namespace re-publishes each module's public names."""

import quorumtune
from quorumtune import clustering, errors, indicator, quorum, simulate, sweeps

MODULES = [errors, quorum, clustering, indicator, simulate, sweeps]


def test_all_is_the_modules_lists_joined():
    names = quorumtune.__all__
    assert names == ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert len(names) == len(set(names))


def test_every_public_name_resolves_to_its_module():
    assert isinstance(quorumtune.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(quorumtune, name) is getattr(module, name), name

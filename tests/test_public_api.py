"""The public name lists: every ``__all__`` entry must resolve.

A name left in ``__all__`` after its definition is deleted breaks only
``from repro... import *`` users; these checks turn that into a test
failure for ``repro`` and each of its subpackages.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def public_names(package):
    module = importlib.import_module(package)
    names = getattr(module, "__all__", None)
    assert names is not None, f"{package} defines no __all__"
    return module, list(names)


def test_discovery_finds_every_subpackage():
    # Guards the parametrisations below against testing nothing.
    assert len(PACKAGES) == 12  # repro and its eleven subpackages


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_resolves(package):
    module, names = public_names(package)
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("package", PACKAGES)
def test_no_name_is_listed_twice(package):
    _module, names = public_names(package)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_succeeds(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    _module, names = public_names(package)
    assert set(names) <= set(namespace)

"""The benchmark's tracer must find every function it traces: a renamed or
deleted target breaks ``Tracer.install`` on traced runs only, so it is
checked here."""

import importlib
import sys

import pytest

from perfbench.spans import TARGETS, Tracer


def _resolve(target):
    owner = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, target.attr)


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.span)
def test_every_target_resolves(target):
    assert callable(_resolve(target))


def _bindings() -> dict:
    """Every attribute of every polylens module and of its classes, by owner
    and name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "polylens" or name.startswith("polylens.")):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for meth, member in vars(value).items():
                    found[(name, f"{attr}.{meth}")] = member
    return found


def test_install_and_uninstall_restore_the_originals():
    import polylens.cli  # noqa: F401  (install imports both)
    import polylens.verify  # noqa: F401

    before = _bindings()
    originals = {t.span: _resolve(t) for t in TARGETS}
    tracer = Tracer()
    try:
        tracer.install()
        assert all(_resolve(t) is not originals[t.span] for t in TARGETS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []

"""Package-level invariants: one definition per public name."""

import importlib
import pkgutil

import presup


def test_each_public_name_is_bound_to_one_object_across_modules():
    # A module that re-binds a name another module defines must re-export
    # it, not define a twin (a second DEFAULT_CONFIG, a wrapping convertible).
    modules = [presup] + [
        importlib.import_module(f"presup.{info.name}")
        for info in pkgutil.iter_modules(presup.__path__)
        if info.name != "__main__"
    ]
    first = {}
    twins = []
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("_"):
                continue
            owner, bound = first.setdefault(name, (module.__name__, value))
            if bound is not value:
                twins.append(f"{name}: {owner} and {module.__name__}")
    assert twins == []
    assert presup.Signature is presup.Context is presup.Telescope

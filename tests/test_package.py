"""The package namespace re-exports every module's public names once."""

import nanograting
from nanograting import diffraction, domain, errors, gravity, imaging, limits, presets, vdwfit

MODULES = (diffraction, domain, errors, gravity, imaging, limits, presets, vdwfit)


def test_every_error_class_imports_from_the_package():
    from nanograting import WorkBudgetError

    assert WorkBudgetError is errors.WorkBudgetError
    assert issubclass(WorkBudgetError, nanograting.ResolutionError)
    assert issubclass(WorkBudgetError, nanograting.ConfigurationError)


def test_all_has_no_duplicates_and_every_name_resolves():
    names = nanograting.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(nanograting, name) is not None


def test_all_is_the_sorted_union_of_the_module_lists():
    union = {name for module in MODULES for name in module.__all__}
    assert nanograting.__all__ == sorted(union)
    # each name has one home module
    assert sum(len(module.__all__) for module in MODULES) == len(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nanograting, name) is getattr(module, name)

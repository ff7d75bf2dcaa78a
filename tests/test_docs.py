"""The README's `Class.attr` names resolve on the classes stabgap exports,
and its `module.name` and bare `_private` names on stabgap's modules."""

import importlib
import pkgutil
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import stabgap

README = Path(__file__).resolve().parents[1] / "README.md"

#: A code span that opens with ``Class.attr``, such as ``Class.attr(x)``.
_CLASS_ATTR = re.compile(r"([A-Z]\w*)\.(\w+)")

#: A code span that is a module-qualified name, such as ``groups._compose``.
_MODULE_NAME = re.compile(r"([a-z]\w*)\.(\w+)(?:\(\))?")

#: A code span that is one private name, such as ``_SCHREIER_BLOCK``.
_PRIVATE_NAME = re.compile(r"(_\w+)(?:\(\))?")


def readme_spans():
    """The README's one-line code spans, in order."""
    return re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))


def stabgap_modules():
    """Every module of the package by its short name (not ``__main__``)."""
    return {
        info.name: importlib.import_module(f"stabgap.{info.name}")
        for info in pkgutil.iter_modules(stabgap.__path__)
        if not info.name.startswith("__")
    }


def readme_class_attributes():
    """Every (class, attribute) pair a README code span names on a class
    exported from the package root, in order of first mention."""
    named = {}
    for span in readme_spans():
        match = _CLASS_ATTR.match(span)
        if match and isinstance(getattr(stabgap, match[1], None), type):
            named[match[1], match[2]] = None
    return list(named)


def has_attribute(cls, attr):
    """A class attribute, slot or method, or a dataclass field."""
    if hasattr(cls, attr):
        return True
    return is_dataclass(cls) and attr in {f.name for f in fields(cls)}


def test_readme_names_only_attributes_that_exist():
    named = readme_class_attributes()
    assert len(named) >= 12
    missing = [
        f"{name}.{attr}"
        for name, attr in named
        if not has_attribute(getattr(stabgap, name), attr)
    ]
    assert missing == []


def test_readme_names_only_module_names_that_exist():
    # `groups._compose` must be a name of stabgap.groups, and a bare
    # `_chain_products` a name of some stabgap module, so deleting a name
    # the README cites fails here.
    modules = stabgap_modules()
    qualified, bare, missing = [], [], []
    for span in readme_spans():
        match = _MODULE_NAME.fullmatch(span)
        if match and match[1] in modules:
            qualified.append(span)
            found = hasattr(modules[match[1]], match[2])
        elif match := _PRIVATE_NAME.fullmatch(span):
            bare.append(span)
            found = any(hasattr(module, match[1]) for module in modules.values())
        else:
            continue
        if not found:
            missing.append(span)
    assert len(qualified) >= 2 and len(bare) >= 2
    assert missing == []

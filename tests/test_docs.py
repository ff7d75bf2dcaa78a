"""The README's `Class.attr` names resolve on the classes stabgap exports."""

import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import stabgap

README = Path(__file__).resolve().parents[1] / "README.md"

#: A code span that opens with ``Class.attr``, such as ``Class.attr(x)``.
_CLASS_ATTR = re.compile(r"([A-Z]\w*)\.(\w+)")


def readme_class_attributes():
    """Every (class, attribute) pair a README code span names on a class
    exported from the package root, in order of first mention."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    named = {}
    for span in spans:
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

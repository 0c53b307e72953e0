"""Settings: each one's config key, type, default, legal values, reader and
bound, declared once by the module that reads it and checked by one rule.

A Setting is declared on the dataclass field that holds it (`setting(...)`);
one that a function takes is a module constant (losses.GAMMA, the data and
cost keys). Each such dataclass's `__post_init__` checks all of its declared
fields with check_fields, and a function checks its arguments against the
same declarations (check_args, check_values). config.DEFAULTS holds these
declarations themselves.
"""
from __future__ import annotations

import dataclasses
import numbers
from collections.abc import Mapping


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


# what a value of each type tag must be, and how a refusal says so
_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a real number"),
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
}


@dataclasses.dataclass(frozen=True)
class Setting:
    """One setting's config key ("section.key") and its table entry.

    The type tag is int/float/bool/str, or an opt_* variant that also takes
    None. Legal values are an interval such as "(0, 1]" (an open inf end
    refuses infinity), a tuple of choices, or None for any value of the
    type. The reader is None or the one (section.key, value) under which the
    setting is read; under any other value it must keep its default. The
    bound is None or a ("<=" or ">=", section.key) its value, when read, obeys.
    """

    key: str
    tag: str
    default: object
    legal: object = None
    reader: tuple[str, object] | None = None
    bound: tuple[str, str] | None = None

    def field(self) -> dataclasses.Field:
        """A dataclass field that holds this setting, at its default."""
        return dataclasses.field(default=self.default, metadata={"setting": self})

    def check(self, where: str, value) -> None:
        """Raise ConfigError naming `where` unless value has the type and is legal."""
        if value is None and self.tag.startswith("opt_"):
            return
        kind, wording = _TYPES[self.tag.removeprefix("opt_")]
        # bool is an Integral, but no int or float setting takes one
        if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
            raise ConfigError(f"{where} must be {wording}, got {value!r}")
        legal = self.legal
        if isinstance(legal, tuple) and value not in legal:
            raise ConfigError(f"{where} must be one of {legal}, got {value!r}")
        if isinstance(legal, str):
            lo, hi = (float(end) for end in legal[1:-1].split(","))
            above = lo <= value if legal[0] == "[" else lo < value
            below = value <= hi if legal[-1] == "]" else value < hi
            if not (above and below):  # also false for NaN
                raise ConfigError(f"{where} must be in {legal}, got {value}")


def setting(key: str, tag: str, default, legal=None, reader=None) -> dataclasses.Field:
    """A dataclass field that declares its Setting."""
    return Setting(key, tag, default, legal, reader).field()


def declared(owner) -> dict[str, Setting]:
    """The Settings owner declares, by name: a module's constants or a dataclass's fields."""
    if not dataclasses.is_dataclass(owner):
        return {name: v for name, v in vars(owner).items() if isinstance(v, Setting)}
    return {
        f.name: f.metadata["setting"]
        for f in dataclasses.fields(owner)
        if "setting" in f.metadata
    }


def check_values(named: Mapping[str, tuple[Setting, object]]) -> None:
    """Check each (setting, value) under its name, in order, then its reader and bound.

    A setting whose reader is among the named settings must keep its default
    unless that reader holds the value that reads it. A setting that is read
    must bear its bound to the named setting the bound names.
    """
    for name, (spec, value) in named.items():
        spec.check(name, value)
    names = {spec.key: name for name, (spec, _) in named.items()}
    for name, (spec, value) in named.items():
        reader = spec.reader and names.get(spec.reader[0])
        if reader and named[reader][1] != spec.reader[1]:
            # a value that is never read is refused rather than ignored
            if value != spec.default:
                raise ConfigError(f"{name}={value} is read only by "
                                  f"{reader}={spec.reader[1]!r}, not {named[reader][1]!r}")
            continue
        other = spec.bound and names.get(spec.bound[1])
        if other:
            relation, limit = spec.bound[0], named[other][1]
            if value > limit if relation == "<=" else value < limit:
                raise ConfigError(f"{name}={value} must be {relation} {other}={limit}")


def check_args(owner, **values) -> None:
    """Check keyword arguments against the same-named declared fields of dataclass owner."""
    specs = declared(owner)
    check_values({name: (specs[name], value) for name, value in values.items()})


def check_fields(obj) -> None:
    """Check every declared field of dataclass instance obj, named Class.field."""
    owner = type(obj).__name__
    check_values({
        f"{owner}.{name}": (spec, getattr(obj, name))
        for name, spec in declared(obj).items()
    })

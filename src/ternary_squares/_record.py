"""Frozen value records: the one class decorator behind the package's
specs, verdicts, profiles and reports, and `as_dict`, the one reading of
a record's fields by name.

`dataclasses` would give the same records, but it imports `inspect` (and
with it `ast`, `dis` and `tokenize`), which took longer at start-up than
the rest of the package.
"""

from array import array


def _frozen(self, name, *value):
    raise AttributeError(
        f"cannot assign to or delete field {name!r} of a frozen "
        f"{type(self).__name__}")


def record(cls):
    """cls rebuilt as a frozen, slotted record of its annotated fields,
    in their order.

    - `__init__` takes the fields by position or by keyword; a value
      given in the class body is that field's default. A `__post_init__`
      in the body runs at the end of `__init__`, so its checks also run
      under -O.
    - Records are equal when they have the same type and equal fields,
      and `__hash__` hashes the fields. A field annotated `dict` hashes
      as the frozenset of its items, so that equal dicts, whatever their
      order, hash equal; one annotated `array` as the tuple of its items,
      so that equal arrays of other typecodes hash equal.
    - `__slots__` holds the fields, and assignment raises AttributeError.
    - `__reduce__` pickles a record as its type and its fields, so it
      crosses a process pool; unpickling runs `__init__` again.
    - `__repr__` reads `Name(field=value, ...)`.

    The fields are read from `cls.__annotations__`, not from the class
    `__dict__`: since Python 3.10 that attribute holds only the class's
    own annotations (an empty dict when it has none), and from 3.14 on,
    where annotations are evaluated lazily, the class `__dict__` holds no
    `__annotations__` until the attribute has been read.
    """
    fields = tuple(cls.__annotations__)
    keys = {dict: lambda v: frozenset(v.items()), array: tuple}
    hashed_as = {f: keys[kind] for f, kind in cls.__annotations__.items()
                 if kind in keys}
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    namespace = {k: v for k, v in cls.__dict__.items()
                 if k not in defaults and k not in ("__dict__", "__weakref__")}
    params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}"
                     for f in fields)
    body = [f"_set(self, {f!r}, {f})" for f in fields]
    if "__post_init__" in namespace:
        body.append("self.__post_init__()")
    scope = {"_defaults": defaults, "_set": object.__setattr__}
    exec(f"def __init__(self{params}):\n    "
         + ("\n    ".join(body) or "pass"), scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"

    def values(self):
        return tuple([getattr(self, f) for f in fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple([hashed_as[f](v) if f in hashed_as else v
                           for f, v in zip(fields, values(self))]))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), values(self)

    namespace.update(__slots__=fields, __init__=scope["__init__"],
                     __eq__=__eq__, __hash__=__hash__, __repr__=__repr__,
                     __reduce__=__reduce__, __setattr__=_frozen,
                     __delattr__=_frozen)
    return type(cls.__name__, cls.__bases__, namespace)


def as_dict(rec):
    """{field: value} for the fields of a record, in their declared order:
    the one source of the keys of its JSON and the columns of its CSV."""
    return {f: getattr(rec, f) for f in rec.__slots__}

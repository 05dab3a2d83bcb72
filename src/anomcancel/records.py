"""Frozen value records: the `record` class decorator and `replace`.

`@record` takes the fields from the class's own annotations, unevaluated, and the
defaults from its body, and installs a frozen dataclass's methods, built on one
`operator.attrgetter`, generating no source: `__init__` (then `__post_init__`),
`__eq__`, `__hash__` (kept once taken), `__repr__`, `__reduce__` (so a pickle or
copy holds the fields only), and a raising `__setattr__` and `__delattr__`.
"""

from operator import attrgetter

_set = object.__setattr__


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    n = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fields = attrgetter(*names) if n > 1 else lambda self: (getattr(self, names[0]),)
    post_init = getattr(cls, "__post_init__", None)
    usage = f"{cls.__qualname__}() takes each of {', '.join(names)} once, or its default"

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if args:   # a positional argument past the fields, or one given again by name, is lost
                given = len(args) + len(kwargs)
                kwargs.update(zip(names, args))
                if len(kwargs) != given:
                    raise TypeError(usage)
            kwargs = {**defaults, **kwargs} if len(kwargs) < n else kwargs
            if len(kwargs) != n:
                raise TypeError(usage)
            try:
                for name in names:
                    _set(self, name, kwargs[name])
            except KeyError:
                raise TypeError(usage) from None
        else:
            for name, value in zip(names, args):
                _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or fields(self) == fields(other)

    def __hash__(self):
        try:
            return self._record_hash
        except AttributeError:
            _set(self, "_record_hash", hash(fields(self)))
            return self._record_hash

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{x}={getattr(self, x)!r}' for x in names)})"

    def __reduce__(self):   # a copy is built from the fields alone, never from a kept hash
        return type(self), fields(self)

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__reduce__ = __reduce__
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__record_fields__ = names
    return cls


def replace(obj, **changes):
    """A copy of the record `obj` with `changes`, built and checked by its `__init__`."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__record_fields__}, **changes})

"""Frozen records without `dataclasses`, whose import and `exec`s cost a quarter of start-up."""

import operator


def record(cls=None, /, *, eq: bool = True, order: bool = False):
    """`dataclasses.dataclass(frozen=True, eq=eq, order=order)`, with no `exec`, for a
    class whose own annotated names are its fields, each class value a default:
    `__init__` runs `__post_init__`, `__repr__` is dataclass's, `__eq__` holds within
    one class, `__hash__` hashes the tuple of fields, and with `order` those tuples
    compare.  Instances keep a `__dict__`, for `functools.cached_property`."""
    if cls is None:
        return lambda cls: record(cls, eq=eq, order=order)
    names = cls._record_fields = tuple(vars(cls).get("__annotations__", ()))
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    post = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            bound = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or bound.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            args = map(bound.__getitem__, names)
        self.__dict__.update(zip(names, args))
        post(self)

    def values(self):
        return tuple(map(self.__dict__.__getitem__, names))

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, _frozen, _frozen
    cls.__repr__ = lambda self: "{}({})".format(type(self).__qualname__, ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values(self))))
    if eq:
        cls.__hash__ = lambda self: hash(values(self))
    for name in ("__eq__",) * eq + ("__lt__", "__le__", "__gt__", "__ge__") * order:
        setattr(cls, name, lambda self, other, op=getattr(operator, name): (
            op(values(self), values(other)) if type(other) is type(self) else NotImplemented))
    return cls


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


def replace(obj, /, **changes):
    """A copy of the record `obj` with `changes`, checked again, as `dataclasses.replace`."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj._record_fields}, **changes})

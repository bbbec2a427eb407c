"""Plain record classes: each names its fields in `__slots__` (bar
`__dict__` and `__weakref__`), or in `_fields` where its defaults are
class attributes, and writes its own `__init__`.  A `Record` has the repr
`ClassName(field=value, ...)` and equality over the fields not in
`_uncompared`, never across classes; a mutable one is unhashable.  A
`Value` is immutable, assigns its fields with `set_field` and hashes them.
A record with `__dict__` may cache derived fields with `cached_property`.
"""

from operator import attrgetter

set_field = object.__setattr__


class Record:
    __slots__ = ()
    _uncompared = ()  # fields equality ignores, such as source lines

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls.__dict__.get("_fields") or tuple(
            f for f in cls.__dict__.get("__slots__", ())
            if not f.startswith("__"))
        compared = [f for f in cls._fields if f not in cls._uncompared]
        cls._values = attrgetter(*compared) if compared else lambda r: ()

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is not cls:
            return NotImplemented
        return cls._values(self) == cls._values(other)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class Value(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self.__class__._values(self))

    def __reduce__(self):  # copy and pickle rebuild it through `__init__`
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class cached_property:
    """`functools.cached_property` without the lock it takes on every
    first read before Python 3.12; the checker runs on one thread."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value

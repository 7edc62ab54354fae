"""Immutable value records whose methods are shared, not generated.

A subclass of :class:`Record` behaves as ``@dataclass(frozen=True)``
would make it, at a fraction of the class-creation cost:

- every annotation in the class body is a field, parent fields first; a
  class attribute of the same name is its default;
- ``__init__`` takes the fields positionally or by keyword, raises
  ``TypeError`` for a missing, unknown or repeated argument, then calls
  ``__post_init__`` if the class has one;
- ``==`` compares the field tuples of two instances of the same class
  (``NotImplemented`` across classes), and ``hash`` is the hash of that
  tuple, the same value a frozen dataclass gives;
- the repr is ``Qualname(field=value!r, ...)``;
- assignment and deletion raise ``AttributeError``; ``__post_init__``
  sets derived attributes with ``object.__setattr__``.

The methods live on :class:`Record` and read the layout that
``__init_subclass__`` records, so defining a record class compiles no
code.  That layout is the class attributes ``_fields``, ``_defaults``,
``_values``, ``_post_init`` and ``_bind``: a field or derived attribute
of one of these names would shadow it and break ``==``, ``hash`` or
construction.  Instances keep a ``__dict__``, so ``functools.cached_property``,
pickle and copy work as they do on a dataclass.  The price is paid per
object instead: one generic ``__init__`` builds a record more slowly than
a generated one would, most of all from keyword arguments.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


def _tuple_getter(fields: tuple[str, ...]):
    """A callable returning the record's field values as a tuple."""
    if not fields:  # ``attrgetter()`` takes at least one name
        return lambda self: ()
    if len(fields) == 1:
        get = attrgetter(fields[0])
        return lambda self: (get(self),)
    return attrgetter(*fields)


class Record:
    """Base class for frozen value records; see the module docstring."""

    def __init_subclass__(cls, **kwargs):
        """Record the field names, their defaults (``_MISSING`` when
        required), a getter of the field tuple and ``__post_init__``."""
        super().__init_subclass__(**kwargs)
        defaults: dict = {}
        for klass in reversed(cls.__mro__):
            if issubclass(klass, Record):
                for name in vars(klass).get("__annotations__", ()):
                    defaults[name] = getattr(klass, name, _MISSING)
        cls._fields = tuple(defaults)
        cls._defaults = defaults
        cls._values = staticmethod(_tuple_getter(cls._fields))
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one setattr per field, as a dataclass does: filling ``__dict__``
        # directly would turn off CPython's fast path for reading fields
        for name, value in zip(fields, args):
            _set(self, name, value)
        post_init = self._post_init
        if post_init is not None:
            post_init()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from arguments that are not exactly
        one positional value per field; ``kwargs`` is consumed."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            value = kwargs.pop(field, cls._defaults[field])
            if value is _MISSING:
                raise TypeError(f"{name}() missing required argument {field!r}")
            values.append(value)
        for key in kwargs:
            problem = "multiple values for argument" if key in cls._defaults else "an unexpected keyword argument"
            raise TypeError(f"{name}() got {problem} {key!r}")
        return values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

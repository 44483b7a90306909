"""One base for the package's record classes.

A record holds a fixed tuple of named fields, set once by its constructor.
A subclass declares its fields as class annotations, in constructor
order; a class attribute of the same name is that field's default, and
the defaulted fields come last.  ``__init_subclass__`` reads the
declaration once per class and gives the class its constructor, a closure
over the field names.  Every function here is compiled with the module:
defining a record class generates no code.

The constructor takes the fields by position or by keyword, fills in the
defaults and then calls the class's ``__post_init__``, if it has one,
which may set a field with ``object.__setattr__``.  After that a field
can be neither assigned nor deleted (``functools.cached_property`` still
caches on the instance, past ``__setattr__``).  Records compare and hash
by identity.  ``repr`` is ``Name(field=value, ...)``.
"""

_MISSING = object()


class Record:
    _fields = ()  # the field names, in constructor order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        pads = tuple(cls.__dict__.get(name, _MISSING) for name in names)
        required = [pad is _MISSING for pad in pads]
        if required != sorted(required, reverse=True):
            raise TypeError(f"{cls.__name__}: a field without a default "
                            "follows one with a default")
        cls._fields = names
        cls.__init__ = _initializer(names, pads,
                                    getattr(cls, "__post_init__", None))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _initializer(names, pads, post_init):
    """The constructor of a record class with the fields ``names``, whose
    defaults are ``pads`` (``_MISSING`` for a field without one)."""
    keys = frozenset(names)

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(names):
            self.__dict__.update(zip(names, args))
        elif not args and kwargs.keys() == keys:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(_bind(type(self), pads, args, kwargs))
        if post_init is not None:
            post_init(self)
    return __init__


def _bind(cls, pads, args, kwargs):
    """The fields of a constructor call by name, in field order, with the
    defaults filled in; TypeError for a missing, unknown or repeated
    argument, or for too many positional ones."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                        f"arguments but {len(args)} were given")
    fields = dict(zip(names, args))
    for name, pad in zip(names[len(args):], pads[len(args):]):
        value = kwargs.pop(name, pad)
        if value is _MISSING:
            raise TypeError(f"{cls.__name__}() missing required argument "
                            f"{name!r}")
        fields[name] = value
    for name in kwargs:
        if name in fields:
            raise TypeError(f"{cls.__name__}() got multiple values for "
                            f"argument {name!r}")
        raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                        f"argument {name!r}")
    return fields


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` to its fields, made by its
    constructor, so ``__post_init__`` runs again."""
    for name in record._fields:
        if name not in changes:
            changes[name] = getattr(record, name)
    return type(record)(**changes)

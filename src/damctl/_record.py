"""Immutable records, the base of every damctl value class.

A subclass names its fields by class annotations, base classes first (a
subclass may re-annotate a field to change its type, not its place), and
gives a default as a class attribute.  A record is built from position or
keyword, runs its class's `_check` once, refuses assignment and deletion,
equals only a record of its own class with equal fields, hashes by its
fields and prints as `Name(field=value, ...)`: what frozen dataclasses
gave, without their import cost (methods generated by `exec`, and
`inspect`).
"""


class Record:
    _fields = {}  # name -> annotated type, in field order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = {}
        for klass in reversed(cls.__mro__):
            if issubclass(klass, Record):
                cls._fields.update(klass.__annotations__)

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError("%s takes %d arguments but %d were given"
                            % (name, len(self._fields), len(args)))
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields:
                raise TypeError("%s got an unexpected argument %r" % (name, key))
            if key in values:
                raise TypeError("%s got multiple values for argument %r"
                                % (name, key))
            values[key] = value
        for key in self._fields:
            if key not in values:
                if not hasattr(type(self), key):
                    raise TypeError("%s is missing argument %r" % (name, key))
                values[key] = getattr(type(self), key)
        self.__dict__.update(values)
        self._check()

    def _check(self):
        """Validate the fields; a subclass raises ValueError on bad ones."""

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def _values(self):
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._values())))

    def to_dict(self):
        """The fields as a dict, nested records as dicts and dicts copied, as
        dataclasses.asdict gives them."""
        return {name: _copy(value)
                for name, value in zip(self._fields, self._values())}


def _copy(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    return value

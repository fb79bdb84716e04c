"""The one base of dkit's hand-written records."""


class Record:
    """An immutable value made of the fields named in ``_fields``.

    A subclass checks its arguments in its own ``__init__``, which ends in
    :meth:`_set`.  Equality (same type only), hash and repr read the fields
    alone, so what a ``cached_property`` keeps in ``__dict__`` stays out.
    No record is a dataclass: importing ``dataclasses`` (it loads
    ``inspect``) and generating per-class code lengthen every cold start.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **values):
        self.__dict__.update(values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

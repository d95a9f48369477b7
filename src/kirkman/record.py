"""Immutable value records, the base of the package's value classes.

A record names its fields in ``__slots__``; its ``__init__`` validates
the arguments and stores them with ``freeze``.  Records compare equal and
hash as the tuple of their field values, and only to records of the same
class; ``OrderedRecord`` adds that tuple's ordering.  The repr is
``Name(field=value, ...)``, and attributes cannot be assigned or deleted.

Classes built many times in one operation (labels, points, blocks, days,
designs, check results, colors and placements) store each field with
``set_field`` and the tuple of the field values with ``set_key``, as a
generated ``__init__`` would; ``freeze``'s call and loop cost about 0.2 us
more per object, which showed in a design check's nine check results.
"""

__all__ = ["Record", "OrderedRecord", "HashedRecord", "freeze", "set_field", "set_key"]

set_field = object.__setattr__


def freeze(record, *values):
    """Store ``record``'s field values, given in ``__slots__`` order."""
    for name, value in zip(record.__slots__, values):
        set_field(record, name, value)
    set_key(record, values)


class Record:
    __slots__ = ("_key",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        return type(self), self._key


def _ordering(compare):
    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(self._key, other._key)
        return NotImplemented

    return method


# the slot's own setter, quicker than looking the name up on every store
set_key = Record._key.__set__


class OrderedRecord(Record):
    __slots__ = ()
    __lt__ = _ordering(tuple.__lt__)
    __le__ = _ordering(tuple.__le__)
    __gt__ = _ordering(tuple.__gt__)
    __ge__ = _ordering(tuple.__ge__)


class HashedRecord(OrderedRecord):
    """An ordered record whose ``__init__`` also stores ``hash(key)`` as ``_hash``."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

"""Frozen value records, light to import.

The standard library's generated records would import ``inspect`` (with
``ast``, ``dis`` and ``tokenize``) and compile their methods at import, in
every CLI process.  ``Record`` supplies the same methods once, from the
class's ``_fields``; each record sets its fields with ``set_field`` in its
own ``__init__``.
"""

# object.__setattr__ keeps an instance's attribute values inline.  Touching
# ``self.__dict__`` would make a dict of them, and CPython 3.11 then no longer
# specializes method lookups on the instance: about 30 ns a call.
set_field = object.__setattr__


class Record:
    """Field-wise ``==``, ``hash`` and ``repr`` over ``_fields``; frozen."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

"""The ``node`` class decorator: value classes without ``dataclasses``.

``@node`` turns a class body's annotated fields into a ``__slots__`` class
with what a frozen ``@dataclass`` would generate: ``__init__``
(defaults, ``__post_init__``), ``__eq__`` (same class, equal fields),
``__hash__`` (of the fields) and ``__repr__``. Every node refuses
assignment and deletion after ``__init__``, which stores each field
through its slot's member descriptor, the one write ``__setattr__`` does
not see; a ``__post_init__`` that normalises a field does the same with
``object.__setattr__``. A node is only as immutable as its fields, so
nodes hold tuples, never lists, wherever they can.

A ``lazy`` method of a node is computed on first read and kept in
a slot of its own. That slot is not a field: it takes no part in
``__init__``, eq, hash, repr, ``replace``, copying or pickling, so equal
nodes stay equal whether or not their caches are warm. The code that
builds a node may ``preset`` a value it knows by construction, which
takes the cache's place and is just as invisible.

``__init__``, ``__eq__`` and ``__hash__`` are compiled per class, so they
read each field directly and are as fast as the dataclass versions, while
building a class costs a fraction of ``@dataclass`` and loads no
``inspect``.
"""

from __future__ import annotations

_MISSING = object()


class lazy:
    """A method of a node whose value is computed once per node,
    on first read, and then read like a field: ``@lazy def entry(self)``.
    A call that raises caches nothing."""

    __slots__ = ("make", "slot")

    def __init__(self, make):
        self.make = make
        self.slot = None  # the cache slot's member descriptor, set by node

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        slot = self.slot
        try:
            return slot.__get__(obj, owner)
        except AttributeError:
            value = self.make(obj)
            slot.__set__(obj, value)
            return value

    def preset(self, obj, value) -> None:
        """Store ``value`` as ``obj``'s, which is then never computed."""
        self.slot.__set__(obj, value)


def node(cls):
    """Class decorator: a frozen value class from the annotated fields."""
    ns = dict(cls.__dict__)
    names = tuple(ns.get("__annotations__", ()))
    lazies = {name: value for name, value in ns.items()
              if isinstance(value, lazy)}
    scope = {}
    params, body = ["self"], []
    for name in names:
        default = ns.pop(name, _MISSING)
        if default is _MISSING:
            params.append(name)
        else:
            scope[f"_d_{name}"] = default
            params.append(f"{name}=_d_{name}")
        body.append(f"_s_{name}(self, {name})")
    if "__post_init__" in ns:
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    exec(f"def __init__({', '.join(params)}):\n"
         f" {'; '.join(body) or 'pass'}\n"
         "def __eq__(self, other):\n"
         " if other.__class__ is self.__class__:\n"
         f"  return ({mine}) == ({theirs})\n"
         " return NotImplemented\n"
         f"def __hash__(self):\n return hash(({mine}))\n", scope)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    caches = tuple(f"_lazy_{name}" for name in lazies)
    ns.update(__slots__=names + caches, _fields=names,
              __qualname__=cls.__qualname__,
              __init__=scope["__init__"], __eq__=scope["__eq__"],
              __hash__=scope["__hash__"], __repr__=_repr,
              __reduce__=_reduce, __setattr__=_refuse, __delattr__=_refuse)
    built = type(cls)(cls.__name__, cls.__bases__, ns)
    for name in names:  # the generated __init__ resolves these when it runs
        scope[f"_s_{name}"] = built.__dict__[name].__set__
    for name, value in lazies.items():
        value.slot = built.__dict__[f"_lazy_{name}"]
    return built


def replace(obj, **changes):
    """A new node like ``obj`` with the fields in ``changes`` replaced."""
    fields = {name: getattr(obj, name) for name in obj._fields}
    return obj.__class__(**{**fields, **changes})


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}"
                       for name in self._fields)
    return f"{self.__class__.__qualname__}({fields})"


def _reduce(self):
    # rebuilt through __init__, so copy, deepcopy and pickle work on nodes
    # that refuse assignment, and leave their lazy caches behind
    return self.__class__, tuple(getattr(self, name)
                                 for name in self._fields)


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")

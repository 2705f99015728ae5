"""Few-photon linear-optics toolkit: equilibration toward generalized Gibbs
statistics and measurement-based fidelity and entanglement certification."""

import importlib

__version__ = "0.1.0"

_LAYERS = ("apparatus", "certify", "fock", "gge", "hamiltonian", "linalg")


def __getattr__(name):
    """Import a layer on first access: a bare import photherm loads none of them."""
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def record(cls):
    """Make cls a frozen value record of its annotated fields, in order.

    It behaves as dataclass(frozen=True) does here: __init__ takes the
    fields, with their class-level values as defaults, sets each and then
    calls __post_init__ if cls has one; a field cannot be assigned or
    deleted; two records are equal, and hash alike, when they are of the
    same class and hold equal field values; repr lists the fields. A
    record never equals a tuple or a record of another class.
    replace(**changes) builds a copy through __init__. Only __init__ is
    compiled per class (one exec, as fast per instance as dataclass's);
    the rest is shared, which is why no photherm module loads dataclasses.
    """
    fields = tuple(cls.__annotations__)
    params = [f"{f}=__cls.{f}" if f in cls.__dict__ else f for f in fields]
    body = [f"__set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"__cls": cls, "__set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), namespace)
    cls.__init__, cls.__match_args__ = namespace["__init__"], fields
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__eq__, cls.__hash__, cls.__repr__, cls.replace = _eq, _hash, _repr, _replace
    return cls


def _values(rec) -> tuple:
    return tuple([getattr(rec, f) for f in rec.__match_args__])


def _frozen(self, name, value=None):
    # __setattr__(name, value) and __delattr__(name) alike
    raise AttributeError(f"cannot assign to field {name!r}")


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self):
    return hash(_values(self))


def _repr(self):
    fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _replace(self, **changes):
    """A copy with the given fields changed, checked by __init__ as a new record is."""
    return self.__class__(**{f: getattr(self, f) for f in self.__match_args__} | changes)

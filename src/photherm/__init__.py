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

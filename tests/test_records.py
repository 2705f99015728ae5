"""The frozen value records that photherm.record makes of the package's data classes."""

from __future__ import annotations

import numpy as np
import pytest

from photherm import apparatus, certify, fock, gge, hamiltonian, record


@record
class Pair:
    """A record with the fields of certify.ForbiddenSet, and a default."""

    n: int
    m: int = 3


def test_fields_can_be_neither_assigned_nor_deleted():
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
    point = gge.TracePoint(0.5, gge.gge_marginal(2, 4), 0.1)
    for rec, name in ((spec, "modes"), (point, "t"), (spec, "not_a_field")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            delattr(rec, name)
    assert spec.modes == 4 and point.t == 0.5


def test_post_init_checks_and_normalizes_on_construction_and_replace():
    with pytest.raises(ValueError, match="at least 2 modes"):
        hamiltonian.HamiltonianSpec(kind="hopping", modes=1)
    with pytest.raises(ValueError, match="at least 2 modes"):
        hamiltonian.HamiltonianSpec(kind="hopping", modes=4).replace(modes=1)
    with pytest.raises(ValueError, match="squeezing amplitude"):
        apparatus.SourceModel(squeezing=1.5)
    with pytest.raises(ValueError, match="squeezing amplitude"):
        apparatus.SourceModel().replace(squeezing=1.5)
    det = apparatus.DetectionModel(weights=[[0.1, 0.2, 0.3]])
    assert det.weights == ((0.1, 0.2, 0.3),)
    moved = det.replace(weights=[[0, 1, 0]], dark_count_prob=0.01)
    assert moved.weights == ((0.0, 1.0, 0.0),) and type(moved.weights[0][0]) is float
    assert (moved.dark_count_prob, moved.blinding_slope) == (0.01, det.blinding_slope)
    assert det.weights == ((0.1, 0.2, 0.3),)  # replace leaves the original alone
    mix = fock.Mixture([(1, [[1, 0], [0, 1]])])
    assert mix.components == ((1.0, ((1, 0), (0, 1))),)


def test_equality_and_hash_go_by_class_and_value():
    a = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
    b = hamiltonian.HamiltonianSpec("hopping", 4, 1.0, None, True, None)
    assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != a.replace(coupling=2.0)
    fs = certify.ForbiddenSet(3, 3)
    assert fs == certify.ForbiddenSet(n=3, m=3)
    assert fs != (3, 3) and (3, 3) != fs
    assert fs != Pair(3, 3) and Pair(3, 3) != fs
    assert Pair(3) == Pair(3, 3) and hash(Pair(3)) == hash(Pair(3, 3))
    mesh = apparatus.MeshParams(2, ((0, 0.5, 0.0),), (0.0, 1.0))
    assert mesh != (2, ((0, 0.5, 0.0),), (0.0, 1.0))


def test_repr_lists_the_fields_in_order():
    assert repr(Pair(1)) == "Pair(n=1, m=3)"
    mesh = apparatus.MeshParams(2, ((0, 0.5, 0.0),), (0.0, 1.0))
    assert repr(mesh) == "MeshParams(modes=2, crossings=((0, 0.5, 0.0),), phases=(0.0, 1.0))"
    assert repr(apparatus.Apparatus(mesh_jitter=0.1)) == (
        "Apparatus(source=None, detection=None, mesh_jitter=0.1)")


@pytest.mark.parametrize("build", [
    lambda: hamiltonian.HamiltonianSpec(kind="hopping"),                # missing
    lambda: hamiltonian.HamiltonianSpec("hopping", 4, colour="red"),    # unknown
    lambda: hamiltonian.HamiltonianSpec("hopping", 4, modes=4),         # repeated
    lambda: certify.ForbiddenSet(1, 2, 3),                              # surplus
    lambda: Pair(),                                                     # missing, with a default
    lambda: Pair(1).replace(k=2),                                       # unknown in replace
])
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_an_equal_source_hits_the_useful_weights_cache():
    first, second = apparatus.SourceModel(squeezing=0.37), apparatus.SourceModel(squeezing=0.37)
    assert first == second and first is not second
    weights = apparatus._useful_weights(first, 3, True)
    hits = apparatus._useful_weights.cache_info().hits
    assert apparatus._useful_weights(second, 3, True) is weights
    assert apparatus._useful_weights.cache_info().hits == hits + 1


def test_cached_properties_compute_once_and_leave_equality_alone():
    fs = certify.ForbiddenSet(3, 3)
    assert fs.patterns is fs.patterns and "patterns" in vars(fs)
    assert fs == certify.ForbiddenSet(3, 3)
    det = apparatus.DetectionModel.ideal(2)
    assert det._edges is det._edges
    np.testing.assert_allclose(det._edges, [[1 / 3, 2 / 3, 1.0]] * 2)
    assert det == apparatus.DetectionModel.ideal(2)

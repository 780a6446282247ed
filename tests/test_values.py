"""The package's value rule: a type that holds numpy arrays compares and
hashes by identity, and a type that holds only scalars compares by value."""

import dataclasses
import weakref

import pytest

import detline
from detline import (CircleModel, DetElement, EtaData, GradedDims,
                     build_signature, cohomology_frame, refined_torsion,
                     spectral_split)
from detline.selftest import _instance


def _pair():
    """The same seeded chiral pair, drawn twice: equal numbers, no shared
    array."""
    return [_instance(3, 3, acyclic=False) for _ in range(2)]


def _apart(build):
    return lambda: tuple(build(c, g) for c, g in _pair())


# each builds two objects of the type apart, from equal numbers
BUILT_APART = {
    "CochainComplex": _apart(lambda c, g: c),
    "ChiralityOp": _apart(lambda c, g: g),
    "CohomologyFrame": _apart(lambda c, g: cohomology_frame(c)),
    "CohomologyElement": _apart(refined_torsion),
    "SignatureOp": _apart(build_signature),
    "SpectralPart": _apart(lambda c, g: spectral_split(c, g, 0.0).small),
    "SpectralSplit": _apart(lambda c, g: spectral_split(c, g, 0.0)),
}
BY_VALUE = {
    "GradedDims": lambda: GradedDims((1, 2, 2, 1)),
    "DetElement": lambda: DetElement(2 - 1j, GradedDims((1, 1))),
    "EtaData": lambda: EtaData(0.5, 1, 0, 0, 0),
    "CircleModel": lambda: CircleModel(0.25 + 0.5j, 2.0),
}


def _package_dataclasses():
    return {cls.__name__: cls for cls in vars(detline).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)}


def test_every_package_dataclass_follows_the_rule():
    classes = _package_dataclasses()
    assert set(classes) == set(BUILT_APART) | set(BY_VALUE)
    for name, cls in classes.items():
        params = cls.__dataclass_params__
        assert params.frozen, name
        assert params.eq == (name in BY_VALUE), name
        # no field opts out of comparison: identity needs no such flag
        assert all(f.compare for f in dataclasses.fields(cls)), name


@pytest.mark.parametrize("name", sorted(BUILT_APART))
def test_array_types_compare_and_hash_by_identity(name):
    x, y = BUILT_APART[name]()
    assert type(x).__name__ == type(y).__name__ == name
    assert x == x and not x != x
    assert x != y and not x == y
    assert x in [y, x] and x not in [y] and x not in (y,)
    assert hash(x) == hash(x)
    assert len({x, y, x}) == 2
    weak = weakref.WeakKeyDictionary({x: "x"})
    assert weak[x] == "x" and y not in weak


@pytest.mark.parametrize("name", sorted(BY_VALUE))
def test_scalar_types_compare_and_hash_by_value(name):
    x, y = BY_VALUE[name](), BY_VALUE[name]()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y) and len({x, y}) == 1

"""The value contract shared by the package's result types.

`SolverResult`, `PropagationTrace`, `Classification`, `ReductionOutput`
and `ExtractedSet` are named tuples: fields in a fixed order, read by name,
never assigned, compared and hashed by value, and picklable.
"""

import pickle

import pytest


def assert_value_type(obj, twin, fields):
    """`obj` has exactly `fields`, in that order, readable by name and
    refusing assignment; it equals and hashes like `twin`, an equal value
    built apart from it; and a pickle round trip returns an equal object
    of the same type."""
    assert obj._fields == fields
    assert tuple(obj) == tuple(getattr(obj, name) for name in fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        obj.extra = None
    assert obj is not twin
    assert obj == twin and hash(obj) == hash(twin)
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj) and copy == obj

"""Dataclass fields at the input boundary: each is checked against its annotation."""

import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtherm.driver import DriverError, SimConfig
from voxtherm.fem import BoundarySpec, FemError, MaterialParams
from voxtherm.schedule import ScheduleError, SparsityPolicy

# each checked dataclass -> the named error its module raises
ERRORS = {
    SimConfig: DriverError,
    MaterialParams: FemError,
    BoundarySpec: FemError,
    SparsityPolicy: ScheduleError,
}

# short values of every kind a field might be given, as Python or numpy
# scalars (nan and inf included), alone or in tuples and lists
_float = st.floats(-30, 30) | st.sampled_from([math.nan, math.inf, -math.inf])
_scalar = st.one_of(
    st.integers(-3, 30),
    _float,
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.integers(-3, 30).map(np.int64),
    _float.map(np.float64),
    st.booleans().map(np.bool_),
    st.text(max_size=3).map(np.str_),
)
_value = st.one_of(
    _scalar,
    st.lists(_scalar, max_size=3).map(tuple),
    st.lists(_scalar, max_size=3),
    st.sampled_from([MaterialParams(), BoundarySpec(), SparsityPolicy()]),
)


@st.composite
def _construction(draw):
    cls = draw(st.sampled_from(list(ERRORS)))
    names = [f.name for f in fields(cls)]
    return cls, draw(st.dictionaries(st.sampled_from(names), _value, max_size=3))


@settings(max_examples=400, deadline=None)
@given(_construction())
def test_any_field_values_construct_or_raise_the_modules_error(case):
    """A dataclass built from any short field values either constructs or
    fails as its module's named error holding no numpy repr; no other
    exception escapes."""
    cls, kwargs = case
    try:
        cls(**kwargs)
    except ERRORS[cls] as err:
        assert "np." not in str(err), str(err)

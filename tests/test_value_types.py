"""
The value types behind the CLI's output. ``BasisFamily`` and ``XiContext``
are tuples of their fields: they key the per-context caches and label sets,
so their hashes and equality fix every set and dict iteration order behind
stdout. Each refuses a bad field in its constructor.
"""

import re

import pytest

from cellular_hecke.cellular import BasisFamily, family_m, family_m_xi, family_n
from cellular_hecke.label_maps import XiContext
from cellular_hecke.serialization import FIELDS


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda: BasisFamily("m"),
                 "m/n family needs a 01-sequence c", id="m-without-c"),
    pytest.param(lambda: BasisFamily("n", c=(0, 2)),
                 "m/n family needs a 01-sequence c", id="n-c-not-01"),
    pytest.param(lambda: BasisFamily("m", c=(0, 1), xi=(1, 2)),
                 "m/n family takes no xi", id="m-with-xi"),
    pytest.param(lambda: BasisFamily("mxi"),
                 "mxi/nxi family needs a permutation xi", id="mxi-without-xi"),
    pytest.param(lambda: BasisFamily("nxi", xi=(1, 1)),
                 "mxi/nxi family needs a permutation xi", id="nxi-xi-not-perm"),
    pytest.param(lambda: BasisFamily("mxi", c=(0, 1), xi=(1, 2)),
                 "mxi/nxi family takes no c", id="mxi-with-c"),
    pytest.param(lambda: BasisFamily("q", c=(0, 1)),
                 "unknown family kind 'q'", id="unknown-kind"),
    pytest.param(lambda: XiContext((0, 1), (1, 2), 0),
                 "omega must be weakly decreasing", id="omega-increasing"),
    pytest.param(lambda: XiContext((1, 0), (1, 1), 0),
                 "xi must be a permutation of the components",
                 id="xi-not-perm"),
    pytest.param(lambda: XiContext((1, 0), (1, 2, 3), 0),
                 "xi must be a permutation of the components",
                 id="xi-too-long"),
    pytest.param(lambda: XiContext((1, 0), (1, 2), 1),
                 "base point above the smallest parameter", id="lo-above-min"),
])
def test_constructor_refuses_a_bad_field(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# the hash of the tuple of fields: the set orders behind stdout rest on it
@pytest.mark.parametrize("value,fields", [
    pytest.param(family_m((0, 1)), ("m", (0, 1), None), id="BasisFamily-m"),
    pytest.param(family_m_xi((2, 1)), ("mxi", None, (2, 1)),
                 id="BasisFamily-mxi"),
    pytest.param(XiContext((3, 2, 2), (2, 1, 3), 1), ((3, 2, 2), (2, 1, 3), 1),
                 id="XiContext"),
])
def test_hash_is_the_hash_of_the_fields(value, fields):
    assert hash(value) == hash(fields)


def test_family_repr_and_keys():
    assert repr(family_m((0, 1))) == "BasisFamily(kind='m', c=(0, 1), xi=None)"
    assert family_m((0, 1)) == BasisFamily("m", c=(0, 1))
    assert hash(family_m((0, 1))) == hash(BasisFamily("m", c=(0, 1)))
    keys = [family_m((0, 1)), family_m((1, 0)), family_n((0, 1)),
            family_m_xi((1, 2)), family_m_xi((2, 1))]
    assert len(dict.fromkeys(keys)) == len(keys)
    assert len(dict.fromkeys(keys + [family_m([0, 1])])) == len(keys)


def test_config_fields_are_the_flag_order():
    assert FIELDS == ("ell", "r", "omega", "c", "xi", "family", "format")

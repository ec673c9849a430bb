"""Shared fixtures: the standing test datums and JSON file helpers.

Datum overview (A to F on cyclic groups, generator written g):

* ``datum_a`` -- Z_2, chi(g) = -1, a = g, alpha = 0: nilpotent, n = 2, m = 1.
* ``datum_b`` -- Z_4, chi(g) = -1, a = g, alpha = 0: nilpotent, n = 2, m = 2.
* ``datum_c`` -- Z_4, chi(g) = -1, a = g, alpha = 1: non-nilpotent, n = 2, m = 2.
* ``datum_e`` -- Z_9, chi(g) = zeta_3, a = g, alpha = 1: non-nilpotent, n = 3,
  m = 3.  Used where n = 2 is too small to expose an error (the closing-edge
  coefficient misread is invisible when l = n - 1).
* ``D`` -- Z_6, chi(g) = zeta_3, a = g, alpha = 0: nilpotent, n = 3, m = 2.
* ``F`` -- Z_3, chi(g) = zeta_3, a = g, alpha = 0: nilpotent, n = 3, m = 1.
  D and F (JSON only, no fixture) pin the chain and band builders at l = 2,
  where l differs from n - l.
* ``H`` -- Z_16, chi(g) = zeta_8, a = g, alpha = 1: non-nilpotent, n = 8, m = 2
  (JSON only); pins covers and hulls at large n, where V(n, -) is its own
  cover.
* ``R2`` -- Z_4 x Z_4, chi(g1) = i, chi(g2) = -1, a = g1 g2, alpha = 0:
  nilpotent, n = 4, m = 1; the one standing datum of rank two (JSON only).
"""

from __future__ import annotations

import json

import pytest

from doublerep.cyclo import CycScalar
from doublerep.datum import datum_from_json
from doublerep.linalg import Mat, inv

DATUM_JSON = {
    "A": {"orders": [2], "chi": [1], "a": [1], "alpha": 0},
    "B": {"orders": [4], "chi": [2], "a": [1], "alpha": 0},
    "C": {"orders": [4], "chi": [2], "a": [1], "alpha": 1},
    "E": {"orders": [9], "chi": [3], "a": [1], "alpha": 1},
    "D": {"orders": [6], "chi": [2], "a": [1], "alpha": 0},
    "F": {"orders": [3], "chi": [1], "a": [1], "alpha": 0},
    "H": {"orders": [16], "chi": [2], "a": [1], "alpha": 1},
    "R2": {"orders": [4, 4], "chi": [1, 2], "a": [1, 1], "alpha": 0},
}

INVALID_DATUM_JSON = {"orders": [8], "chi": [2], "a": [2], "alpha": 1}


def make_datum(key: str):
    return datum_from_json(DATUM_JSON[key])


@pytest.fixture(scope="session")
def datum_a():
    return make_datum("A")


@pytest.fixture(scope="session")
def datum_b():
    return make_datum("B")


@pytest.fixture(scope="session")
def datum_c():
    return make_datum("C")


@pytest.fixture(scope="session")
def datum_e():
    return make_datum("E")


@pytest.fixture
def write_json(tmp_path):
    """Write an object as JSON under tmp_path and return the path as str."""

    def _write(name: str, obj) -> str:
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return _write


def sparse(v):
    """The ``{index: nonzero value}`` vector of a dense sequence."""
    return {k: x for k, x in enumerate(v) if x}


def first_weight(datum, l):
    return datum.weights_in_class(l)[0]


def upper_ones(datum, dim):
    """The upper-triangular all-ones matrix: a change of basis that mixes
    weight vectors of different weights."""
    one = datum.one()
    return Mat(datum.N, ({j: one for j in range(i, dim)} for i in range(dim)), dim)


def conjugated_json(mod, change):
    """``mod.to_json()`` written in the basis given by the columns of
    ``change``: every generator matrix M becomes change^-1 M change."""
    back = inv(change)

    def conj(rows):
        m = Mat.from_rows(mod.datum.N, [[CycScalar.from_json(e) for e in r] for r in rows],
                          ncols=mod.dim)
        return [[v.to_json() for v in r] for r in (back * m * change).rows]

    doc = mod.to_json()
    mats = doc["matrices"]
    doc["matrices"] = {"group": [conj(m) for m in mats["group"]],
                       "gamma": [conj(m) for m in mats["gamma"]],
                       "x": conj(mats["x"]), "xi": conj(mats["xi"])}
    return doc

"""The records decorr returns: immutable NamedTuples with a field-by-field repr."""

import json

import numpy as np
import pytest

from decorr import algebra, expansion, gibbs, lattice, model
from decorr.algebra import GlobalOperator
from decorr.cli import main
from decorr.lattice import LatticeGeometry, Region, chain_geometry

from conftest import pauli_at

RECORDS = [
    algebra.Eigensystem,
    algebra.BlockOperator,
    algebra.BlockEigensystem,
    gibbs.ThermalState,
    gibbs.DecayFit,
    gibbs.BoundCertificate,
    lattice.SuperclusterDecomposition,
    model.GapCheck,
    model.InteractionTerm,
    expansion.FactorizationCheck,
    expansion.SwapCheck,
    expansion.SuperclusterCheck,
    expansion.PartitionRatio,
]


def _instances():
    # the plain records hold whatever they are given; the two checked ones, valid input
    yield from (cls(*range(len(cls._fields))) for cls in RECORDS)
    yield chain_geometry(3)
    yield pauli_at(1, "Z")


@pytest.mark.parametrize("record", list(_instances()), ids=lambda r: type(r).__name__)
def test_a_record_is_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):  # and it takes no new attribute
        record.extra = 0


@pytest.mark.parametrize("record", list(_instances()), ids=lambda r: type(r).__name__)
def test_a_record_reprs_field_by_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_records_compare_and_hash_by_value():
    assert chain_geometry(2) == LatticeGeometry(D=1, R=1, sites=Region([(0,), (1,)]))
    assert hash(chain_geometry(2)) == hash(chain_geometry(2))
    assert repr(chain_geometry(2)) == "LatticeGeometry(D=1, R=1, sites=Region([(0,), (1,)]))"
    assert model.GapCheck(True, 0.0, 1.0, 1) == model.gap_check(np.diag([0.0, 1.0]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LatticeGeometry(0, 1, Region()), "dimension and radius must be positive"),
        (
            lambda: LatticeGeometry(D=1, R=0, sites=Region()),
            "dimension and radius must be positive",
        ),
        (
            lambda: LatticeGeometry(1, 1, Region([(0,), (0, 1)])),
            "site (0, 1) has wrong dimension (expected 1)",
        ),
        (
            lambda: GlobalOperator(Region([(0,), (1,)]), 2, np.eye(2)),
            "matrix shape (2, 2) does not match q^|region| = 4",
        ),
        (
            lambda: GlobalOperator(region=Region([(0,)]), q=3, matrix=np.eye(2)),
            "matrix shape (2, 2) does not match q^|region| = 3",
        ),
        # NamedTuple's _replace and _make build without __new__; these two check anyway
        (lambda: chain_geometry(3)._replace(R=0), "dimension and radius must be positive"),
        (
            lambda: LatticeGeometry._make((2, 1, Region([(0,)]))),
            "site (0,) has wrong dimension (expected 2)",
        ),
        (
            lambda: pauli_at(0, "Z")._replace(q=3),
            "matrix shape (2, 2) does not match q^|region| = 3",
        ),
    ],
    ids=[
        "geometry-D", "geometry-R", "geometry-site", "operator-region", "operator-q",
        "geometry-replace", "geometry-make", "operator-replace",
    ],
)
def test_the_checked_records_refuse_bad_input(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_a_bound_certificate_is_the_reports_certificate_block(tmp_path, chain6):
    config = tmp_path / "certify.json"
    model_block = {"n": 6, "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.02, "J3": 0.02}
    config.write_text(json.dumps({"model": model_block}))
    assert main(["certify", "--config", str(config), "--out", str(tmp_path)]) == 0
    block = json.loads((tmp_path / "certify_report.json").read_text())["certificate"]
    assert block == {"a": chain6.a, **gibbs.bound_certificate(chain6)._asdict()}

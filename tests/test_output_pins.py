"""Byte pins of the exported files and of tau_bc.

The digests were recorded before point evaluation and the evaluation of
vector functions became block operations; any change that moves a last
digit of an exported value, or the order of the rows, fails here.
"""

import hashlib
import json

import pytest

from polydiv.catalog import catalog_names, catalog_polygon
from polydiv.elements import SingularTransfer
from polydiv.harness import cmd_basis, cmd_element, cmd_rtcompare
from polydiv.hdiv_basis import HdivSpaceKind, SpaceTag, canonical_basis

ELEMENT_FILES = ("lambda.csv", "traces.csv", "interior.csv", "summary.json")
BASIS_FILES = ("traces.csv", "interior.csv", "summary.json")

# (shape, space, config, k, h divisor or absolute h) -> sha256 per file
ELEMENT_PINS = {
    ("fig165", "classical", "IIb", 1, "diameter/16"): {
        "lambda.csv": "4b0227964dc57805cdebb91ca647c63650bf00e73918ca117328275c461fd9ca",
        "traces.csv": "3273d5ace2e50cf0e096feaad54c037dc3e411ffe2f1a20fbe2cdc0564784b9a",
        "interior.csv": "a1e7a66e27dcf259e6ee4184e7604de6467ceb0066f375c7085372d6cd2c1417",
        "summary.json": "e7ef44b173371524b403fc3377a35270cedacb506c2ce5069f275c6cb31c5a12",
    },
    ("fig151", "reduced", "IIb", 0, 0.06): {
        "lambda.csv": "51caaa8d97c6d8e45641a7c28c6788a220632357054ac411e784b6273d00c5a2",
        "traces.csv": "753594d7b2a264cb974264cbecf856edc525c5303a132ab629a1bccd405281d1",
        "interior.csv": "7abc51d422417429d8022fd0afd897260c67db296d0b1c69d316d221f16ad921",
        "summary.json": "83221cbf470a86eca97f05693dfa97499bc091dce791c0a9f983ae2fea1e2090",
    },
}

# cmd_basis("fig167", "reduced-natural", k=1) at h = diameter/16
BASIS_PIN = {
    "traces.csv": "58a13a0fd6198840e688906049ddde3cd9ca99f27de435878f83c82a26ad515d",
    "interior.csv": "51490294bc772f654808d2ad7a05183b65c6142df6c6867784ee5b243c6ab98d",
    "summary.json": "39179365919435575367190fcf1f223f796697bc219888bea23927e559424601",
}

# cmd_rtcompare(shape, k) -> sha256 of rtcompare.json
RTCOMPARE_PINS = {
    ("triangle", 0): "7f368ad0397702fa538627dca079090b9d1a0c1db9007a3fc2989c8294c51ff9",
    ("quad", 1): "796cb4cc1449fd2ea1e11ac13efe542197eeced4c2e83e511da93b6facf7626b",
    ("triangle", 2): "9fa7f3d1340418495bd10a881fa75f6b568f05290425520a8e86bb56737545c5",
}

# repr(tau_bc) of the classical k = 1 basis at h = diameter/16: on every
# catalog shape the measured boundary error is below the 1e-12 floor
TAU_BC_PINS = dict.fromkeys(catalog_names(), "1e-11")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _h(shape: str, h) -> float:
    return catalog_polygon(shape).diameter / 16 if h == "diameter/16" else h


@pytest.mark.parametrize("case", sorted(ELEMENT_PINS, key=str), ids=lambda c: f"{c[0]}-{c[1]}-k{c[3]}")
def test_element_outputs_pinned(tmp_path, case):
    shape, space, config, k, h = case
    cmd_element(shape, space, config, k, tmp_path, h=_h(shape, h))
    assert {name: _sha256(tmp_path / name) for name in ELEMENT_FILES} == ELEMENT_PINS[case]


def test_basis_outputs_pinned(tmp_path):
    cmd_basis("fig167", "reduced-natural", 1, tmp_path, h=_h("fig167", "diameter/16"))
    assert {name: _sha256(tmp_path / name) for name in BASIS_FILES} == BASIS_PIN


@pytest.mark.parametrize("case", sorted(RTCOMPARE_PINS), ids=lambda c: f"{c[0]}-k{c[1]}")
def test_rtcompare_pinned(tmp_path, case):
    cmd_rtcompare(*case, tmp_path)
    assert _sha256(tmp_path / "rtcompare.json") == RTCOMPARE_PINS[case]


def test_tau_bc_pinned():
    spec = HdivSpaceKind(SpaceTag.CLASSICAL, 1)
    got = {}
    for name in catalog_names():
        p = catalog_polygon(name)
        got[name] = repr(canonical_basis(p, spec, h=p.diameter / 16, allow_invalid=True).tau_bc)
    assert len(got) == 24 and got == TAU_BC_PINS


def test_singular_transfer_exports_the_canonical_basis(tmp_path, monkeypatch):
    # a transfer matrix above the ceiling leaves the canonical functions
    # to be exported, exactly as cmd_basis writes them
    def singular(T, basis, *args, **kwargs):
        raise SingularTransfer("forced")

    monkeypatch.setattr("polydiv.harness.tune_basis", singular)
    h = _h("fig165", "diameter/16")
    element, basis = tmp_path / "element", tmp_path / "basis"
    cmd_element("fig165", "classical", "IIb", 1, element, h=h)
    cmd_basis("fig165", "classical", 1, basis, h=h)
    summary = json.loads((element / "summary.json").read_text())
    assert summary["singular"] == "forced"
    assert "degenerated" not in summary
    for name in ("traces.csv", "interior.csv"):
        assert (element / name).read_bytes() == (basis / name).read_bytes()

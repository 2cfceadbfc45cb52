"""Byte pins of the exported files and of tau_bc.

The digests were recorded before point evaluation and the evaluation of
vector functions became block operations; any change that moves a last
digit of an exported value, or the order of the rows, fails here.  The
digests of files that carry solved field values (interior samples, tuned
traces, Λ and what is computed from it) were re-recorded when the interior
stiffness became factored in SuperLU's symmetric mode with a minimum-degree
ordering: the solves then round differently in their last bits.
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
        "lambda.csv": "408c4d525c20b016784569fa24538a97f3328589c4371e2a857db311674756e0",
        "traces.csv": "905eefc8493515fc6416ba53853399ec782d41fd14b995e973235dc82ccd75b3",
        "interior.csv": "a2bb758e39ea841b6cbca503cdeea26c2f873608e13e75a0d77d88e9888dbdc1",
        "summary.json": "dc93b357fb0e472e2f6ea3b6e389e2ee1a4c99b2f7cba75b049ec34ec37c33f7",
    },
    ("fig151", "reduced", "IIb", 0, 0.06): {
        "lambda.csv": "51caaa8d97c6d8e45641a7c28c6788a220632357054ac411e784b6273d00c5a2",
        "traces.csv": "753594d7b2a264cb974264cbecf856edc525c5303a132ab629a1bccd405281d1",
        "interior.csv": "20bb92c7f463c8187c348554fddf8b958ddbbbd498b83e88a42b5444b0c5e11c",
        "summary.json": "83221cbf470a86eca97f05693dfa97499bc091dce791c0a9f983ae2fea1e2090",
    },
}

# cmd_basis("fig167", "reduced-natural", k=1) at h = diameter/16
BASIS_PIN = {
    "traces.csv": "58a13a0fd6198840e688906049ddde3cd9ca99f27de435878f83c82a26ad515d",
    "interior.csv": "e1fedfe6914bdad1defb5f37b698f673a8aa9e092a7d64538ee08a4454cc4e35",
    "summary.json": "39179365919435575367190fcf1f223f796697bc219888bea23927e559424601",
}

# cmd_rtcompare(shape, k) -> sha256 of rtcompare.json
RTCOMPARE_PINS = {
    ("triangle", 0): "7f368ad0397702fa538627dca079090b9d1a0c1db9007a3fc2989c8294c51ff9",
    ("quad", 1): "425170bf3a6a8af32c4b38bda194f2df270f7815043d914b6950e279cd765597",
    ("triangle", 2): "1a9f6d67052191b69fbf7e15b9e0a676348e66b8e372bbc33dd577ed47cdd49a",
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

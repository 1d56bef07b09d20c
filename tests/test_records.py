"""Records: immutable namedtuples, and what importing the package loads.

Three functions build a Fraction, and each imports ``fractions`` when it
runs: ``make_variety`` given a J entry that is not an int,
``intlinalg.rational_solve`` and ``report._rational``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from abelian_fourier.hodge import hodge_lattice
from abelian_fourier.suite import REGISTRY, run_check
from abelian_fourier.varieties import product, standard_ppav

SRC = Path(__file__).resolve().parents[1] / "src"

# modules the package does without: dataclasses pulls in inspect, ast and
# dis; fractions pulls in decimal; only the non-integral paths import
# fractions, when they build a Fraction
NOT_LOADED = ("dataclasses", "inspect", "fractions", "decimal", "typing")

IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import abelian_fourier
import abelian_fourier.cli
loaded = [m for m in sys.argv[2:] if m in sys.modules]
from fractions import Fraction
from abelian_fourier import make_variety
from abelian_fourier.intlinalg import rational_solve
from abelian_fourier.report import variety_from_dict
A = make_variety([[0, 1], [-1, 0]], [[0, Fraction(-1, 2)], [2, 0]], name="E_rational")
B = variety_from_dict({"polarization_matrix": [[0, 1], [-1, 0]],
                       "complex_structure": [["0", "-1/2"], ["2", "0"]]})
print(json.dumps({
    "loaded": loaded,
    "J": A.J,
    "same_J": A.J == B.J,
    "solve": [str(x) for x in rational_solve([[2, 0], [0, 3]], [1, 1])],
}))
"""


def test_import_loads_no_dataclasses_or_fractions():
    # -I -S: no user site and no site .pth file preloads anything
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_PROBE, str(SRC), *NOT_LOADED],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    # the rational-J model still builds, through each lazy Fraction import,
    # and is stored as N = 2J
    assert out["J"] == [[0, -1], [4, 0]]
    assert out["same_J"]
    assert out["solve"] == ["1/2", "1/3"]


def test_record_fields_cannot_be_assigned():
    A = standard_ppav(2)
    f = product(A, A).pi1
    records = [
        (A, "genus"),
        (f, "matrix"),
        (hodge_lattice(A, 1), "basis"),
        (run_check("fourier_involution", genus=1), "status"),
        (REGISTRY["claim_star"], "ceiling"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

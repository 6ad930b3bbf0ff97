"""The result records: immutable NamedTuples, validated where built, and cheap to import."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from skelsig.geometry import RationalLine, RationalPoint, gap
from skelsig.genvec import ExclusionReason, RealizabilityReport
from skelsig.groups import build_cyclic
from skelsig.kspace import KSpaceApproximation, PointReport, SearchScope
from skelsig.rh import OrbifoldSignature, SearchVerdict, SkeletalSignature

SRC = Path(__file__).resolve().parents[1] / "src"
S = SkeletalSignature


def test_cli_import_loads_no_record_or_csv_machinery():
    # -S keeps site-packages and its .pth hooks, which may import anything, out of the check
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import skelsig.cli\n"
        "print(sorted(m for m in ('csv', 'dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def _scope():
    return SearchScope(15, 100, (2, 3), 1, 1, ())


@pytest.mark.parametrize(
    "record,field",
    [
        (SearchVerdict.not_exists(), "status"),
        (OrbifoldSignature(0, (2, 3, 7)), "periods"),
        (RationalLine(3, 1, 50), "c"),
        (gap(48, 4), "corner"),
        (PointReport(S(3, 24), False, SearchVerdict.not_exists(), None), "analysis"),
        (build_cyclic(4), "name"),
    ],
    ids=["SearchVerdict", "OrbifoldSignature", "RationalLine", "GapRegion", "PointReport",
         "GroupTable"],
)
def test_fields_cannot_be_set(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: OrbifoldSignature(-1, ()), ValueError),
        (lambda: OrbifoldSignature(0, (1,)), ValueError),
        (lambda: OrbifoldSignature(0, ("x",)), ValueError),
        (lambda: RationalPoint("x", 1), ValueError),
        (lambda: RationalLine(0, 0, 5), ValueError),
        (lambda: RealizabilityReport(SearchVerdict.not_exists(), ()), AssertionError),
        (lambda: KSpaceApproximation(2, {S(0, 6): (2,)}, {S(0, 5): None}, _scope()), AssertionError),
    ],
    ids=["genus", "period", "period-type", "point", "line", "report", "kspace"],
)
def test_validators_reject(build, error):
    with pytest.raises(error):
        build()


def test_validators_normalize():
    sig = OrbifoldSignature(h=1, periods=[2, 3])
    assert sig.periods == (2, 3) and type(sig.periods) is tuple
    point = RationalPoint(3, Fraction(1, 2))
    assert type(point.h) is Fraction and point == (Fraction(3), Fraction(1, 2))
    assert RationalLine(-6, -2, -100) == RationalLine(3, 1, 50) == (3, 1, 50)
    reason = ExclusionReason("arithmetic", "x")
    assert RealizabilityReport(SearchVerdict.not_exists(), (reason,)).exclusion_reasons == (reason,)
    assert KSpaceApproximation(2, {S(0, 6): (2,)}, {}, _scope()).admissible == {S(0, 6)}

"""``scripts/parity.py``: how two trees' digests are compared.

The script itself runs two trees end to end (CI runs it against
``HEAD``); these tests pin the comparison it reports from — the first
differing field by dotted path, a key one side lacks, and which
differences ``--expect`` forgives.
"""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_parity():
    sys.path.insert(0, str(SCRIPTS))  # the script imports its sibling ab_pairs
    try:
        spec = importlib.util.spec_from_file_location("parity", SCRIPTS / "parity.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


PARITY = _load_parity()

DIGEST = {
    "protocol": {"messages": 12, "total_bytes": 1786657, "fault_counts": {}},
    "numeric": {"losses": [[0.5, 0.25]], "backbone_crcs": [7]},
}


def _changed(**fields):
    digest = {half: dict(values) for half, values in DIGEST.items()}
    for path, value in fields.items():
        half, name = path.split("__")
        digest[half][name] = value
    return digest


def test_equal_digests_have_no_difference():
    assert list(PARITY.differences(DIGEST, _changed())) == []


def test_differences_are_dotted_paths_in_the_parents_order():
    change = _changed(numeric__losses=[[0.5, 0.3]], protocol__total_bytes=1786582)
    change["numeric"]["sets_crc"] = 9
    assert list(PARITY.differences(DIGEST, change)) == [
        ("protocol.total_bytes", 1786657, 1786582),
        ("numeric.losses", [[0.5, 0.25]], [[0.5, 0.3]]),
        ("numeric.sets_crc", "<absent>", 9),
    ]


def test_only_an_expected_field_may_differ(capsys):
    digests = {
        "parent": {"cloud seed 0": DIGEST, "scale seed 0": DIGEST},
        "change": {
            "cloud seed 0": _changed(protocol__total_bytes=1786582),
            "scale seed 0": _changed(protocol__total_bytes=1786582, protocol__messages=13),
        },
    }
    unexpected = PARITY.compare(digests, ["protocol.total_bytes"])
    assert unexpected == ["scale seed 0: protocol.messages"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "cloud seed 0: first difference protocol.total_bytes: parent 1786657, change 1786582"
    )
    assert out[2] == "    also protocol.total_bytes: parent 1786657, change 1786582"
    assert PARITY.compare({"parent": {"x": DIGEST}, "change": {"x": DIGEST}}, []) == []

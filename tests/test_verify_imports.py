"""What the verifier imports from the package, pinned.

verify.py rebuilds each certificate with the builders of certify.py, and it
replays the decider's stage walk.  Every name it takes from the decider is
code that a fault would share between deciding and checking, so this list
may shrink (ROADMAP item 8 aims to drop the stage walk from it), and a name
added to it is a design change that this test makes visible.
"""

import ast
from pathlib import Path

import morphrec

SRC = Path(morphrec.__file__).parent

VERIFY_IMPORTS = {
    "certify": [
        "Certificate", "LOW_POWERS", "NOT_UNIFORMLY_RECURRENT", "SCAN_FIRST", "SCAN_WORK",
        "UNIFORMLY_RECURRENT", "UPFRONT_QMAX", "_PERIOD_SEARCH", "_SHEET_UNAVAILABLE",
        "_certify_repetition", "_letter_certificate", "_level_exit", "_periodic_certificate",
        "_primitive_certificate", "_pumping_certificate", "_tail_certificate", "pure_period_check",
    ],
    "constants": ["compute_count_free_sheet"],
    "decider": ["PreparedSystem", "Verdict", "_preimage_system", "_walk"],
    "returns": [
        "DriverExit", "PRACTICAL_CAP", "SCAN_LETTERS", "build_sigma_U", "first_two_occurrences"
    ],
    "stream": ["FixedPointStream"],
    "system": ["ProlongableSystem"],
}


def _package_imports(path: Path) -> dict[str, list[str]]:
    """The names a module imports from its own package, by module, at any
    depth of the file (a runtime import inside a function counts too)."""
    out: dict[str, list[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(a.name for a in node.names)
    return {k: sorted(v) for k, v in sorted(out.items())}


def test_the_verifier_imports_only_the_pinned_names():
    assert _package_imports(SRC / "verify.py") == VERIFY_IMPORTS


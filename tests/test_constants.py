import ast
import re
from pathlib import Path

import chancap

SUFFIXES = ("_TOL", "_FLOOR", "_THRESHOLD", "_CUTOFF", "_CUTOFF_BITS", "_MIX")
README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_tolerance_is_documented():
    """The tolerance table in the README lists exactly the package's tolerance
    constants, each with its module and value."""
    defined = {}
    for path in Path(chancap.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith(SUFFIXES):
                        defined[target.id] = path.stem
    rows = re.findall(r"^\| `([A-Z_0-9]+)` \| ([^ |]+) \| `(\w+)` \|", README.read_text(), re.M)
    assert {name: module for name, _, module in rows} == defined
    for name, value, module in rows:
        assert getattr(getattr(chancap, module), name) == float(value), name

"""Every function in ``src/diffchar`` is entered by the tier-1 tests.

Runs the tier-1 suite in this process under ``sys.setprofile``, which
records the code object of each call event, and then lists every
function of the library whose code no test entered, by file, line and
qualified name.  Exits 1 when there is one, or with the suite's own
status when a test fails.  Unlike ``test_api_surface.py``, which matches
callers by name, this sees a method that shares its name with a
reached one (``to_json_dict``, ``__delattr__``).  Lambdas and
comprehensions are not counted; a function entered only in a
subprocess does not count as entered.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

About two and a half times as slow as a plain run of the suite.
"""

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "diffchar").glob("*.py"))


def _key(code):
    qualname = getattr(code, "co_qualname", code.co_name)  # co_qualname: 3.11+
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, qualname


def _functions():
    """The key of every function body the library defines, nested ones included."""
    for path in LIBRARY:
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, CodeType):
                    if not const.co_name.startswith("<"):
                        yield _key(const)
                    stack.append(const)


def main(argv):
    entered = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *argv])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    if status != 0:
        print(f"reach: the suite failed (status {status})", file=sys.stderr)
        return int(status)
    reached = {_key(code) for code in entered.values()}
    missed = sorted(key for key in _functions() if key not in reached)
    for filename, line, qualname in missed:
        print(f"never entered: {Path(filename).name}:{line} {qualname}", file=sys.stderr)
    print(f"reach: {len(missed)} library functions never entered by the tests")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

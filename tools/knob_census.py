#!/usr/bin/env python
"""Knob census: count the defaulted constructor parameters of a package.

Every defaulted parameter of an ``__init__`` is a knob: a value some
caller may change, and so one more configuration a test or drill must
cover.  This script parses the modules with :mod:`ast` (nothing is
imported) and counts every defaulted parameter, positional or
keyword-only, of every ``__init__`` defined in a class under the
package directory.

Run from the repo root::

    python tools/knob_census.py                 # repro.ws, listed
    python tools/knob_census.py src/repro       # any package directory
    python tools/knob_census.py --check         # repro.ws vs CEILING

``--check`` exits 1 when the ``repro.ws`` count exceeds :data:`CEILING`.
The ceiling may be lowered whenever a knob goes; raising it is a
stated change.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro" / "ws"

#: the most defaulted ``__init__`` parameters ``repro.ws`` may carry
CEILING = 61


def knobs(package: Path = PACKAGE) -> list[str]:
    """``path:line Class.param`` for every defaulted ``__init__``
    parameter of every class defined in a module under *package*."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(REPO)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef)
                        and init.name == "__init__"):
                    continue
                args = init.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg for arg, default
                              in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                found.extend(f"{where}:{arg.lineno} {cls.name}.{arg.arg}"
                             for arg in defaulted)
    return found


def main(argv: list[str]) -> int:
    check = "--check" in argv
    paths = [arg for arg in argv if arg != "--check"]
    package = (REPO / paths[0]).resolve() if paths else PACKAGE
    found = knobs(package)
    if not check:
        print("\n".join(found))
    print(f"knob census: {len(found)} defaulted constructor parameters "
          f"under {package.relative_to(REPO)}")
    if check and len(found) > CEILING:
        print(f"knob census: {len(found)} exceeds the ceiling of {CEILING}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

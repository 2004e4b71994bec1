"""Record the singular_lines reference table from the current code.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for every exact rational line of the
Table-1 surfaces, keyed as in ``workloads.singular_line_cases``, the
(m, ord(disc), branch multiplicity) that ``line_report`` gives.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from segrecusp import cusplocus  # noqa: E402

from workloads import REFERENCE_PATH, singular_line_cases  # noqa: E402

def main():
    table = {}
    for key, surf, line in singular_line_cases():
        rep = cusplocus.line_report(surf, line)
        got = [rep.m, rep.disc_order, rep.branch_mult]
        if table.setdefault(key, got) != got:
            sys.exit(f"{key} gives {got} and {table[key]}")
    payload = {"singular_lines": dict(sorted(table.items()))}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"{len(table)} line keys written to {REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()

"""Write the frozen output digests the census workloads are checked against.

    python3 perfbench/freeze.py

Run once, at the commit whose outputs are the reference; the census
outputs must never change after it, so a later run of this script must
leave frozen/ byte-identical.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads

OUT = workloads.ROOT / ".perfbench_out" / "freeze"


def main() -> int:
    even = workloads.CensusEven(0, frozen=None)
    even.setup()
    digests = [workloads.entry_digest(e) for e in even.entries]
    odd = workloads.CensusOddCli(0, str(OUT), frozen=None)
    odd.setup()
    code, _, _ = odd.invoke()
    if code != 0:
        print(f"census command exited with {code}", file=sys.stderr)
        return 1
    _, _, odd_digests, _ = odd.check(code)
    shutil.rmtree(OUT)
    for name, value in (
            ("census_even.json", digests),
            ("census_odd_cli.json", {"manifest": odd_digests[0], "files": odd_digests[1:]})):
        (workloads.FROZEN_DIR / name).write_text(json.dumps(value, indent=0) + "\n",
                                                 encoding="utf-8")
    print(f"froze {len(digests)} even entries and {len(odd_digests) - 1} odd files")
    return 0


if __name__ == "__main__":
    sys.exit(main())

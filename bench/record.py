"""Record bench/reference.json: the exit code and output digest of every
request any run can issue, at the current commit.

    python3 bench/record.py

Run from the repository root.  Re-record only when a change is meant to
alter the outputs.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, SRC, _call

sys.path.insert(0, str(SRC))
import canonform.cli  # noqa: E402,F401  (the program under test, from SRC)
from checks import all_exact, digest  # noqa: E402
from workloads import pool  # noqa: E402


def main() -> int:
    requests = {}
    for workload in ("certify", "decompose", "count"):
        for req in pool(workload):
            code, out, _, _ = _call(req.argv)
            if code == 1:
                raise SystemExit(f"usage error from a generated request: {req.argv}")
            requests[req.key] = {
                "exit": code, "sha256": digest(out) if code == 0 else None,
                "exact": code == 0 and all_exact(json.loads(out))}
    REFERENCE.write_text(json.dumps({"requests": requests}, indent=0, sort_keys=True) + "\n")
    print(f"{len(requests)} requests recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())

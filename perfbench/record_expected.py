"""Record expected.json: the stored values the output checks compare with.

    python3 perfbench/record_expected.py

Run it only at a commit whose outputs are known to be right. It runs the
fixed commands of every workload, at both sizes, and stores the SHA-256
of each enumeration listing, the exact worst-case r values, the row
counts of the verification reports and the bound outputs. Every listing
is then checked on the slow path (counts, validity, pairwise
non-isomorphism), so a wrong listing is never stored.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


class _Wanted(dict):
    """Records every key a workload asks for."""

    def __missing__(self, key):
        self[key] = None
        return None


def main() -> int:
    wanted = {"digests": _Wanted(), "values": _Wanted(), "outputs": _Wanted()}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for build in workloads.WORKLOADS.values():
            for tiny in (False, True):
                build(random.Random(0), Path(tmp), tiny, wanted)
        env = run.Runner(Path(tmp)).env
        exp = {section: {} for section in wanted}
        for section, keys in wanted.items():
            for key in sorted(keys):
                out = subprocess.run([sys.executable, "-m", "retnet.cli", *key.split()],
                                     env=env, check=True, capture_output=True,
                                     text=True).stdout
                if section == "digests":
                    exp[section][key] = hashlib.sha256(out.encode()).hexdigest()
                elif section == "outputs":
                    exp[section][key] = out
                elif key.startswith("worstcase"):
                    exp[section][key] = json.loads(out)["r"]
                else:
                    rows = list(csv.DictReader(io.StringIO(out)))
                    assert all(row["holds"] == "True" for row in rows), key
                    exp[section][key] = len(rows)
                print(f"recorded {section}: {key}", file=sys.stderr)
        # slow-path check of every listing: a digest that never matches
        never = {"digests": {k: "" for k in exp["digests"]}}
        for tiny in (False, True):
            for c in workloads.build_enumerate(random.Random(0), Path(tmp), tiny, never):
                out = subprocess.run([sys.executable, "-m", "retnet.cli", *c.args], env=env,
                                     check=True, capture_output=True, text=True).stdout
                c.check(out, {})
                print(f"listing verified: {' '.join(c.args)}", file=sys.stderr)
    workloads.EXPECTED_PATH.write_text(json.dumps(exp, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

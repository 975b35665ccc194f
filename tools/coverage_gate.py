#!/usr/bin/env python3
"""Gate line coverage of selected sources using plain gcov (no gcovr needed).

Usage: coverage_gate.py BUILD_DIR SOURCE_SUBSTRING MIN_PERCENT

SOURCE_SUBSTRING is matched against reported source *paths* (e.g.
"src/charm/load_balancer" covers the .cpp and inline code in the .hpp while
excluding tests/.../test_load_balancer.cpp). Every .gcda under BUILD_DIR is
read, and each matched source's lines are merged across all of them: a line
counts as instrumented if any translation unit instruments it and as covered
if any executed it. Exits 1 when the aggregate percentage over the matched
sources is below MIN_PERCENT.

Run a coverage build first:
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DEHK_COVERAGE=ON
  cmake --build build-cov -j && (cd build-cov && ctest -j)
  tools/coverage_gate.py build-cov src/charm/load_balancer 98
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build_dir = Path(sys.argv[1])
    needle = sys.argv[2]
    min_percent = float(sys.argv[3])

    gcda = sorted(str(p.resolve()) for p in build_dir.rglob("*.gcda"))
    if not gcda:
        print(f"error: no .gcda under {build_dir} "
              "(coverage build + test run required)", file=sys.stderr)
        return 2

    # Header code appears in the stanza of every translation unit that
    # includes it, each covering only what that unit instantiated and ran,
    # so the per-line union over all stanzas is what the suite executes.
    # source -> line number -> executed by any unit
    lines: dict[str, dict[int, bool]] = {}
    # gcov writes nothing into the cwd with --stdout; a scratch cwd keeps it
    # that way should an older gcov ignore the flag.
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", *gcda],
            cwd=tmp, capture_output=True, text=True, check=False).stdout
    # One JSON document per .gcda, one per line.
    for doc in out.splitlines():
        if not doc.strip():
            continue
        for stanza in json.loads(doc)["files"]:
            # A header with no executable code has a stanza with no lines.
            if needle not in stanza["file"] or not stanza["lines"]:
                continue
            hits = lines.setdefault(stanza["file"], {})
            for line in stanza["lines"]:
                number = line["line_number"]
                hits[number] = hits.get(number, False) or line["count"] > 0

    if not lines:
        print(f"error: gcov reported no source matching '{needle}'",
              file=sys.stderr)
        return 2
    covered = 0
    total = 0
    for source in sorted(lines):
        hit = sum(lines[source].values())
        count = len(lines[source])
        covered += hit
        total += count
        print(f"{source}: {100.0 * hit / count:.2f}% of {count} lines")
    aggregate = 100.0 * covered / total
    print(f"aggregate '{needle}' line coverage: {aggregate:.2f}% "
          f"(floor {min_percent:.2f}%)")
    if aggregate + 1e-9 < min_percent:
        print("FAIL: coverage dropped below the committed floor",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

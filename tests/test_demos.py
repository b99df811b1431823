"""The demo scripts print the same bytes as when their digests were
recorded; nothing else runs them."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout, recorded before the verdict memo was
# keyed on module bytes and bound alone
DEMO_DIGESTS = {
    "01_corpus_tour.py":
        "4139a3a7d9d16587c0b962419ea9b4149dfeaa023e6fd3ed46127d0e865857ef",
    "02_duality_walkthrough.py":
        "19ac7cf05f8d957081fba82f7aa5d78f15969973717f39196606d420866645b8",
    "03_property_suites.py":
        "bca2b6033ea2af23c2017d030075891d2a69b7e95ea71b8f4c2b132ca1d8acc9",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (REPO / "demos").glob("*.py")) == sorted(
        DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_matches_digest(name):
    src = str(REPO / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + path if path else src}
    out = subprocess.run([sys.executable, str(REPO / "demos" / name)],
                         env=env, capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[name]

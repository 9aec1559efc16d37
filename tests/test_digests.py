"""Seed-0 campaign replay against the digest the benchmark records.

``bench/digests.json`` holds, per trial count and seed, the sha256 of a
campaign's canonical JSON lines; the benchmark rejects a run whose digest
differs.  This test only reads that file.
"""

import hashlib
import json
from pathlib import Path

from cycdiv import SuiteConfig, run_suite

DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"


def test_seed0_campaign_matches_recorded_digest():
    reports = run_suite(SuiteConfig(seed=0, trials=16))
    text = "\n".join(r.to_json() for r in reports) + "\n"
    recorded = json.loads(DIGESTS.read_text())["16"]["0"]
    assert hashlib.sha256(text.encode()).hexdigest() == recorded

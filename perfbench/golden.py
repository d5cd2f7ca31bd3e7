"""Golden virtual-time fingerprints and the per-pass check against them.

A fingerprint is everything a pass computes in virtual time: per-arm run
digests and response digests, ``RunMetrics`` aggregates with the
validation-latency summary, DES event and instruction counts, the chaos
``ValidationLedger`` summary, and the fleet digest with its conservation
rollup.  A faster simulator must reproduce it byte for byte; a pass whose
fingerprint differs counts as failed, however fast it was.

``golden.json`` holds the fingerprint of every workload for the default
seed and for one held-out seed.  Every run checks one pass on the default
seed against it; the timed passes are checked against it too when the run
uses a recorded seed, and against the run's first pass otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
FORMAT = "perfbench-golden/1"


def canonical(fingerprint: dict) -> str:
    """One byte string per fingerprint; floats keep every digit."""
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


def first_difference(actual, expected, path: str = "") -> str | None:
    """Where two fingerprints first differ, or None when they are equal."""
    if isinstance(actual, dict) and isinstance(expected, dict):
        for key in sorted(set(actual) | set(expected)):
            if key not in actual or key not in expected:
                return f"{path}/{key}: present on one side only"
            found = first_difference(actual[key], expected[key], f"{path}/{key}")
            if found:
                return found
        return None
    if canonical(actual) != canonical(expected):
        return f"{path or '/'}: {canonical(actual)} != {canonical(expected)}"
    return None


class Judge:
    """Checks each pass against a reference fingerprint.

    Without a golden reference, the first pass judged becomes the
    reference, so every later pass on the same inputs must repeat it.
    """

    def __init__(self, reference: dict | None = None):
        self.reference = reference

    def __call__(self, outcome) -> list[str]:
        problems = list(outcome.problems)
        # round-trip so tuples and lists compare alike
        fingerprint = json.loads(canonical(outcome.fingerprint))
        if self.reference is None:
            self.reference = fingerprint
            return problems
        found = first_difference(fingerprint, self.reference)
        if found:
            problems.append(f"fingerprint moved at {found}")
        return problems


def load(path: Path = GOLDEN_PATH) -> dict:
    """``{workload: {seed: fingerprint}}``; empty when no file exists."""
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    if payload.get("format") != FORMAT:
        raise ValueError(f"{path}: expected format {FORMAT}")
    return {
        name: {int(seed): fp for seed, fp in seeds.items()}
        for name, seeds in payload["workloads"].items()
    }


def save(golden: dict, path: Path = GOLDEN_PATH) -> None:
    payload = {
        "format": FORMAT,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {
            name: {str(seed): fp for seed, fp in sorted(seeds.items())}
            for name, seeds in sorted(golden.items())
        },
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

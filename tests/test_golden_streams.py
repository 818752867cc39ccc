"""Every registry workload's kernel stream against its golden snapshot.

A failure here means the op stream a workload emits changed.  If the change
is intentional (new kernel, different lowering, fixed gradient), regenerate
the snapshots with `PYTHONPATH=src python -m repro golden --update` and
commit the JSON diff; if not, you just caught a silent math change.
"""

from __future__ import annotations

import pytest

from repro.core.registry import WORKLOAD_KEYS
from repro.testing import golden


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_stream_matches_golden(key):
    diffs = golden.verify("fingerprint", [key])[key]
    assert not diffs, (
        f"{key} kernel stream diverged from tests/golden/{key}.json:\n  "
        + "\n  ".join(diffs)
        + "\nIf intentional: PYTHONPATH=src python -m repro golden --update"
    )


def test_snapshots_exist_for_whole_registry():
    missing = [k for k in WORKLOAD_KEYS
               if not golden.path("fingerprint", k).exists()]
    assert not missing, f"no golden snapshot for {missing}"

"""Table-driven checks every golden report kind shares.

Each golden kind is one row of :mod:`repro.core.kinds`; the checks here are
parametrised over that table, so a new row is covered without editing this
file.  They never run a workload: they exercise the committed snapshots and
the generic ``repro.testing.golden`` path/load/save/compare/verify against
them.  Fresh-run verification lives in each family's own test module (and in
the ``python -m repro golden --<flag>`` CI steps), next to the family's
domain assertions.
"""

import copy
import json

import pytest

from repro.core import kinds
from repro.testing import golden

GOLDEN = [row.name for row in kinds.GOLDEN]


def _committed(kind, key):
    return golden.GOLDEN_DIR / f"{kinds.get(kind).prefix}{key}.json"


@pytest.mark.parametrize("kind", GOLDEN)
def test_snapshot_round_trip(kind, tmp_path, monkeypatch):
    # save writes canonical JSON (sorted keys, trailing newline), so
    # re-saving a loaded snapshot reproduces the committed bytes; the copy
    # goes to tmp_path, never into tests/golden/
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
    for key in kinds.get(kind).keys():
        committed = _committed(kind, key)
        saved = golden.save(kind, json.loads(committed.read_text()))
        assert saved.parent == tmp_path
        assert saved.read_bytes() == committed.read_bytes(), key


def test_snapshot_inventory_matches_the_table():
    # every file in tests/golden/ is exactly one (kind, key) row, and every
    # kind's default keys have a file: no orphans, no missing snapshots
    owned = set()
    for path in sorted(golden.GOLDEN_DIR.glob("*.json")):
        owners = {
            (row.name, path.stem[len(row.prefix):])
            for row in kinds.GOLDEN
            if path.stem.startswith(row.prefix)
            and path.stem[len(row.prefix):] in row.universe()
        }
        assert len(owners) == 1, f"{path.name} belongs to {owners}"
        owned |= owners
    defaults = {(row.name, key) for row in kinds.GOLDEN for key in row.keys()}
    assert not defaults - owned, f"missing snapshots: {defaults - owned}"


@pytest.mark.parametrize("kind", GOLDEN)
def test_snapshots_are_well_formed(kind):
    row = kinds.get(kind)
    for key in row.keys():
        snap = golden.load(kind, key)
        assert snap[row.key_field] == key
        assert snap[row.digest_field]
        for field, block in row.blocks.items():
            assert isinstance(snap[field], dict if block.by == "name"
                              else list), (key, field)
        assert golden.compare(kind, snap, copy.deepcopy(snap)) == []


@pytest.mark.parametrize("kind", GOLDEN)
def test_drift_in_every_field_is_named_and_digest_drift_is_last(kind):
    row = kinds.get(kind)
    expected = golden.load(kind, row.keys()[0])

    mutated = copy.deepcopy(expected)
    mutated["version"] += 1
    mutated[row.digest_field] = "0" * 64
    diffs = golden.compare(kind, expected, mutated)
    assert diffs[0].startswith("version: expected")
    assert diffs[-1].startswith(f"{row.digest_field}: expected")
    assert "summary stats above also differ" in diffs[-1]

    for field, block in row.blocks.items():
        mutated = copy.deepcopy(expected)
        if block.by == "name":
            mutated[field]["__probe__"] = 1
            line = f"{field}[__probe__]: expected None, got 1"
        elif block.by == "first":
            mutated[field].append(["__probe__", 1, 1])
            line = f"{field}[__probe__]: expected None, got [1, 1]"
        else:
            mutated[field].append(None)
            line = (f"{field}: expected {len(expected[field])} entries, "
                    f"got {len(expected[field]) + 1}")
        assert golden.compare(kind, expected, mutated) == [line]


@pytest.mark.parametrize("kind", GOLDEN)
def test_tolerant_blocks_forgive_noise_within_tolerance(kind):
    row = kinds.get(kind)
    expected = golden.load(kind, row.keys()[0])
    tolerant = {f: b for f, b in row.blocks.items() if b.rtol or b.atol}
    for field, block in tolerant.items():
        value = expected[field]
        entries = value.items() if block.by == "name" else enumerate(value)
        name, entry = next((n, v) for n, v in entries if v)
        mutated = copy.deepcopy(expected)
        noise = max(block.rtol * abs(entry), block.atol) / 4
        mutated[field][name] = entry + noise
        assert golden.compare(kind, expected, mutated) == []
        mutated[field][name] = entry + 8 * noise
        assert golden.compare(kind, expected, mutated)[0].startswith(
            f"{field}[{name}]: expected")


@pytest.mark.parametrize("kind", GOLDEN)
def test_missing_snapshot_is_a_one_line_diff(kind, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
    key = kinds.get(kind).keys()[0]
    [line] = golden.verify(kind, [key])[key]
    assert line.startswith("missing snapshot: no golden")
    assert golden.update_command(kind) in line


def test_only_golden_kinds_have_snapshots():
    with pytest.raises(ValueError, match="no golden snapshots"):
        golden.path("profile", "DGCN")
    with pytest.raises(ValueError, match="unknown task kind"):
        golden.path("teleport", "DGCN")

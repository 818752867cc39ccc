"""Sort-based set operations: equal to ``np.unique``, byte-stable graphs.

``repro.setops`` replaces numpy 2.x's hash-table and structured-dtype
``unique`` paths on every graph build.  The properties pin it to
``np.unique`` itself; the digests pin the generated graphs' edge bytes, so
a change that reorders or drops a single edge fails here before it reaches
a kernel stream; the AST guard keeps plain distinct-set work in ``src/``
going through ``repro.setops``.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import setops
from repro.datasets.citation import load_citation, synthetic_citation
from repro.datasets.movielens import load_movielens, load_nowplaying
from repro.models.kgnn import build_pair_graph

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ints = st.lists(st.integers(-(2**40), 2**40), max_size=60)


@st.composite
def pairs(draw):
    lo = draw(st.integers(-(2**20), 2**20))
    hi = lo + draw(st.integers(0, 2**20))
    n = draw(st.integers(0, 60))
    first = draw(st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n))
    # few distinct values (negative ones too) so duplicates are common
    second = draw(st.lists(st.sampled_from([lo, (lo + hi) // 2, hi]),
                           min_size=n, max_size=n))
    return np.array(first, np.int64), np.array(second, np.int64)


def _expected_pairs(first, second):
    rows = np.unique(np.stack([first, second], axis=1), axis=0)
    return rows[:, 0], rows[:, 1]


def _assert_same(got, expected):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


class TestUnique:
    @given(ints)
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy(self, values):
        a = np.array(values, dtype=np.int64)
        _assert_same(setops.unique(a), np.unique(a))

    @pytest.mark.parametrize("a", [
        np.empty(0, np.int64), np.array([7]), np.full(9, -3),
        np.array([[3, 1], [1, 3]], dtype=np.int32),
    ], ids=["empty", "single", "all-duplicate", "2d-int32"])
    def test_edge_cases(self, a):
        _assert_same(setops.unique(a), np.unique(a))


class TestUniquePairs:
    @given(pairs())
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_axis0(self, case):
        first, second = case
        got = setops.unique_pairs(first, second)
        for g, e in zip(got, _expected_pairs(first, second)):
            _assert_same(g, e)

    @pytest.mark.parametrize("first, second", [
        ([], []),
        ([4], [0]),
        ([2, 2, 2, 2], [3, 3, 3, 3]),
        ([0, -5, 0, 9], [9, 9, -4, 9]),
    ], ids=["empty", "single", "all-duplicate", "negative-second"])
    def test_edge_cases(self, first, second):
        first, second = np.array(first, np.int64), np.array(second, np.int64)
        got = setops.unique_pairs(first, second)
        for g, e in zip(got, _expected_pairs(first, second)):
            _assert_same(g, e)

    def test_output_is_int64(self):
        first = np.array([1, 0, 1], np.int32)
        second = np.array([0, 1, 0], np.int32)
        assert all(x.dtype == np.int64
                   for x in setops.unique_pairs(first, second))

    @pytest.mark.parametrize("first, second", [
        ([2, 2], [0, 2**62]),
        ([-3, -3], [0, 2**62]),
        ([0, 0], [-(2**63), 2**63 - 1]),
    ], ids=["large-first", "negative-first", "second-spans-int64"])
    def test_overflowing_key_rejected(self, first, second):
        with pytest.raises(ValueError, match="overflow"):
            setops.unique_pairs(first, second)

    def test_largest_fitting_key_accepted(self):
        first, second = setops.unique_pairs([1, 1], [2**62 - 1, 0])
        np.testing.assert_array_equal(first, [1, 1])
        np.testing.assert_array_equal(second, [0, 2**62 - 1])


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        assert a.dtype == np.int64
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _citation_edges():
    g = synthetic_citation(50_000, seed=0).graph
    return g.src, g.dst


def _cora_edges():
    g = load_citation("cora").graph
    return g.src, g.dst


def _interactions(load):
    ds = load()
    return ds.users, ds.items


def _cora_pair_graph():
    pg = build_pair_graph(load_citation("cora").graph)
    return pg.members[:, 0], pg.members[:, 1], pg.edge_src, pg.edge_dst


class TestGeneratedGraphBytes:
    """Edge bytes of the generated graphs, pinned from the np.unique code."""

    @pytest.mark.parametrize("build, expected", [
        (_citation_edges,
         "a93e451caa843eedbbd3fefb3d08523ffbd3a3d2ebb2e78a6efd83995a911895"),
        (_cora_edges,
         "8bebfee68e3e785464b0d8aa042a46abada3e68a9f41814756032438d0568a1a"),
        (lambda: _interactions(load_movielens),
         "6cf10eddedacf4d5894a5bb1ef2c5f48abf70e824520953d7add700084bd087d"),
        (lambda: _interactions(load_nowplaying),
         "c93d5ff2cadc1136ab08e1f052cfe106ac5d0646033885035ae083cabdda2321"),
        (_cora_pair_graph,
         "98720a6e2a33ec9a4c1474bef09f7427de449b5ebc1b6ea3baf8cdcea1eb56ff"),
    ], ids=["synthetic-citation-50k", "cora", "movielens", "nowplaying",
            "cora-pair-graph"])
    def test_edge_digest_unchanged(self, build, expected):
        assert _digest(*build()) == expected


_RETURN_FLAGS = {"return_inverse", "return_counts", "return_index"}

#: files whose ``np.unique`` passes its return flags through from the caller,
#: so a flag may be False at run time: the device op ``sort.unique`` mirrors
#: ``np.unique``'s own signature
_VARIABLE_FLAG_FILES = {"tensor/ops/sort.py"}


def _np_unique_calls(root=SRC):
    """Yield ``(site, keyword names, names of flags passed as literal True)``."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                keywords = {k.arg for k in node.keywords}
                true_flags = {k.arg for k in node.keywords
                              if k.arg in _RETURN_FLAGS
                              and isinstance(k.value, ast.Constant)
                              and k.value.value is True}
                site = f"{path.relative_to(root).as_posix()}:{node.lineno}"
                yield site, keywords, true_flags


class TestNoSlowUniqueInSource:
    """Plain distinct-set work in ``src/repro`` goes through ``repro.setops``."""

    def test_guard_sees_the_remaining_calls(self):
        assert list(_np_unique_calls())

    def test_no_axis_argument(self):
        assert [site for site, kw, _ in _np_unique_calls() if "axis" in kw] == []

    def test_every_call_sets_a_return_flag_true(self):
        assert [site for site, kw, true_flags in _np_unique_calls()
                if not true_flags
                and site.split(":")[0] not in _VARIABLE_FLAG_FILES] == []

    def test_variable_flag_files_still_pass_flags(self):
        sites = {site.split(":")[0]: kw & _RETURN_FLAGS
                 for site, kw, _ in _np_unique_calls()}
        assert all(sites.get(f) for f in _VARIABLE_FLAG_FILES)

    def test_guard_rejects_a_false_literal_flag(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.unique(x, return_counts=False)\n")
        assert [true for _, _, true in _np_unique_calls(tmp_path)] == [set()]

import contextlib
import copy
import csv
import io
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapkit import (
    SensorimotorMatrix,
    TapkitError,
    csvtext,
    define_space,
    infer_space_from_csv,
    load_csv,
    save_csv,
    smcore,
)
from tapkit.csvtext import _float_text, _int_text, _read_body, _text_lines
from tapkit.smcore import ChannelRef, Episode, parse_channel_ref

from oracles import (edge_values, reference_append, reference_read_table, reference_rows,
                     reference_write_table)

# What csv.reader says of a field longer than its limit, which stays at the default.
FIELD_LIMIT_ERROR = f"field larger than field limit ({csv.field_size_limit()})"


class TestDefineSpace:
    def test_nao_offsets(self, nao_space):
        assert nao_space.n_sm == 6
        assert nao_space.offset("vision") == 4
        assert nao_space.resolve("vision", 1) == 5

    def test_single_group(self):
        space = define_space([("motor", "m", 1)])
        assert space.n_sm == 1
        assert space.offset("m") == 0

    def test_offsets_are_prefix_sums(self):
        space = define_space(
            [("motor", "m", 2), ("proprio", "q", 3), ("extero", "v", 2),
             ("intero", "i", 1)]
        )
        assert [space.offset(g.name) for g in space.groups] == [0, 2, 5, 7]
        assert space.n_sm == 8

    def test_resolve_is_a_bijection(self):
        space = define_space([("motor", "a", 3), ("extero", "b", 2)])
        rows = [space.resolve(r.group, r.index) for r in space.channel_refs()]
        assert rows == list(range(space.n_sm))

    @pytest.mark.parametrize(
        "spec",
        [
            [("motor", "m", 0)],
            [("motor", "m", 2), ("extero", "m", 1)],
            [("gustatory", "m", 1)],
            [("motor", "not an ident", 1)],
        ],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(TapkitError):
            define_space(spec)

    def test_unknown_group_lookup(self, nao_space):
        for lookup in (nao_space.group, nao_space.offset, lambda g: nao_space.resolve(g, 0)):
            with pytest.raises(TapkitError) as exc:
                lookup("arm")
            assert str(exc.value) == "unknown group 'arm' in space 'nao'"
        for index in (4, 9):
            with pytest.raises(TapkitError) as exc:
                nao_space.resolve("m", index)
            assert str(exc.value) == f"channel index {index} out of range for group 'm' (dim 4)"


class TestAppend:
    def test_five_appends_make_five_columns(self, nao_space):
        m = SensorimotorMatrix(nao_space)
        for t in range(5):
            m.append_measurement(0, np.full(6, float(t)))
        assert m.episodes[0].data.shape == (6, 5)
        assert np.array_equal(m.episodes[0].data[0], np.arange(5.0))

    def test_no_appends_no_episode(self, nao_space):
        assert SensorimotorMatrix(nao_space).episodes == []

    def test_closed_episode_rejected(self, nao_space):
        m = SensorimotorMatrix(nao_space)
        m.append_measurement(0, np.zeros(6))
        m.append_measurement(1, np.zeros(6))
        with pytest.raises(TapkitError, match="closed"):
            m.append_measurement(0, np.zeros(6))

    def test_column_measurement_is_its_flat_values(self, nao_space):
        flat, column = SensorimotorMatrix(nao_space), SensorimotorMatrix(nao_space)
        for t in range(3):
            flat.append_measurement(0, np.arange(6.0) + t)
            assert smcore.append_measurement(column, 0, (np.arange(6.0) + t).reshape(6, 1)) is column
        assert column == flat

    def test_equality_with_another_type_is_not_implemented(self, nao_space):
        m = SensorimotorMatrix(nao_space)
        assert m.__eq__(m.space) is NotImplemented
        assert m != m.space

    def test_wrong_length_rejected(self, nao_space):
        with pytest.raises(TapkitError, match="6"):
            SensorimotorMatrix(nao_space).append_measurement(0, np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, nao_space, bad):
        m = SensorimotorMatrix(nao_space)
        m.append_measurement(0, np.zeros(6))
        vec = np.zeros(6)
        vec[3] = bad
        with pytest.raises(TapkitError, match="non-finite"):
            m.append_measurement(0, vec)
        assert m.episodes[0].data.shape == (6, 1)

    # load_csv checks the header against the space, so only a matrix built
    # in memory can hold an episode of the wrong shape.
    @pytest.mark.parametrize("data, shape", [(np.zeros((3, 5)), "(3, 5)"),
                                             (np.zeros(6), "(6,)")])
    def test_episode_shape_checked_on_construction(self, nao_space, data, shape):
        with pytest.raises(TapkitError) as exc:
            SensorimotorMatrix(nao_space, [Episode(0, np.zeros((6, 2))), Episode(4, data)])
        assert str(exc.value) == f"episode 4: expected 6 rows, got shape {shape}"

    def test_episode_ids_strictly_increasing_on_construction(self, nao_space):
        eps = [Episode(1, np.zeros((6, 2))), Episode(1, np.zeros((6, 2)))]
        with pytest.raises(TapkitError) as exc:
            SensorimotorMatrix(nao_space, eps)
        assert str(exc.value) == "episode ids must be strictly increasing (1 after 1)"

    # The first offender deep in a long list is named; a later one, of either
    # kind, is not reached, and at one episode the shape is checked first.
    @pytest.mark.parametrize("breaks, message", [
        ({1500: "rows"}, "episode 3000: expected 6 rows, got shape (5, 3)"),
        ({1500: "id"}, "episode ids must be strictly increasing (2997 after 2998)"),
        ({1500: "rows", 1700: "id"}, "episode 3000: expected 6 rows, got shape (5, 3)"),
        ({1500: "id", 1700: "rows"}, "episode ids must be strictly increasing (2997 after 2998)"),
        ({1500: "both"}, "episode 2997: expected 6 rows, got shape (5, 3)"),
    ])
    def test_first_offender_of_2000_episodes(self, nao_space, breaks, message):
        eps = [Episode(2 * i, np.zeros((6, 3))) for i in range(2000)]  # gapped ids
        for i, kind in breaks.items():
            if kind in ("rows", "both"):
                eps[i].data = np.zeros((5, 3))
            if kind in ("id", "both"):
                eps[i].id = 2 * i - 3
        with pytest.raises(TapkitError) as exc:
            SensorimotorMatrix(nao_space, eps)
        assert str(exc.value) == message

    def test_only_data_that_is_not_float64_is_converted(self, nao_space):
        kept = np.zeros((6, 2))
        eps = [Episode(0, kept), Episode(1, [[1, 2]] * 6), Episode(2, np.ones((6, 3), dtype=np.int32)),
               Episode(3, np.zeros((6, 1), dtype=">f8"))]
        m = SensorimotorMatrix(nao_space, eps)
        assert m.episodes[0].data is kept
        for ep, want in zip(m.episodes[1:], ([[1.0, 2.0]] * 6, np.ones((6, 3)), np.zeros((6, 1)))):
            assert type(ep.data) is np.ndarray and ep.data.dtype == np.dtype(float)
            assert ep.data.dtype.isnative and np.array_equal(ep.data, want)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_APPEND_OPS = st.one_of(
    # (op, episode id relative to the last one, values); -1 hits a closed episode
    st.tuples(st.just("append"), st.sampled_from([-1, 0, 0, 0, 1, 2]),
              st.lists(_FINITE, min_size=6, max_size=6)),
    # (op, columns appended to the last episode, value)
    st.tuples(st.just("burst"), st.integers(1, 40), _FINITE),
    # (op, position of the bad value, bad value)
    st.tuples(st.just("non_finite"), st.integers(0, 5),
              st.sampled_from([np.nan, np.inf, -np.inf])),
    # (op, episode index) for the rest
    st.tuples(st.just("reassign"), st.integers(0, 9)),
    st.tuples(st.just("slice"), st.integers(0, 9), st.integers(0, 3),
              st.one_of(st.none(), st.integers(0, 40)), st.integers(1, 2)),
    st.tuples(st.just("snapshot"), st.integers(0, 9)),
)


class TestAppendOracle:
    """Appends against ``reference_append``, the whole-episode np.hstack copy."""

    @staticmethod
    def _same_outcome(call, reference_call):
        outcomes = []
        for f in (reference_call, call):
            try:
                f()
                outcomes.append(None)
            except TapkitError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_APPEND_OPS, max_size=60))
    def test_random_operations_match_the_oracle(self, ops):
        space = define_space([("motor", "m", 4), ("extero", "vision", 2)], name="nao")
        m, ref, snapshots = SensorimotorMatrix(space), [], []
        for op, *args in ops:
            last = ref[-1][0] if ref else 0
            if op in ("append", "burst", "non_finite"):
                if op == "append":
                    eid, vecs = last + args[0], [np.array(args[1])]
                elif op == "burst":
                    eid, vecs = last, [np.full(6, args[1])] * args[0]
                else:
                    eid, vecs = last, [np.zeros(6)]
                    vecs[0][args[0]] = args[1]
                for vec in vecs:
                    self._same_outcome(lambda: m.append_measurement(eid, vec),
                                       lambda: reference_append(ref, 6, eid, vec))
            elif ref:
                i = args[0] % len(ref)
                ep = m.episodes[i]
                if op == "reassign":
                    ep.data = ep.data.copy()
                elif op == "slice":
                    cols = slice(*args[1:])
                    ep.data = ep.data[:, cols]
                    ref[i][1] = ref[i][1][:, cols]
                else:
                    snapshots.append((ep.data, ep.data.copy()))
            assert [e.id for e in m.episodes] == [eid for eid, _ in ref]
            for e, (_, want) in zip(m.episodes, ref):
                assert e.data.shape == want.shape
                assert e.data.tobytes() == want.tobytes()
        for taken, frozen in snapshots:
            assert taken.shape == frozen.shape and taken.tobytes() == frozen.tobytes()

    def test_reference_taken_mid_stream_does_not_change(self, nao_space):
        m = SensorimotorMatrix(nao_space)
        for t in range(10):
            m.append_measurement(0, np.full(6, float(t)))
        taken = m.episodes[0].data
        frozen = taken.copy()
        for t in range(10, 200):  # past several capacity doublings
            m.append_measurement(0, np.full(6, float(t)))
        assert taken.shape == (6, 10) and taken.tobytes() == frozen.tobytes()
        assert np.array_equal(m.episodes[0].data[0], np.arange(200.0))

    @pytest.mark.parametrize("cols", [slice(0, 3), slice(2, 5), slice(7, 10)])
    def test_append_to_a_column_view_leaves_its_array_alone(self, nao_space, cols):
        # A view's base is the wider array. Written in place, an append to
        # T columns would land in that array's column T, which may belong to
        # another episode; the episode must copy itself first.
        wide = np.arange(60.0).reshape(6, 10).copy()
        frozen = wide.copy()
        m = SensorimotorMatrix(nao_space, [Episode(0, wide[:, cols])])
        assert m.episodes[0].data.base is wide
        for t in range(3):
            m.append_measurement(0, np.full(6, -1.0 - t))
        assert wide.tobytes() == frozen.tobytes()
        assert not np.shares_memory(m.episodes[0].data, wide)
        want = np.hstack([frozen[:, cols], -1.0 - np.tile(np.arange(3.0), (6, 1))])
        assert m.episodes[0].data.tobytes() == want.tobytes()

    def test_buffer_grows_by_doubling(self, nao_space):
        m = SensorimotorMatrix(nao_space)
        bases = []
        for t in range(1000):
            m.append_measurement(0, np.full(6, float(t)))
            bases.append(m.episodes[0].data.base)
        moves = sum(a is not b for a, b in zip(bases, bases[1:]))
        assert moves <= 6  # capacity 16 doubled up to 1024: amortised O(1) appends

    def test_deep_copy_grows_independently(self, nao_space):
        m = SensorimotorMatrix(nao_space)
        for t in range(5):
            m.append_measurement(0, np.full(6, float(t)))
        twin = copy.deepcopy(m)
        m.append_measurement(0, np.full(6, 5.0))
        twin.append_measurement(0, np.full(6, -5.0))
        assert m.episodes[0].data[0].tolist() == [0, 1, 2, 3, 4, 5]
        assert twin.episodes[0].data[0].tolist() == [0, 1, 2, 3, 4, -5]

    def test_grown_episode_round_trips_csv(self, nao_space, tmp_path):
        m = SensorimotorMatrix(nao_space)
        rng = np.random.default_rng(3)
        for eid in (0, 2):
            for vec in edge_values(rng, (37, 6)):
                m.append_measurement(eid, vec)
        save_csv(m, tmp_path / "d.csv")
        assert load_csv(nao_space, tmp_path / "d.csv") == m


class TestCsv:
    def test_single_episode_shape(self, nao_space, tmp_path):
        m = SensorimotorMatrix(
            nao_space, [Episode(0, np.arange(30.0).reshape(6, 5))]
        )
        path = tmp_path / "d.csv"
        save_csv(m, path)
        loaded = load_csv(nao_space, path)
        assert loaded.episodes[0].data.shape == (6, 5)
        assert loaded == m

    def test_empty_matrix_round_trip(self, nao_space, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(SensorimotorMatrix(nao_space), path)
        assert load_csv(nao_space, path).episodes == []

    def test_random_8x50_round_trip(self, tmp_path):
        space = define_space(
            [("motor", "m", 2), ("proprio", "q", 3), ("extero", "v", 2),
             ("intero", "i", 1)]
        )
        rng = np.random.default_rng(17)
        m = SensorimotorMatrix(space, [Episode(0, rng.standard_normal((8, 50)))])
        path = tmp_path / "d.csv"
        save_csv(m, path)
        assert load_csv(space, path) == m

    def test_header_mismatch(self, nao_space, tmp_path):
        other = define_space([("motor", "m", 3), ("extero", "vision", 2)])
        m = SensorimotorMatrix(other, [Episode(0, np.zeros((5, 2)))])
        path = tmp_path / "d.csv"
        save_csv(m, path)
        with pytest.raises(TapkitError, match="header"):
            load_csv(nao_space, path)

    def test_non_numeric_cell(self, nao_space, tmp_path):
        path = tmp_path / "d.csv"
        header = "episode," + ",".join(nao_space.channel_names())
        path.write_text(header + "\n0,1,2,3,4,5,banana\n")
        with pytest.raises(TapkitError, match="banana"):
            load_csv(nao_space, path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_names_line(self, nao_space, tmp_path, bad):
        path = tmp_path / "d.csv"
        header = "episode," + ",".join(nao_space.channel_names())
        path.write_text(header + f"\n0,1,2,3,4,5,6\n0,1,2,{bad},4,5,6\n")
        with pytest.raises(TapkitError, match=f"line 3: non-finite value '{bad}'"):
            load_csv(nao_space, path)

    def test_wrong_field_count_names_line(self, nao_space, tmp_path):
        path = tmp_path / "d.csv"
        header = "episode," + ",".join(nao_space.channel_names())
        path.write_text(header + "\n0,1,2,3,4,5,6\n0,1,2,3,4,5\n")
        with pytest.raises(TapkitError, match="line 3: expected 7 fields"):
            load_csv(nao_space, path)

    def test_non_integer_episode_id(self, nao_space, tmp_path):
        path = tmp_path / "d.csv"
        header = "episode," + ",".join(nao_space.channel_names())
        path.write_text(header + "\n0.5,1,2,3,4,5,6\n")
        with pytest.raises(TapkitError, match="line 2: non-integer episode id '0.5'"):
            load_csv(nao_space, path)

    @pytest.mark.parametrize("big", ["99999999999999999999", "-9223372036854775809"])
    def test_episode_id_past_int64_names_line(self, nao_space, tmp_path, big):
        path = tmp_path / "d.csv"
        header = "episode," + ",".join(nao_space.channel_names())
        path.write_text(header + f"\n0,1,2,3,4,5,6\n{big},1,2,3,4,5,6\n")
        with pytest.raises(TapkitError) as info:
            load_csv(nao_space, path)
        assert str(info.value) == f"{path}: line 3: episode id out of range '{big}'"

    # "1" and zeros make a number, "x"s do not; a field this long sends the table to the row loop
    @pytest.mark.parametrize("big", ["1", "x"])
    def test_field_past_csv_limit_names_line(self, nao_space, tmp_path, big):
        path = tmp_path / "d.csv"
        header = "episode," + ",".join(nao_space.channel_names())
        cell = big.ljust(csv.field_size_limit() + 1, "0" if big == "1" else "x")
        path.write_text(header + f"\n0,1,2,3,4,5,6\n0,1,2,3,4,5,{cell}\n")
        with pytest.raises(TapkitError) as info:
            load_csv(nao_space, path)
        assert str(info.value) == f"{path}: line 3: {FIELD_LIMIT_ERROR}"

    def test_header_field_past_csv_limit_names_line(self, nao_space, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("episode," + "m" * (csv.field_size_limit() + 1) + "\n0,1\n")
        for read in (lambda: load_csv(nao_space, path), lambda: infer_space_from_csv(path)):
            with pytest.raises(TapkitError) as info:
                read()
            assert str(info.value) == f"{path}: line 1: {FIELD_LIMIT_ERROR}"

    # A quoted field may span lines: a row is reported at the line it starts on.
    @pytest.mark.parametrize("bad, message", [
        ("x", "non-numeric value 'x'"),
        ("nan", "non-finite value 'nan'"),
        ("x" * (csv.field_size_limit() + 1), FIELD_LIMIT_ERROR),
    ], ids=["non-numeric", "non-finite", "field-limit"])
    def test_line_after_multiline_row(self, tmp_path, bad, message):
        space = define_space([("motor", "m", 1)])
        path = tmp_path / "d.csv"
        path.write_text(f'episode,motor:m[0]\n0,"1\n"\n0,{bad}\n')
        with pytest.raises(TapkitError) as info:
            load_csv(space, path)
        assert str(info.value) == f"{path}: line 4: {message}"

    def test_empty_file(self, nao_space, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(TapkitError, match="empty file, expected a header row"):
            load_csv(nao_space, path)

    def test_blank_lines_are_skipped_but_counted(self, nao_space, tmp_path):
        path = tmp_path / "d.csv"
        header = "episode," + ",".join(nao_space.channel_names())
        path.write_text(header + "\n\n0,1,2,3,4,5,6\n\n0,1,2,3,4,5,oops\n")
        with pytest.raises(TapkitError, match="line 5: non-numeric value 'oops'"):
            load_csv(nao_space, path)
        path.write_text(header + "\n\n0,1,2,3,4,5,6\n\n1,1,2,3,4,5,7\n\n")
        loaded = load_csv(nao_space, path)
        assert [ep.id for ep in loaded.episodes] == [0, 1]
        assert loaded.episodes[1].data[:, 0].tolist() == [1, 2, 3, 4, 5, 7]

    def test_non_monotone_episode_ids(self, nao_space, tmp_path):
        path = tmp_path / "d.csv"
        header = "episode," + ",".join(nao_space.channel_names())
        rows = ["1,0,0,0,0,0,0", "0,0,0,0,0,0,0"]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TapkitError, match="non-monotone"):
            load_csv(nao_space, path)

    def test_infer_space_from_header(self, nao_space, tmp_path):
        m = SensorimotorMatrix(nao_space, [Episode(0, np.zeros((6, 3)))])
        path = tmp_path / "d.csv"
        save_csv(m, path)
        inferred = infer_space_from_csv(path)
        assert inferred.compatible(nao_space)

    @pytest.mark.parametrize(
        "header, fragment",
        [
            ("episode,motor:m[1]", "does not start at index 0"),
            ("episode,motor:m[0],motor:m[2]", "non-contiguous"),
            ("episode,m[0]", "malformed"),
            ("time,motor:m[0]", "missing 'episode'"),
        ],
    )
    def test_infer_space_rejects_bad_headers(self, tmp_path, header, fragment):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n")
        with pytest.raises(TapkitError, match=fragment):
            infer_space_from_csv(path)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        space = define_space([("motor", "m", int(rng.integers(1, 4)))])
        n_eps = int(rng.integers(0, 3))
        eps = [
            Episode(i, edge_values(rng, (space.n_sm, int(rng.integers(1, 6)))))
            for i in range(n_eps)
        ]
        m = SensorimotorMatrix(space, eps)
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        save_csv(m, path)
        loaded = load_csv(space, path)
        assert loaded == m
        # Bytes, not values: array_equal treats -0.0 and 0.0 as equal.
        assert [ep.data.tobytes() for ep in loaded.episodes] == [ep.data.tobytes() for ep in eps]

    def test_saved_text_is_pinned(self, tmp_path):
        space = define_space([("motor", "m", 2)])
        m = SensorimotorMatrix(space, [Episode(3, np.array([[0.1, -0.0], [5e-324, 1e17]]))])
        path = tmp_path / "d.csv"
        save_csv(m, path)
        assert path.read_bytes() == (
            b"episode,motor:m[0],motor:m[1]\r\n"
            b"3,0.10000000000000001,4.9406564584124654e-324\r\n"
            b"3,-0,1e+17\r\n"
        )


def test_parse_channel_ref():
    assert parse_channel_ref("vision[1]") == ChannelRef("vision", 1)
    with pytest.raises(TapkitError):
        parse_channel_ref("vision")


# One change to an otherwise well-formed table, each a case where the reader's
# kernel and the csv row loop could part ways.
TABLE_MUTATIONS = (
    "none", "drop a field", "nan", "inf", "1_0", "quoted number", "space in key",
    "plus in key", "space in cell", "plus in cell", "01 in cell", "2 in cell",
    "whitespace-only line", "lone CR", "key past int64", "header only", "NUL after cell",
    "# after field", "1.500", "-.5", "exponent cell", "19-digit mantissa", "007 in key",
    "no final newline", "mixed CRLF/LF", "- inside field", "CR inside a line",
)
BIG = ("99999999999999999999", "-9223372036854775809")


def write_table(path, rng, n_keys, mask, newline, mutation, kernel_range=False):
    """Write a random table with ``mutation`` applied. Returns the line
    number and text of a key past int64, or None. With ``kernel_range``, keys
    have at most 18 digits and no line is blank: the reader's kernel takes
    such a table unless the mutation says otherwise."""
    n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    keys = rng.choice([-10**18 + 1, -7, 0, 3, 10**18 - 1] if kernel_range
                      else [-2**63, -7, 0, 3, 2**63 - 1], size=(n, n_keys)).tolist()
    if mask:
        cells = rng.integers(0, 2, (n, d)).astype(str).tolist()
    else:
        cells = [[format(v, ".17g") for v in row] for row in edge_values(rng, (n, d)).tolist()]
    rows = [[str(k) for k in ks] + cs for ks, cs in zip(keys, cells)]
    r, key, cell = int(rng.integers(n)), int(rng.integers(n_keys)), n_keys + int(rng.integers(d))
    field = int(rng.integers(n_keys + d))
    row, big = rows[r], None
    if mutation == "drop a field":
        del row[field]
    elif mutation in ("nan", "inf"):
        row[cell] = rng.choice([mutation, "-" + mutation])
    elif mutation == "1_0":
        row[field] = "1_0"
    elif mutation == "quoted number":
        row[field] = f'"{row[field]}"'
    elif mutation in ("space in key", "plus in key", "space in cell", "plus in cell"):
        j = key if mutation.endswith("key") else cell
        row[j] = (" " if mutation.startswith("space") else "+") + row[j]
    elif mutation in ("01 in cell", "2 in cell"):
        row[cell] = mutation.split()[0]
    elif mutation == "NUL after cell":
        row[cell] += "\0"
    elif mutation == "# after field":
        row[field] += "#1"
    elif mutation == "key past int64":
        row[key] = big = str(rng.choice(BIG))
    elif mutation in ("1.500", "-.5"):
        row[cell] = mutation
    elif mutation == "exponent cell":
        row[cell] = str(rng.choice(["1e-05", "-2.5E-7", "9.9999999999999995e-08", "3e2"]))
    elif mutation == "19-digit mantissa":
        row[cell] = str(rng.choice(["1234567890123456789", "-0.1234567890123456789",
                                    "12345678.90123456789"]))
    elif mutation == "007 in key":
        row[key] = str(rng.choice(["007", "-007"]))
    elif mutation == "- inside field":
        row[field] = row[field][:1] + "-" + row[field][1:]
    elif mutation == "CR inside a line":  # csv ends the row there, float would strip it
        row[n_keys + d - 2] += "\r"  # the last cell but one, or a key
    elif mutation == "header only":
        rows = []
    lines = [",".join(["episode", "t"][:n_keys] + [f"c{j}" for j in range(d)])]
    for i, row in enumerate(rows):
        # blank lines are skipped but counted
        lines += [""] * int(rng.integers(0, 2 - kernel_range))
        if i == r and big is not None:
            big = (len(lines) + 1, ("episode id", "t")[key], big)
        lines.append(",".join(row))
    if mutation == "whitespace-only line":
        lines.insert(int(rng.integers(1, len(lines) + 1)), str(rng.choice([" ", "\t"])))
    ends = [newline] * len(lines)
    if mutation == "lone CR":
        ends[int(rng.integers(len(ends)))] = "\r"
    elif mutation == "no final newline":
        ends[-1] = ""
    elif mutation == "mixed CRLF/LF":
        ends = [str(rng.choice(["\r\n", "\n"])) for _ in lines]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + end for line, end in zip(lines, ends)))
    return big


def read_outcome(read, path, n_keys, mask):
    """The arrays a reader returns, as dtypes, shapes and bytes, or its error.
    Before Python 3.11 ``csv.reader`` refuses a NUL with ``csv.Error``, which
    the reference lets escape."""
    try:
        checked, keys, cells = read(path, n_keys, lambda header: header, mask)
    except (TapkitError, csv.Error) as e:
        return type(e).__name__, str(e)
    return (checked, keys.dtype, keys.shape, keys.tobytes(),
            cells.dtype, cells.shape, cells.tobytes())


def nul_refusing(reader):
    """``reader`` made to refuse a line holding a NUL, as ``csv.reader`` does
    before Python 3.11."""
    def refusing(lines, *args, **kwargs):
        def checked():
            for line in lines:
                if "\0" in line:
                    raise csv.Error("line contains NUL")
                yield line
        return reader(checked(), *args, **kwargs)
    return refusing


def reference_outcome(path, n_keys, mask):
    """``read_outcome`` of the reference, with its csv.Error for a NUL turned
    into the TapkitError ``csvtext.read`` gives, which names the line that the
    NUL's row starts on."""
    want = read_outcome(reference_read_table, path, n_keys, mask)
    if want[0] == "Error":
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read().replace("\0", "\1")  # csv reads \1 as any other byte
        lineno = next(i for i, row in reference_rows(io.StringIO(text, newline=""))
                      if any("\1" in field for field in row))
        want = ("TapkitError", f"{path}: line {lineno}: {want[1]}")
    return want


# Bytes that the kernel or csv give a meaning to, and two that neither reads.
SPLICE_CHARS = "0123456789,.-+eE\r\n \"\0\u00e9"


class TestReadTableAgainstReference:
    # Pieces of a few bytes (a mask's are a quarter of these) cut the tables
    # into several pieces, and cut lines across reads.
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_keys=st.sampled_from([1, 2]),
           mask=st.booleans(), newline=st.sampled_from(["\r\n", "\n"]),
           mutation=st.sampled_from(TABLE_MUTATIONS), refuse_nul=st.booleans(),
           piece=st.sampled_from([4, 8, 28, 64, 200, csvtext._PIECE_BYTES]),
           kernel_range=st.booleans())
    def test_same_arrays_or_same_error(self, tmp_path_factory, seed, n_keys, mask,
                                       newline, mutation, refuse_nul, piece, kernel_range):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        big = write_table(path, np.random.default_rng(seed), n_keys, mask, newline, mutation,
                          kernel_range)
        with (mock.patch.object(csv, "reader", nul_refusing(csv.reader)) if refuse_nul
              else contextlib.nullcontext()), mock.patch.object(csvtext, "_PIECE_BYTES", piece):
            got = read_outcome(csvtext.read, path, n_keys, mask)
            want = reference_outcome(path, n_keys, mask) if big is None else None
        if big is None:
            assert got == want
        else:  # the reference lets OverflowError escape
            with pytest.raises(OverflowError):
                reference_read_table(path, n_keys, lambda header: header, mask)
            lineno, name, text = big
            assert got == ("TapkitError", f"{path}: line {lineno}: {name} out of range {text!r}")

    # Keys of at most 3 digits take at most 2 spliced digits: none passes int64.
    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_keys=st.sampled_from([1, 2]), mask=st.booleans(),
           newline=st.sampled_from(["\r\n", "\n"]), refuse_nul=st.booleans(),
           piece=st.sampled_from([4, 8, 28, 64, csvtext._PIECE_BYTES]))
    def test_spliced_bytes(self, tmp_path_factory, seed, n_keys, mask, newline, refuse_nul,
                           piece):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        keys = rng.integers(-999, 1000, (n, n_keys)).tolist()
        cells = (rng.integers(0, 2, (n, d)).tolist() if mask
                 else [["%.17g" % v for v in row] for row in edge_values(rng, (n, d)).tolist()])
        header = ",".join(["episode", "t"][:n_keys] + [f"c{j}" for j in range(d)]) + newline
        body = "".join(",".join(map(str, ks + cs)) + newline for ks, cs in zip(keys, cells))
        edges = [k + after for k, c in enumerate(body) if c in ",\r\n" for after in (0, 1)]
        for _ in range(int(rng.integers(1, 3))):  # each splice inserts, or overwrites a character
            # half of them next to a separator, where csv and the kernel could split apart
            i = int(rng.choice(edges) if rng.random() < 0.5 else rng.integers(len(body) + 1))
            body = body[:i] + str(rng.choice(list(SPLICE_CHARS))) + body[i + int(rng.integers(2)):]
        path = tmp_path_factory.getbasetemp() / "spliced.csv"
        path.write_bytes((header + body).encode())
        with (mock.patch.object(csv, "reader", nul_refusing(csv.reader)) if refuse_nul
              else contextlib.nullcontext()), mock.patch.object(csvtext, "_PIECE_BYTES", piece):
            assert read_outcome(csvtext.read, path, n_keys, mask) == \
                reference_outcome(path, n_keys, mask)


def read_by_kernel(path, lines, n_keys=1):
    """Write a header and ``lines`` as a table and read it with the csv row
    loop made to fail: what comes back is the kernel's reading."""
    width = lines[0].count(",") + 1
    header = ",".join(["episode", "t"][:n_keys] + [f"c{j}" for j in range(width - n_keys)])
    path.write_text("".join(line + "\r\n" for line in [header, *lines]), newline="")
    row_loop = AssertionError("the row loop read it")
    with mock.patch.object(csvtext, "_read_rows", side_effect=row_loop):
        return csvtext.read(path, n_keys, len)


def assert_read_as_float(path, texts):
    """One-cell rows of ``texts`` read by the kernel as ``float`` reads them."""
    _, keys, cells = read_by_kernel(path, [f"{i},{t}" for i, t in enumerate(texts)])
    assert cells.tobytes() == float_bits(texts)
    assert keys.ravel().tolist() == list(range(len(texts)))


def float_bits(texts) -> bytes:
    return np.array([float(t) for t in texts]).tobytes()


def decimal_texts(rng, n: int) -> list[str]:
    """Decimal texts of 1-19 digits with a random sign and point position,
    and often leading or trailing zeros."""
    out = []
    for _ in range(n):
        digits = "".join(rng.choice(list("0123456789"), int(rng.integers(1, 20))))
        if rng.random() < 0.3:
            digits = "0" * int(rng.integers(1, 4)) + digits[3:] if len(digits) > 3 else "0" + digits
        if rng.random() < 0.3:
            digits = digits[:-3] + "000" if len(digits) > 3 else digits + "0"
        point = int(rng.integers(0, len(digits) + 2))  # past the end: no point
        text = digits if point > len(digits) else digits[:point] + "." + digits[point:]
        out.append(("-" if rng.random() < 0.5 else "") + text)
    return out


def first_candidate(text: str) -> float:
    """The kernel's first reading of a plain decimal text, ``m / 10**f``."""
    body = text.lstrip("-")
    places = len(body) - body.index(".") - 1 if "." in body else 0
    y = float(int(body.replace(".", ""))) / 10.0**places
    return -y if text.startswith("-") else y


class TestReadKernel:
    """The reader's NumPy kernel gives the bits of ``float(text)`` and
    ``int(text)``, with the csv row loop shut off."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_drawn_floats(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("kernel") / "t.csv"
        assert_read_as_float(path, ["%.17g" % x for x in values] + [repr(x) for x in values])

    def test_edge_values_and_decimal_texts(self, tmp_path):
        rng = np.random.default_rng(11)
        values = edge_values(rng, 5_000).tolist()
        assert_read_as_float(tmp_path / "t.csv", ["%.17g" % x for x in values]
                             + [repr(x) for x in values] + decimal_texts(rng, 20_000))

    def test_first_candidate_one_ulp_off(self, tmp_path):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-4, 17, 20_000)
        texts = ["%.17g" % x for x in values]
        texts = [t for t in texts if "e" not in t and first_candidate(t) != float(t)]
        assert len(texts) > 1_000
        _, _, cells = read_by_kernel(tmp_path / "t.csv", [f"0,{t}" for t in texts])
        assert cells.tobytes() == float_bits(texts)

    def test_short_forms(self, tmp_path):
        texts = [".5", "5.", "-0", "0", "0.000", "-0.000", "-.5", "-5.", "00.5", "1.500", "-0.0",
                 "0.0001", "0.00009999999999999999", "99999999999999999", "1e5", "1E-5", "1_0",
                 "1e+17", "-1e+20", "+1.5", " 1.5", "1.5 ", "\t-2",
                 # 17 and 23 digits before the point, 23 the most the kernel reads: a digit
                 # move that stops short of 23 drops the last text's leading 1
                 "12345678901234568.", "-00000012345678901234568.", "10000001234567890123456."]
        _, _, cells = read_by_kernel(tmp_path / "t.csv", [f"0,{t}" for t in texts])
        assert cells.tobytes() == float_bits(texts)

    def test_plain_cells_reach_the_rounding_check(self, tmp_path):
        # Every '%.17g' text in [1e-4, 1e17), in each column of CRLF lines, is
        # read by _checked, not by float one at a time.
        rng = np.random.default_rng(13)
        values = 10.0 ** rng.uniform(-4, 17, (300, 3)) * rng.choice([-1.0, 1.0], (300, 3))
        texts = ["%.17g" % v for v in values.ravel().tolist()]
        assert not any("e" in t for t in texts)
        lines = [f"{i},{','.join(texts[3 * i:3 * i + 3])}" for i in range(300)]
        with mock.patch.object(csvtext, "_checked", wraps=csvtext._checked) as checked:
            _, _, cells = read_by_kernel(tmp_path / "t.csv", lines)
        assert cells.tobytes() == float_bits(texts)
        assert sum(len(call.args[0]) for call in checked.call_args_list) == values.size

    # csv ends a row at a \r, where float would strip it from the field.
    @pytest.mark.parametrize("line", ["0,1.5\r,2.5", "0\r,1.5,2.5", "0,2.5,1.5\r\r"])
    def test_cr_inside_a_line_goes_to_the_row_loop(self, tmp_path, line):
        path = tmp_path / "t.csv"
        path.write_bytes(f"episode,c0,c1\r\n{line}\r\n".encode())
        assert _read_body(path, 1, 3, False) is None
        want = read_outcome(reference_read_table, path, 1, False)
        assert read_outcome(csvtext.read, path, 1, False) == want
        if "\r," in line:  # a row of too few fields
            assert want[0] == "TapkitError"
        else:  # one row, then blank lines
            assert want[2] == (1, 1)

    def test_long_cell_gives_the_reference_error(self, tmp_path):
        # past the longest run the kernel reads, its digit move stops: the cell goes to float
        path, text = tmp_path / "t.csv", "1" * 100_000 + ".5"
        path.write_text(f"episode,c0\r\n0,0.5\r\n1,{text}\r\n", newline="")
        want = read_outcome(reference_read_table, path, 1, False)
        assert want == ("TapkitError", f"{path}: line 3: non-finite value {text!r}")
        assert read_outcome(csvtext.read, path, 1, False) == want

    def test_keys(self, tmp_path):
        texts = [str(10**18 - 1), str(1 - 10**18), "007", "-007", "0", "-0", "-1"]
        _, keys, _ = read_by_kernel(tmp_path / "t.csv", [f"{t},{t},0.5" for t in texts], n_keys=2)
        assert keys.tolist() == [[int(t), int(t)] for t in texts]

    @pytest.mark.parametrize("text", ["-", ".", "-.", ""])
    def test_cells_with_no_digit_go_to_the_row_loop(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(f"episode,c0\r\n0,{text}\r\n", newline="")
        assert _read_body(path, 1, 2, False) is None
        with pytest.raises(TapkitError) as info:
            csvtext.read(path, 1, len)
        assert str(info.value) == f"{path}: line 2: non-numeric value {text!r}"

    @pytest.mark.parametrize("big", ["9999999999999999999", "-9999999999999999999"])
    def test_19_digit_key_goes_to_the_row_loop(self, tmp_path, big):
        path = tmp_path / "t.csv"
        path.write_text(f"episode,c0\r\n0,0.5\r\n{big},0.5\r\n", newline="")
        assert _read_body(path, 1, 2, False) is None
        with pytest.raises(TapkitError) as info:
            csvtext.read(path, 1, len)
        assert str(info.value) == f"{path}: line 3: episode id out of range '{big}'"


class TestWriteTableAgainstReference:
    # Around the chunk size (1 024 rows) and the 4 096 it was: empty, one row,
    # one chunk +-1, two chunks + 1.
    ROWS = (0, 1, 2, 1023, 1024, 1025, 2049, 4095, 4096, 4097, 8193)
    KEYS = (-2**63, -2**63 + 1, -7, -1, 0, 1, 2**31, 2**63 - 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_keys=st.sampled_from([1, 2]), d=st.integers(1, 4),
           blocks=st.lists(st.tuples(st.sampled_from(ROWS), st.booleans()), max_size=3))
    def test_same_bytes(self, tmp_path_factory, seed, n_keys, d, blocks):
        """Float and mask blocks of ``edge_values`` cells under int64 keys."""
        rng = np.random.default_rng(seed)
        header = ["episode", "t"][:n_keys] + [f"c{j}" for j in range(d)]
        arrays = []
        for n, mask in blocks:
            keys = np.where(rng.random((n, n_keys)) < 0.5, rng.choice(self.KEYS, (n, n_keys)),
                            rng.integers(-2**63, 2**63 - 1, (n, n_keys), dtype=np.int64))
            cells = rng.random((n, d)) < 0.5 if mask else edge_values(rng, (n, d))
            arrays.append((keys, cells))
        out = tmp_path_factory.mktemp("table")
        csvtext.write(out / "got.csv", header, arrays)
        reference_write_table(out / "want.csv", header, arrays)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_header_is_utf8(self, tmp_path):
        csvtext.write(tmp_path / "t.csv", ["episode", "extero:v\u00e9[0]"],
                      [(np.zeros((1, 1), dtype=np.int64), np.array([[0.5]]))])
        assert (tmp_path / "t.csv").read_bytes() == b"episode,extero:v\xc3\xa9[0]\r\n0,0.5\r\n"


# Zeros, subnormals, the normal range's ends, nan, inf, values next to 1e-6, and the kernel's
# range ends, 1e-4 and 1e17.
EDGE_TEXT_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                    1.7976931348623157e308, -1.7976931348623157e308, np.nan, -np.nan, np.inf,
                    -np.inf, 1e-6, 1.0000000000000002e-6, 1e16, 1e17, 99999999999999984.0,
                    9.9999999999999995e-5, 0.0001, 0.5, 1.0, 2.8)


def texts(field: np.ndarray) -> list[str]:
    """The text of each column of a ``(width, n)`` field array, NULs dropped."""
    return [bytes(column).replace(b"\0", b"").decode() for column in field.T]


def powers_of_ten_neighbours(steps: int) -> np.ndarray:
    """``steps`` doubles on each side of every power of ten a double can hold."""
    out = []
    for k in range(-324, 309):
        for toward in (0.0, np.inf):
            v = float(f"1e{k}")
            for _ in range(steps):
                out.append(v)
                v = np.nextafter(v, toward)
    return np.array(out)


def dyadic_ties(rng, per_shift: int) -> np.ndarray:
    """Odd ``j / 2**t`` whose exact decimal has 18 significant digits, the
    last a 5: halfway between two 17-digit texts."""
    out = []
    for t in range(60):
        lo, hi = max(1, 10**17 // 5**t), min(2**53, 10**18 // 5**t)
        if lo < hi:
            out.append((rng.integers(lo, hi, per_shift) | 1) / 2.0**t)
    return np.concatenate(out)


class TestTextKernel:
    """``_float_text`` and ``_int_text`` against Python's ``%``."""

    def test_float_text_is_percent_17g(self):
        rng = np.random.default_rng(7)
        # random bit patterns under every sign and biased exponent
        high = np.repeat(np.arange(4096, dtype=np.uint64), 32) << np.uint64(52)
        bits = high | rng.integers(0, 2**52, high.size, dtype=np.uint64)
        ties = dyadic_ties(rng, 200)
        values = np.concatenate([
            bits.view(np.float64), ties, -ties, powers_of_ten_neighbours(12),
            -powers_of_ten_neighbours(3), 10 ** rng.uniform(-8, 19, 20_000),
            rng.standard_normal(20_000), np.array(EDGE_TEXT_FLOATS)])
        got = texts(_float_text(values))
        want = ["%.17g" % v for v in values.tolist()]
        assert [(v, g) for v, g, w in zip(values.tolist(), got, want) if g != w] == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_float_text_is_percent_17g_on_drawn_floats(self, values):
        assert texts(_float_text(np.array(values, dtype=float))) == ["%.17g" % v for v in values]

    def test_no_significand_rounds_up_to_10_to_the_17(self):
        # The kernel's exact product a * 10**(16 - e) rises with a, so in each
        # decade e the largest double below 10**(e + 1) bounds it, and it lies
        # more than 8 below 10**17: no rounding carries into the next decade.
        for e in range(-4, 17):
            top = Fraction(10) ** (e + 1)
            a = float(top) if Fraction(float(top)) < top else np.nextafter(float(top), 0.0)
            assert 10**17 - Fraction(a) * 10 ** (16 - e) > 8
        powers = np.array([float(f"1e{k}") for k in range(-4, 18)])
        values = (powers.view(np.int64)[:, None] + np.arange(-2000, 51)).ravel().view(np.float64)
        values = np.concatenate([values, -values])
        assert texts(_float_text(values)) == ["%.17g" % v for v in values.tolist()]

    def test_float32_and_int_cells_are_percent_17g_of_their_value(self):
        scales = 10.0 ** np.arange(-8, 12).repeat(250)
        values = np.random.default_rng(9).standard_normal(scales.size) * scales
        for cells in (values.astype(np.float32), values.astype(np.int64)):
            assert texts(_float_text(cells)) == ["%.17g" % v for v in cells.tolist()]

    def test_int_text_is_percent_d(self):
        rng = np.random.default_rng(8)
        tens = 10 ** np.arange(19, dtype=np.int64)
        values = np.concatenate([
            [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1], tens, tens - 1, -tens, 1 - tens,
            rng.integers(-2**63, 2**63 - 1, 20_000, dtype=np.int64, endpoint=True),
        ]).astype(np.int64)
        assert texts(_int_text(values)) == ["%d" % v for v in values.tolist()]

    def test_bool_cells_after_keys(self):
        keys = np.array([[-2**63], [7]])
        assert _text_lines(np.array([[True, False], [False, True]]), keys) == \
            b"-9223372036854775808,1,0\r\n7,0,1\r\n"

import contextlib
import copy
import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapkit import (
    SensorimotorMatrix,
    TapkitError,
    define_space,
    infer_space_from_csv,
    load_csv,
    save_csv,
)
from tapkit.smcore import ChannelRef, Episode, _read_table, _write_table, parse_channel_ref

from oracles import edge_values, reference_append, reference_read_table, reference_write_table

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
        with pytest.raises(TapkitError, match="strictly increasing"):
            SensorimotorMatrix(nao_space, eps)


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

    # "1" and zeros parse as inf in NumPy's C reader, "x"s go to the row loop
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


# One change to an otherwise well-formed table, each a case where NumPy's C
# reader and the csv row loop could part ways.
TABLE_MUTATIONS = (
    "none", "drop a field", "nan", "inf", "1_0", "quoted number", "space in key",
    "plus in key", "space in cell", "plus in cell", "01 in cell", "2 in cell",
    "whitespace-only line", "lone CR", "key past int64", "header only", "NUL after cell",
    "# after field",
)
BIG = ("99999999999999999999", "-9223372036854775809")


def write_table(path, rng, n_keys, mask, newline, mutation):
    """Write a random table with ``mutation`` applied. Returns the line
    number and text of a key past int64, or None."""
    n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    keys = rng.choice([-2**63, -7, 0, 3, 2**63 - 1], size=(n, n_keys)).tolist()
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
    elif mutation == "header only":
        rows = []
    lines = [",".join(["episode", "t"][:n_keys] + [f"c{j}" for j in range(d)])]
    for i, row in enumerate(rows):
        lines += [""] * int(rng.integers(0, 2))  # blank lines are skipped but counted
        if i == r and big is not None:
            big = (len(lines) + 1, ("episode id", "t")[key], big)
        lines.append(",".join(row))
    if mutation == "whitespace-only line":
        lines.insert(int(rng.integers(1, len(lines) + 1)), str(rng.choice([" ", "\t"])))
    ends = [newline] * len(lines)
    if mutation == "lone CR":
        ends[int(rng.integers(len(ends)))] = "\r"
    with open(path, "w", newline="") as fh:
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


class TestReadTableAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_keys=st.sampled_from([1, 2]),
           mask=st.booleans(), newline=st.sampled_from(["\r\n", "\n"]),
           mutation=st.sampled_from(TABLE_MUTATIONS), refuse_nul=st.booleans())
    def test_same_arrays_or_same_error(self, tmp_path_factory, seed, n_keys, mask,
                                       newline, mutation, refuse_nul):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        big = write_table(path, np.random.default_rng(seed), n_keys, mask, newline, mutation)
        with (mock.patch.object(csv, "reader", nul_refusing(csv.reader)) if refuse_nul
              else contextlib.nullcontext()):
            got = read_outcome(_read_table, path, n_keys, mask)
            want = read_outcome(reference_read_table, path, n_keys, mask) if big is None else None
        if big is None:
            if want[0] == "Error":  # csv.Error: _read_table names the NUL's line
                with open(path, newline="") as fh:
                    lineno = next(i for i, line in enumerate(fh, start=1) if "\0" in line)
                want = ("TapkitError", f"{path}: line {lineno}: {want[1]}")
            assert got == want
        else:  # the reference lets OverflowError escape
            with pytest.raises(OverflowError):
                reference_read_table(path, n_keys, lambda header: header, mask)
            lineno, name, text = big
            assert got == ("TapkitError", f"{path}: line {lineno}: {name} out of range {text!r}")


class TestWriteTableAgainstReference:
    # Around the chunk size (4 096 rows): empty, one row, one chunk +-1, two chunks + 1.
    ROWS = (0, 1, 2, 4095, 4096, 4097, 8193)
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
        _write_table(out / "got.csv", header, arrays)
        reference_write_table(out / "want.csv", header, arrays)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

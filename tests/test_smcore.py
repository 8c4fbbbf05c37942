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
from tapkit.smcore import ChannelRef, Episode, parse_channel_ref

from oracles import edge_values


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
        with pytest.raises(TapkitError):
            nao_space.resolve("arm", 0)
        with pytest.raises(TapkitError):
            nao_space.resolve("m", 4)


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

    def test_episode_ids_strictly_increasing_on_construction(self, nao_space):
        eps = [Episode(1, np.zeros((6, 2))), Episode(1, np.zeros((6, 2)))]
        with pytest.raises(TapkitError, match="strictly increasing"):
            SensorimotorMatrix(nao_space, eps)


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


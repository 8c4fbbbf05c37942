import argparse
import csv
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tapkit import (TapkitError, analysis, cli, csvtext, load_model, rlbridge, save_model, smcore,
                    tapdsl)
from tapkit.cli import _box, _parse_floats, _parser, build_parser, demo_nao, main, split_seed
from tapkit.engine import apply, load_dataset_csv, save_dataset_csv
from tapkit.models import LinearModel
from tapkit.smcore import ChannelRef

from oracles import fk_oracle, reference_demo_nao, reference_read_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GALLERY = """
space nao {
  motor m: 4
  extero vision: 2
}

tapping fwd {
  input m @ -1
  target vision @ 0
}

tapping future {
  input m @ 1
  target vision @ 0
}
"""


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        subcommands = ["gen", "apply", "train", "reach", "td", "analyze",
                       "render", "validate", "demo"]
        for argv in [["--help"]] + [[s, "--help"] for s in subcommands]:
            code, out, _ = run(capsys, *argv)
            assert code == 0

    def test_usage_error_is_one(self, capsys):
        code, _, err = run(capsys, "gen", "--plant", "warpdrive", "--steps", "5",
                           "--out", "x.csv")
        assert code == 1
        assert "error:" in err

    def test_missing_subcommand_is_one(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.tap"
        bad.write_text("tapping t { input m @ -1 }")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert err.startswith("error: line")


class TestGen:
    def _gen(self, tmp_path, capsys, *argv):
        data = tmp_path / "d.csv"
        code, _, err = run(capsys, "gen", "--steps", "40", "--seed", "2",
                           "--out", str(data), *argv)
        if code != 0:
            return code, err, None
        space = smcore.infer_space_from_csv(data)
        return code, err, smcore.load_csv(space, data).episodes[0].data

    @pytest.mark.parametrize("argv, delay", [((), 3), (("--delay", "2"), 2),
                                             (("--lag", "1"), 1)])
    def test_planted_delay_option(self, tmp_path, capsys, argv, delay):
        code, _, data = self._gen(tmp_path, capsys, "--plant", "planted", *argv)
        assert code == 0
        x, y = data
        assert np.array_equal(y[:delay], np.zeros(delay))
        assert np.array_equal(y[delay:], np.tanh(x[:-delay]))

    @pytest.mark.parametrize("argv, delay", [((), 1), (("--lag", "2"), 2),
                                             (("--delay", "3"), 3)])
    def test_arm_delay_option(self, tmp_path, capsys, argv, delay):
        code, _, data = self._gen(tmp_path, capsys, "--plant", "arm", *argv)
        assert code == 0
        links = (1.0, 0.8, 0.6, 0.4)
        for t in range(40):
            cmd = data[:4, t - delay] if t >= delay else np.zeros(4)
            assert np.allclose(data[4:, t], fk_oracle(links, cmd), atol=1e-12)

    @pytest.mark.parametrize("plant", ["planted", "linear"])
    def test_nonpositive_delay_is_data_error(self, tmp_path, capsys, plant):
        code, err, _ = self._gen(tmp_path, capsys, "--plant", plant, "--lag", "0")
        assert code == 2
        assert err.strip() == "error: delay must be >= 1, got 0"


class TestPipeline:
    def test_gen_apply_train_reach(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        code, out, _ = run(capsys, "gen", "--plant", "linear", "--steps", "60",
                           "--seed", "3", "--out", str(data))
        assert code == 0
        space_file = tmp_path / "d.tap"
        assert space_file.exists()

        # append a tapping to the generated space file
        space_file.write_text(space_file.read_text() +
                              "\ntapping fwd { input m @ -1 target v @ 0 }\n")
        ds_path = tmp_path / "ds.csv"
        code, out, _ = run(capsys, "apply", "--space", str(space_file),
                           "--tapping", "fwd", "--data", str(data),
                           "--out", str(ds_path))
        assert code == 0
        assert load_dataset_csv(ds_path).n == 59

        model_path = tmp_path / "m.txt"
        code, out, _ = run(capsys, "train", "--data", str(ds_path),
                           "--out", str(model_path))
        assert code == 0
        model = load_model(model_path)
        assert model.W.shape == (2, 2)

        code, out, _ = run(capsys, "reach", "--model", str(model_path),
                           "--goal", "0.2,-0.1", "--n", "64", "--seed", "1")
        assert code == 0
        assert "predicted distance" in out

        # values led by a minus sign must not be mistaken for options
        code, out, _ = run(capsys, "reach", "--model", str(model_path),
                           "--goal", "-0.2,0.1", "--n", "16", "--seed", "1",
                           "--box", "-2:2")
        assert code == 0

    def test_reach_goal_of_wrong_length_is_data_error(self, tmp_path, capsys):
        data, model_path = tmp_path / "d.csv", tmp_path / "m.txt"
        assert run(capsys, "gen", "--plant", "linear", "--steps", "60",
                   "--out", str(data))[0] == 0
        (tmp_path / "d.tap").write_text((tmp_path / "d.tap").read_text() +
                                        "tapping fwd { input m @ -1 target v @ 0 }\n")
        assert run(capsys, "apply", "--space", str(tmp_path / "d.tap"), "--tapping",
                   "fwd", "--data", str(data), "--out", str(tmp_path / "ds.csv"))[0] == 0
        assert run(capsys, "train", "--data", str(tmp_path / "ds.csv"),
                   "--out", str(model_path))[0] == 0
        code, out, err = run(capsys, "reach", "--model", str(model_path),
                             "--goal", "1,2,3")
        assert (code, out) == (2, "")
        assert err == "error: goal must have 2 values, got 3\n"

    def test_apply_unknown_tapping(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "gen", "--plant", "linear", "--steps", "10", "--out", str(data))
        code, _, err = run(capsys, "apply", "--space", str(tmp_path / "d.tap"),
                           "--tapping", "nope", "--data", str(data),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "no tapping named" in err

    def test_blocking_flag(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "gen", "--plant", "linear", "--steps", "20", "--out", str(data))
        space_file = tmp_path / "d.tap"
        space_file.write_text(space_file.read_text() +
                              "\ntapping fwd { input m @ -1 target v @ 0 }\n")
        out_path = tmp_path / "ds.csv"
        code, _, _ = run(capsys, "apply", "--space", str(space_file),
                         "--tapping", "fwd", "--data", str(data),
                         "--out", str(out_path), "--blocking", "1.0")
        assert code == 0
        ds = load_dataset_csv(out_path)
        assert not ds.x_mask.any() and not ds.y_mask.any()


class TestBadInput:
    def gen(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "gen", "--plant", "linear", "--steps", "20", "--out", str(data))
        space_file = tmp_path / "d.tap"
        space_file.write_text(space_file.read_text() +
                              "\ntapping fwd { input m @ -1 target v @ 0 }\n")
        return data, space_file

    def test_nan_in_data_csv_is_data_error(self, tmp_path, capsys):
        data, space_file = self.gen(tmp_path, capsys)
        lines = data.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "apply", "--space", str(space_file),
                           "--tapping", "fwd", "--data", str(data),
                           "--out", str(tmp_path / "ds.csv"))
        assert code == 2
        assert err == f"error: {data}: line 6: non-finite value 'nan'\n"
        assert not (tmp_path / "ds.csv").exists()

    def test_episode_id_past_int64_is_data_error(self, tmp_path, capsys):
        data, space_file = self.gen(tmp_path, capsys)
        lines = data.read_text().splitlines()
        lines[5] = "99999999999999999999," + lines[5].split(",", 1)[1]
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "apply", "--space", str(space_file),
                           "--tapping", "fwd", "--data", str(data),
                           "--out", str(tmp_path / "ds.csv"))
        assert code == 2
        assert err == f"error: {data}: line 6: episode id out of range '99999999999999999999'\n"

    # "1" and zeros make a number, "x"s do not; a field this long sends the table to the row loop
    @pytest.mark.parametrize("big", ["1", "x"])
    def test_field_past_csv_limit_is_data_error(self, tmp_path, capsys, big):
        data, space_file = self.gen(tmp_path, capsys)
        lines = data.read_text().splitlines()
        cell = big.ljust(csv.field_size_limit() + 1, "0" if big == "1" else "x")
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + cell
        data.write_text("\n".join(lines) + "\n")
        limit = csv.field_size_limit()
        expected = f"error: {data}: line 6: field larger than field limit ({limit})\n"
        code, _, err = run(capsys, "apply", "--space", str(space_file),
                           "--tapping", "fwd", "--data", str(data),
                           "--out", str(tmp_path / "ds.csv"))
        assert (code, err) == (2, expected)
        code, _, err = run(capsys, "analyze", "--data", str(data), "--target", "v[0]")
        assert (code, err) == (2, expected)

    def test_line_after_multiline_row_is_data_error(self, tmp_path, capsys):
        data, space_file = self.gen(tmp_path, capsys)
        lines = data.read_text().splitlines()
        lines[1] = '"%s\n",%s' % tuple(lines[1].split(",", 1))  # episode id spans lines 2-3
        lines[5] = lines[5].rsplit(",", 1)[0] + ",x"
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "apply", "--space", str(space_file),
                           "--tapping", "fwd", "--data", str(data),
                           "--out", str(tmp_path / "ds.csv"))
        assert (code, err) == (2, f"error: {data}: line 7: non-numeric value 'x'\n")

    @pytest.mark.parametrize("mask_cell, value", [("x", None), (None, "nan")])
    def test_train_rejects_bad_dataset(self, tmp_path, capsys, mask_cell, value):
        data, space_file = self.gen(tmp_path, capsys)
        ds_path = tmp_path / "ds.csv"
        run(capsys, "apply", "--space", str(space_file), "--tapping", "fwd",
            "--data", str(data), "--out", str(ds_path))
        target = tmp_path / "ds.mask.csv" if mask_cell else ds_path
        lines = target.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + (mask_cell or value)
        target.write_text("\n".join(lines) + "\n")
        for ridge in ("0", "1e-6"):
            code, _, err = run(capsys, "train", "--data", str(ds_path), "--ridge", ridge,
                               "--out", str(tmp_path / "m.txt"))
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("header, message", [
        ("t,episode,x:m[0]@-1,y:v[0]@0", "expected dataset header starting episode,t"),
        ("episode,t,x:m[0]@-1,z:v[0]@0", "malformed dataset column 'z:v[0]@0'"),
        ("episode,t,y:v[0]@0,x:m[0]@-1", "x column 'x:m[0]@-1' after the y block"),
    ])
    def test_train_rejects_bad_dataset_header(self, tmp_path, capsys, header, message):
        ds_path = tmp_path / "ds.csv"
        ds_path.write_text(header + "\n0,1,1,2\n0,2,2,3\n")
        code, _, err = run(capsys, "train", "--data", str(ds_path),
                           "--out", str(tmp_path / "m.txt"))
        assert (code, err) == (2, f"error: {ds_path}: {message}\n")
        assert not (tmp_path / "m.txt").exists()

    def test_train_tiny_ridge_on_collinear_inputs(self, tmp_path, capsys):
        # m[1] = 2 m[0], so ridge 1e-300 leaves the normal equations singular.
        space = smcore.define_space([("motor", "m", 2), ("extero", "v", 1)], name="s")
        data = np.array([[1.0, 2, 3, 4], [2, 4, 6, 8], [0, 1, 2, 3]])
        matrix = smcore.SensorimotorMatrix(space, [smcore.Episode(0, data)])
        ds_path = tmp_path / "ds.csv"
        save_dataset_csv(apply(matrix, tapdsl.forward(space, "m", "v")), ds_path)
        code, _, err = run(capsys, "train", "--data", str(ds_path), "--ridge", "1e-300",
                           "--out", str(tmp_path / "m.txt"))
        assert (code, err) == (2, "error: singular normal equations; ridge 1e-300 is too "
                                  "small to regularise them\n")
        assert not (tmp_path / "m.txt").exists()


class TestValidate:
    def test_gallery_listing(self, tmp_path, capsys):
        spec = tmp_path / "g.tap"
        spec.write_text(GALLERY)
        code, out, _ = run(capsys, "validate", str(spec))
        assert code == 0
        assert "fwd: causal (span 2, buffer delay 0, 2 taps)" in out
        assert "future: acausal" in out  # classification, not failure

    def test_space_with_no_tappings(self, tmp_path, capsys):
        spec = tmp_path / "s.tap"
        spec.write_text("space s { motor m: 2 }\n")
        assert run(capsys, "validate", str(spec)) == (0, f"{spec}: no tappings\n", "")

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "g.tap"
        spec.write_text("space s { motor m: 2 }\ntapping t { input m @ }")
        code, _, err = run(capsys, "validate", str(spec))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text, message", [
        ("space s {\r\n\tmotor m: 1 $\r\n}\r\n", "line 2, col 13: unexpected character '$'"),
        ("space s { motor m: 2 }\ntapping t {\n  input m[-1] @ -1\n  target m @ 0\n}\n",
         "line 3, col 9: negative channel index in (-1,)"),
        ("space s { motor m: 2 }\ntapping t { }\n", "line 2, col 9: tapping 't' has no taps"),
    ])
    def test_refusal_is_one_error_line(self, tmp_path, capsys, text, message):
        spec = tmp_path / "bad.tap"
        spec.write_bytes(text.encode())
        code, out, err = run(capsys, "validate", str(spec))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestTd:
    def test_td0_report(self, capsys):
        code, out, _ = run(capsys, "td", "--states", "5", "--gamma", "0.9",
                           "--alpha", "0.1", "--episodes", "50", "--seed", "2")
        assert code == 0
        assert "dual path check (tapped == direct): True" in out

    def test_q_report(self, capsys):
        code, out, _ = run(capsys, "td", "--algo", "q", "--episodes", "2000",
                           "--seed", "5")
        assert code == 0
        assert "policies match: True" in out

    def test_sarsa_report(self, capsys):
        code, out, _ = run(capsys, "td", "--algo", "sarsa", "--episodes", "2000",
                           "--seed", "5")
        assert code == 0
        assert "policies match: True" in out

    def test_td0_rolls_out_once(self, capsys, monkeypatch):
        calls = []
        real = rlbridge._packed_rollouts
        monkeypatch.setattr(rlbridge, "_packed_rollouts",
                            lambda *a: calls.append(a[1:]) or real(*a))
        code, out, _ = run(capsys, "td", "--episodes", "300", "--seed", "3")
        assert code == 0
        assert calls == [(300, 3)]
        monkeypatch.undo()
        env = rlbridge.ChainEnv(5, 0.9)
        values = out.splitlines()[1]
        for runner in (rlbridge.tapped_td_run, rlbridge.direct_td_run):
            assert values == "  " + " ".join(f"{v:.6f}" for v in runner(env, 300, 3).v)
        assert "dual path check (tapped == direct): True" in out

    @pytest.mark.parametrize("algo", ["td0", "q", "sarsa"])
    def test_negative_episodes_is_data_error(self, capsys, algo):
        code, out, err = run(capsys, "td", "--algo", algo, "--episodes", "-1")
        assert (code, out) == (2, "")
        assert err == "error: episodes must be >= 0, got -1\n"


class TestAnalyze:
    def test_table_and_emitted_tapping(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "gen", "--plant", "planted", "--steps", "3000", "--lag", "3",
            "--seed", "5", "--out", str(data), "--noise", "0.1")
        out_tap = tmp_path / "eff.tap"
        code, out, _ = run(capsys, "analyze", "--data", str(data),
                           "--target", "y[0]", "--max-lag", "5",
                           "--emit-tapping", str(out_tap))
        assert code == 0
        assert "strongest dependency: x[0]@-3" in out
        text = out_tap.read_text()
        assert "input x[0] @ -3" in text
        assert "target y[0] @ 0" in text

    def test_emitted_tapping_reuses_the_table_scans(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        run(capsys, "gen", "--plant", "planted", "--steps", "600", "--lag", "2",
            "--seed", "4", "--out", str(data), "--noise", "0.1")
        calls = []
        real = analysis.lag_scan
        monkeypatch.setattr(analysis, "lag_scan",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        out_tap = tmp_path / "eff.tap"
        code, _, _ = run(capsys, "analyze", "--data", str(data), "--target", "y[0]",
                         "--max-lag", "4", "--threshold", "0.3",
                         "--emit-tapping", str(out_tap))
        assert code == 0
        space = smcore.infer_space_from_csv(data)
        assert calls == space.channel_refs()  # one scan per channel
        monkeypatch.undo()
        matrix = smcore.load_csv(space, data)
        expected = analysis.effective_tapping(matrix, ChannelRef("y", 0), 4,
                                              threshold_frac=0.3)
        assert out_tap.read_text() == tapdsl.to_text(space, [expected])

    def test_negative_max_lag_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "gen", "--plant", "arm", "--steps", "50", "--out", str(data))
        code, out, err = run(capsys, "analyze", "--data", str(data), "--target", "vision[0]",
                             "--max-lag", "-1")
        assert (code, out, err) == (2, "", "error: max_lag must be >= 0, got -1\n")

    @pytest.mark.parametrize("emit", [False, True])
    def test_target_only_data_is_data_error(self, tmp_path, capsys, emit):
        data, out_tap = tmp_path / "d.csv", tmp_path / "eff.tap"
        data.write_text("episode,extero:y[0]\n0,0.5\n0,1.5\n0,0.25\n0,2\n")
        argv = ["--emit-tapping", str(out_tap)] if emit else []
        code, out, err = run(capsys, "analyze", "--data", str(data), "--target", "y[0]",
                             "--max-lag", "0", *argv)
        message = "nothing to scan: the target's own lag-0 cell is the only candidate"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_tap.exists()

    def test_no_dependency_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        header = "episode,motor:x[0],extero:y[0]\n"
        rows = "".join(f"0,0,0\n" for _ in range(50))
        data.write_text(header + rows)
        code, out, err = run(capsys, "analyze", "--data", str(data),
                             "--target", "y[0]", "--max-lag", "2",
                             "--emit-tapping", str(tmp_path / "x.tap"))
        assert (code, out) == (2, "")
        assert "no dependency" in err


class TestRender:
    def test_render_to_stdout(self, tmp_path, capsys):
        spec = tmp_path / "g.tap"
        spec.write_text(GALLERY)
        code, out, _ = run(capsys, "render", "--spec", str(spec),
                           "--tapping", "fwd")
        assert code == 0
        assert out.startswith("digraph fwd {")

    def test_render_window_error(self, tmp_path, capsys):
        spec = tmp_path / "g.tap"
        spec.write_text(GALLERY)
        code, _, err = run(capsys, "render", "--spec", str(spec),
                           "--tapping", "fwd", "--lag-min", "0")
        assert code == 2
        assert "excludes taps" in err

    def test_render_one_ended_window(self, tmp_path, capsys):
        spec = tmp_path / "g.tap"
        spec.write_text(GALLERY)
        code, out, _ = run(capsys, "render", "--spec", str(spec),
                           "--tapping", "fwd", "--lag-max", "2")
        assert code == 0
        assert [f"@{lag}\"" in out for lag in range(-3, 4)] == [
            False, False, True, True, True, True, False]


class TestDemo:
    def test_small_override_reports_paper_count(self, capsys):
        code, out, _ = run(capsys, "demo", "nao", "--seed", "0", "--steps", "5",
                           "--goals", "4", "--n", "16")
        assert code == 0
        assert "4 training rows" in out

    def test_same_seed_identical_reports(self):
        a = demo_nao(seed=3, steps=40, goals=8, candidates=32)
        b = demo_nao(seed=3, steps=40, goals=8, candidates=32)
        assert a == b

    @pytest.mark.parametrize("seed, goals, candidates", [
        (0, 13, 24), (1, 7, 1), (2, 20, 300), (3, 5, 256)])
    def test_report_matches_per_goal_reference(self, seed, goals, candidates):
        # 20 goals of 300 candidates are two blocks of 13 and 7 goals.
        kwargs = dict(seed=seed, steps=60, goals=goals, candidates=candidates)
        assert demo_nao(**kwargs) == reference_demo_nao(**kwargs)

    def test_seed_split_is_stable(self):
        assert split_seed(0, 2) == split_seed(0, 2)
        assert split_seed(0, 2) != split_seed(1, 2)


class TestQuiet:
    def test_quiet_suppresses_output(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        code, out, _ = run(capsys, "gen", "--plant", "linear", "--steps", "5",
                           "--out", str(data), "--quiet")
        assert code == 0
        assert out == ""

    def test_seeded_outputs_bit_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen", "--plant", "arm", "--steps", "30", "--seed", "9",
            "--out", str(a))
        run(capsys, "gen", "--plant", "arm", "--steps", "30", "--seed", "9",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_blocking_outputs_bit_deterministic(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "gen", "--plant", "linear", "--steps", "15", "--episodes",
            "3", "--out", str(data))
        space_file = tmp_path / "d.tap"
        space_file.write_text(space_file.read_text() +
                              "\ntapping fwd { input m @ -1 target v @ 0 }\n")
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            run(capsys, "apply", "--space", str(space_file), "--tapping", "fwd",
                "--data", str(data), "--out", str(out),
                "--blocking", "0.5", "--seed", "4")
            outs.append(out.read_bytes() + (tmp_path / name.replace(".csv", ".mask.csv")).read_bytes())
        assert outs[0] == outs[1]


class TestPipelineFiles:
    def test_kernel_reads_them_as_the_row_loop_does(self, tmp_path, capsys, monkeypatch):
        # The benchmark's pipeline inputs: gen, then apply of the forward tapping.
        data, ds, huge = tmp_path / "data.csv", tmp_path / "ds.csv", tmp_path / "huge.csv"
        run(capsys, "gen", "--plant", "arm", "--episodes", "5", "--steps", "2000",
            "--seed", "1", "--out", str(data))
        # and a file whose values the writer gives in exponent form, 1e+17 and up
        run(capsys, "gen", "--plant", "linear", "--steps", "200", "--box=-1e20:1e20",
            "--out", str(huge))
        assert b"e+" in huge.read_bytes()
        space_file = tmp_path / "data.tap"
        space_file.write_text(space_file.read_text() +
                              "tapping fwd {\n  input m @ -1\n  target vision @ 0\n}\n")
        code, _, _ = run(capsys, "apply", "--space", str(space_file), "--tapping", "fwd",
                         "--data", str(data), "--out", str(ds))
        assert code == 0
        tables = [(data, 1, False), (ds, 2, False), (tmp_path / "ds.mask.csv", 2, True),
                  (huge, 1, False)]
        want = [reference_read_table(path, n_keys, len, mask) for path, n_keys, mask in tables]

        def row_loop(*args):
            raise AssertionError("a pipeline file fell back to the csv row loop")

        monkeypatch.setattr(csvtext, "_read_rows", row_loop)
        for (path, n_keys, mask), (width, keys, cells) in zip(tables, want):
            got = csvtext.read(path, n_keys, len, mask)
            assert got[0] == width
            assert (got[1].dtype, got[1].shape, got[1].tobytes()) == (keys.dtype, keys.shape, keys.tobytes())
            assert (got[2].dtype, got[2].shape, got[2].tobytes()) == (cells.dtype, cells.shape, cells.tobytes())

    def test_utf8_under_an_ascii_locale(self, tmp_path):
        """Table, space and model files are UTF-8 whatever the locale's
        encoding: here ASCII, with locale coercion and UTF-8 mode off."""
        script = r"""if True:
            import locale
            import numpy as np
            from tapkit import SensorimotorMatrix, define_space, save_csv, to_text
            from tapkit.cli import main
            from tapkit.smcore import Episode
            assert locale.getpreferredencoding(False) == "ANSI_X3.4-1968"
            space = define_space([("motor", "m", 1), ("extero", "v\u00e9", 1)], name="s")
            save_csv(SensorimotorMatrix(space, [Episode(0, np.arange(8.0).reshape(2, 4))]),
                     "d.csv")
            with open("d.tap", "w", encoding="utf-8") as fh:
                fh.write(to_text(space) + "tapping f { input m @ -1 target v\u00e9 @ 0 }\n")
            assert main(["apply", "--space", "d.tap", "--tapping", "f", "--data", "d.csv",
                         "--out", "ds.csv", "--quiet"]) == 0
            assert main(["train", "--data", "ds.csv", "--out", "m.txt", "--quiet"]) == 0
            assert main(["reach", "--model", "m.txt", "--goal", "1", "--quiet"]) == 0
            assert main(["analyze", "--data", "d.csv", "--target", "v\u00e9[0]",
                         "--max-lag", "1", "--bins", "2", "--quiet"]) == 0
        """
        src = os.path.join(os.path.dirname(tapdsl.__file__), "..")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "d.csv").read_bytes() == (
            "episode,motor:m[0],extero:v\u00e9[0]\r\n0,0,4\r\n0,1,5\r\n0,2,6\r\n0,3,7\r\n"
            .encode("utf-8"))
        assert "y:v\u00e9[0]@0".encode("utf-8") in (tmp_path / "ds.csv").read_bytes()


    def test_console_output_is_utf8_under_an_ascii_locale(self, tmp_path):
        """The command line prints UTF-8, as it writes files, whatever the
        locale's encoding: a table's non-ASCII group name reaches stdout."""
        (tmp_path / "d.csv").write_bytes(
            "episode,motor:m[0],extero:v\u00e9[0]\r\n0,0,4\r\n0,1,5\r\n0,2,6\r\n0,3,7\r\n"
            .encode("utf-8"))
        src = os.path.join(os.path.dirname(tapdsl.__file__), "..")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "tapkit.cli", "analyze",
                               "--data", "d.csv", "--target", "m[0]", "--max-lag", "1",
                               "--bins", "2"], cwd=tmp_path, env=env, capture_output=True,
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert "v\u00e9[0]".encode("utf-8") in done.stdout.splitlines()[1]

class TestParserReuse:
    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_gen_then_td_share_no_arguments(self, tmp_path, capsys):
        before = run(capsys, "td", "--episodes", "20")
        code, out, _ = run(capsys, "gen", "--plant", "linear", "--steps", "5", "--seed", "7",
                           "--box", "0:2", "--quiet", "--out", str(tmp_path / "d.csv"))
        assert (code, out) == (0, "")
        assert run(capsys, "td", "--episodes", "20") == before
        assert before[0] == 0 and before[1]
        for argv in (["td"], ["gen", "--plant", "arm", "--steps", "3", "--out", "x.csv"],
                     ["reach", "--model", "m.txt", "--goal", "1"]):
            assert vars(_parser().parse_args(argv)) == vars(build_parser().parse_args(argv))

    def test_usage_errors_still_exit_one(self, capsys):
        assert run(capsys, "td", "--episodes", "1")[0] == 0
        for _ in range(2):
            code, out, err = run(capsys, "td", "--states", "x")
            assert (code, out) == (1, "")
            assert err.endswith("error: argument --states: invalid int value: 'x'\n")
            code, _, err = run(capsys)
            assert (code, err.splitlines()[-1]) == (1, "error: missing subcommand")

    def test_a_command_rebound_after_the_first_call_is_run(self, capsys, monkeypatch):
        assert run(capsys, "td", "--episodes", "1")[0] == 0
        monkeypatch.setattr(cli, "cmd_td", lambda args: print("stub", args.episodes) or 0)
        assert run(capsys, "td", "--episodes", "3") == (0, "stub 3\n", "")


BOX = "command box needs finite bounds and a width float64 can hold"
SEED = "seed must be >= 0, got -1"
OVERFLOW = "plant response is not finite; the command box or noise_std is too large for float64"


class TestRefusals:
    @pytest.mark.parametrize("argv, message", [
        (("--plant", "arm", "--box", "1:-1"), "command box is empty (high <= low)"),
        (("--plant", "linear", "--dim", "0"), "linear plant dimension must be >= 1, got 0"),
        (("--plant", "arm", "--noise", "-1"), "noise_std must be >= 0, got -1.0"),
        (("--plant", "arm", "--episodes", "-1"), "episodes must be >= 0, got -1"),
        (("--plant", "arm", "--box", "nan:1"), BOX),
        (("--plant", "arm", "--box=-1e308:1e308"), BOX),
        (("--plant", "arm", "--noise", "nan"), "noise_std must be finite, got nan"),
        (("--plant", "arm", "--noise", "inf"), "noise_std must be finite, got inf"),
        (("--plant", "arm", "--seed", "-1"), SEED),
        # a finite box and noise whose response overflows, in the noise and in A @ c
        (("--plant", "linear", "--steps", "50", "--noise", "1e308"), OVERFLOW),
        (("--plant", "linear", "--steps", "50", "--dim", "10", "--box=-8e307:8e307"), OVERFLOW),
    ])
    def test_gen_refusal(self, tmp_path, capsys, argv, message):
        code, out, err = run(capsys, "gen", "--steps", "5", "--out", str(tmp_path / "d.csv"),
                             *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (("--goal", "nan,0"), "goal values must be finite"),
        (("--goal", "1,2", "--box", "nan:1"), BOX),
        (("--goal", "1,2", "--box=-1e308:1e308"), BOX),
        (("--goal", "1,2", "--seed", "-1"), SEED),
    ])
    def test_reach_refusal(self, tmp_path, capsys, argv, message):
        model = tmp_path / "m.txt"
        save_model(LinearModel(np.eye(2), np.zeros(2)), model)
        code, out, err = run(capsys, "reach", "--model", str(model), *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("weights", ["nan 0\n0 1", "1 0\n0 inf"])
    def test_reach_non_finite_model_refusal(self, tmp_path, capsys, weights):
        model = tmp_path / "m.txt"
        model.write_text(f"2 2 0 identity\n{weights}\n0 0\n")
        code, out, err = run(capsys, "reach", "--model", str(model), "--goal", "0,0")
        assert (code, out, err) == (2, "", f"error: {model}: non-finite model value (nan or inf)\n")

    @pytest.mark.parametrize("algo, epsilon", [("q", "5"), ("sarsa", "nan"), ("sarsa", "-0.5"),
                                               ("td0", "7")])
    def test_td_epsilon_refusal(self, capsys, algo, epsilon):
        code, out, err = run(capsys, "td", "--algo", algo, "--epsilon", epsilon)
        assert (code, out) == (2, "")
        assert err == f"error: epsilon must be in [0, 1], got {float(epsilon)}\n"

    @pytest.mark.parametrize("algo", ["td0", "q", "sarsa"])
    def test_td_seed_refusal(self, capsys, algo):
        assert run(capsys, "td", "--algo", algo, "--seed", "-1") == (2, "", f"error: {SEED}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--seed", "-1"), SEED),
        (("--goals", "0"), "goals must be >= 1, got 0"),
        (("--goals", "-1"), "goals must be >= 1, got -1"),
        (("--n", "0"), "n must be >= 1, got 0"),
        (("--n", "-3", "--steps", "200000"), "n must be >= 1, got -3"),
    ])
    def test_demo_refusal(self, capsys, monkeypatch, argv, message):
        # Refused before any work: nothing is generated.
        monkeypatch.setattr(cli.sim, "generate", None)
        assert run(capsys, "demo", "nao", *argv) == (2, "", f"error: {message}\n")

    def test_blocking_seed_refusal(self, tmp_path, capsys):
        data, spec = tmp_path / "d.csv", tmp_path / "d.tap"
        run(capsys, "gen", "--plant", "linear", "--steps", "10", "--out", str(data))
        with open(spec, "a") as fh:
            fh.write("tapping fwd { input m @ -1 target v @ 0 }\n")
        code, out, err = run(capsys, "apply", "--space", str(spec), "--tapping", "fwd",
                             "--data", str(data), "--out", str(tmp_path / "ds.csv"),
                             "--blocking", "0.5", "--seed", "-1")
        assert (code, out, err) == (2, "", f"error: {SEED}\n")
        assert not (tmp_path / "ds.csv").exists()

    def test_blocking_that_blocks_no_tap_refused(self, tmp_path, capsys):
        # 0.25 of fwd's two taps is floor(0.5) = 0 taps: refused, not a silent plain apply
        data, spec = tmp_path / "d.csv", tmp_path / "d.tap"
        run(capsys, "gen", "--plant", "linear", "--steps", "10", "--out", str(data))
        with open(spec, "a") as fh:
            fh.write("tapping fwd { input m @ -1 target v @ 0 }\n")
        code, out, err = run(capsys, "apply", "--space", str(spec), "--tapping", "fwd",
                             "--data", str(data), "--out", str(tmp_path / "ds.csv"),
                             "--blocking", "0.25")
        assert (code, out, err) == (2, "", "error: proportion 0.25 blocks no tap of 2: "
                                           "floor(0.25 * 2) = 0\n")
        assert not (tmp_path / "ds.csv").exists()

    @pytest.mark.parametrize("ridge", ["nan", "inf"])
    def test_train_ridge_refusal(self, tmp_path, capsys, ridge):
        ds_path = tmp_path / "ds.csv"
        ds_path.write_text("episode,t,x:m[0]@-1,y:v[0]@0\n0,1,1,2\n0,2,2,3\n")
        code, out, err = run(capsys, "train", "--data", str(ds_path), "--ridge", ridge,
                             "--out", str(tmp_path / "m.txt"))
        assert (code, out, err) == (2, "", f"error: ridge must be finite, got {float(ridge)}\n")
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("threshold", ["0", "1.5", "nan"])
    def test_analyze_threshold_refused_before_any_output(self, tmp_path, capsys, threshold):
        data, out_tap = tmp_path / "d.csv", tmp_path / "eff.tap"
        run(capsys, "gen", "--plant", "planted", "--steps", "200", "--out", str(data))
        code, out, err = run(capsys, "analyze", "--data", str(data), "--target", "y[0]",
                             "--threshold", threshold, "--emit-tapping", str(out_tap))
        message = f"threshold_frac must be in (0, 1], got {float(threshold)}"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_tap.exists()

    @pytest.mark.parametrize("threshold", ["0", "2", "nan", "inf"])
    def test_analyze_threshold_refused_without_emit_tapping(self, tmp_path, capsys, threshold):
        # --threshold acts only on the emitted tapping, but a bad one is still
        # refused before the table is printed.
        data = tmp_path / "d.csv"
        run(capsys, "gen", "--plant", "planted", "--steps", "200", "--out", str(data))
        code, out, err = run(capsys, "analyze", "--data", str(data), "--target", "y[0]",
                             "--threshold", threshold)
        message = f"threshold_frac must be in (0, 1], got {float(threshold)}"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["apply", "render", "analyze"])
    def test_no_space_block(self, tmp_path, capsys, command):
        spec = tmp_path / "t.tap"
        spec.write_text("# a file with no space block and no tappings\n")
        argv = {"apply": ["--space", str(spec), "--tapping", "fwd", "--data", "d.csv",
                          "--out", "ds.csv"],
                "render": ["--spec", str(spec), "--tapping", "fwd"],
                "analyze": ["--space", str(spec), "--data", "d.csv", "--target", "v[0]"]}
        code, out, err = run(capsys, command, *argv[command])
        assert (code, out, err) == (2, "", f"error: {spec}: no space block found\n")

    def test_unparsable_goal(self, tmp_path, capsys):
        data, model = tmp_path / "d.csv", tmp_path / "m.txt"
        assert run(capsys, "gen", "--plant", "linear", "--steps", "30", "--out", str(data))[0] == 0
        with open(tmp_path / "d.tap", "a") as fh:
            fh.write("tapping fwd { input m @ -1 target v @ 0 }\n")
        assert run(capsys, "apply", "--space", str(tmp_path / "d.tap"), "--tapping", "fwd",
                   "--data", str(data), "--out", str(tmp_path / "ds.csv"))[0] == 0
        assert run(capsys, "train", "--data", str(tmp_path / "ds.csv"),
                   "--out", str(model))[0] == 0
        code, out, err = run(capsys, "reach", "--model", str(model), "--goal", "1,x")
        message = "cannot parse goal '1,x'; expected comma-separated numbers"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        with pytest.raises(TapkitError) as exc:
            _parse_floats("1,x", "goal")
        assert str(exc.value) == message

    @pytest.mark.parametrize("command, box, message", [
        ("gen", "1", "expected LO:HI, got '1'"),
        ("gen", "0:1:2", "expected LO:HI, got '0:1:2'"),
        ("reach", "a:1", "expected LO:HI numbers, got 'a:1'"),
    ])
    def test_malformed_box_is_a_usage_error(self, capsys, command, box, message):
        argv = {"gen": ["--plant", "arm", "--steps", "5", "--out", "d.csv"],
                "reach": ["--model", "m.txt", "--goal", "1,2"]}[command]
        code, out, err = run(capsys, command, *argv, "--box", box)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"error: argument --box: {message}"
        with pytest.raises(argparse.ArgumentTypeError) as exc:
            _box(box)
        assert str(exc.value) == message

    def test_mi_refuses_a_range_float64_cannot_hold(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rows = [f"0,{x!r},{i % 3}" for i, x in enumerate([-1e308, 1e308, 0.0, 1.0] * 5)]
        data.write_text("\n".join(["episode,motor:x[0],extero:y[0]"] + rows) + "\n")
        code, out, err = run(capsys, "analyze", "--data", str(data), "--target", "y[0]",
                             "--max-lag", "1")
        message = "sample range [-1e+308, 1e+308] is too wide for float64"
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestNotUtf8:
    """A byte that is not UTF-8 is refused with the line it is on: in the
    first line, in the first 8 KB (which the text reader decodes along with
    the header), or past the table reader's first 128 KB piece."""

    TRAIN = ("train", "--data", "ds.csv", "--out", "m.txt")

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """A data table, its space file, a dataset, its mask and a model, each
        a valid file of over 140 000 bytes, by name."""
        out = tmp_path_factory.mktemp("valid")
        data, space_file, ds = out / "data.csv", out / "data.tap", out / "ds.csv"
        assert main(["gen", "--plant", "linear", "--steps", "10000", "--out", str(data),
                     "--quiet"]) == 0
        space_file.write_text(space_file.read_text() + "# a comment line\n" * 9000
                              + "tapping fwd { input m @ -1 target v @ 0 }\n")
        assert main(["apply", "--space", str(space_file), "--tapping", "fwd", "--data", str(data),
                     "--out", str(ds), "--quiet"]) == 0
        weights = np.random.default_rng(0).random((2, 5000))
        save_model(LinearModel(weights, np.zeros(2)), out / "model.txt")
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(files) == ["data.csv", "data.tap", "ds.csv", "ds.mask.csv", "model.txt"]
        assert all(len(text) > 140_000 for text in files.values())
        return files

    @pytest.mark.parametrize("at", [1, 5_000, 140_000])
    @pytest.mark.parametrize("name, read, argv", [
        ("data.csv", lambda: smcore.load_csv(tapdsl.parse_file("data.tap").space, "data.csv"),
         ("analyze", "--data", "data.csv", "--target", "v[0]")),
        ("ds.csv", lambda: load_dataset_csv("ds.csv"), TRAIN),
        ("ds.mask.csv", lambda: load_dataset_csv("ds.csv"), TRAIN),
        ("data.tap", lambda: tapdsl.parse_file("data.tap"), ("validate", "data.tap")),
        ("model.txt", lambda: load_model("model.txt"),
         ("reach", "--model", "model.txt", "--goal", "0,0")),
    ], ids=["data", "dataset", "mask", "tap", "model"])
    def test_refused_at_its_line(self, tmp_path, capsys, monkeypatch, files, name, read, argv,
                                 at):
        monkeypatch.chdir(tmp_path)
        for other, text in files.items():
            (tmp_path / other).write_bytes(text)
        text = bytearray(files[name])
        while text[at] in b"\r\n":
            at += 1
        text[at] = 0xFF
        (tmp_path / name).write_bytes(text)
        lineno = text.count(b"\n", 0, at) + 1
        message = f"{name}: line {lineno}: not UTF-8 text"
        with pytest.raises(TapkitError) as exc:
            read()
        assert str(exc.value) == message
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "m.txt").exists()


# Every numeric option of every subcommand at the edges of float64 (floats) or
# at small counts, so that no case allocates more than a few MB.
EDGE_FLOATS = ("nan", "inf", "-inf", "1e308", "1e200", "1e-320", "0", "-0", "-1")
EDGE_COUNTS = ("-1", "0", "1", "2")
# A case name, its command (inputs under {inp}, outputs under {out}), its float
# options and its count options. The swept option comes last, so it overrides
# one the command gives.
SWEEP = [
    ("gen linear", "gen --plant linear --steps 5 --out {out}/g.csv", ("--noise", "--box"),
     ("--episodes", "--steps", "--seed", "--dim", "--delay")),
    ("gen arm", "gen --plant arm --steps 5 --out {out}/g.csv", (), ("--delay",)),
    ("gen planted", "gen --plant planted --steps 8 --out {out}/g.csv", ("--noise",),
     ("--delay",)),
    ("apply", "apply --space {inp}/data.tap --tapping fwd --data {inp}/data.csv "
     "--out {out}/ds.csv", ("--blocking",), ("--seed",)),
    ("train", "train --data {inp}/ds.csv --features quadratic --out {out}/m.txt", ("--ridge",),
     ()),
    ("reach", "reach --model {inp}/model.txt --goal 1.5,0.5", ("--goal", "--box"),
     ("--n", "--seed")),
    *((f"td {algo}", f"td --algo {algo} --episodes 5", ("--gamma", "--alpha", "--epsilon"),
       ("--states", "--episodes", "--seed")) for algo in ("td0", "q", "sarsa")),
    ("analyze", "analyze --data {inp}/data.csv --target vision[0] --max-lag 2 "
     "--emit-tapping {out}/eff.tap", ("--threshold",), ("--max-lag", "--bins")),
    ("render", "render --spec {inp}/data.tap --tapping fwd --out {out}/f.dot", (),
     ("--lag-min", "--lag-max")),
    ("demo", "demo nao --steps 60 --goals 3 --n 4", (), ("--seed", "--steps", "--goals", "--n")),
]


def _float_args(option, value):
    if option == "--box":
        return [f"--box={value}:1", f"--box=-1:{value}"]
    if option == "--goal":
        return [f"--goal={value},0.5"]
    return [f"{option}={value}"]


SWEEP_CASES = [
    pytest.param(command, arg, id=f"{name} {arg}")
    for name, command, floats, counts in SWEEP
    for arg in ([a for option in floats for value in EDGE_FLOATS
                 for a in _float_args(option, value)]
                + [f"{option}={value}" for option in counts for value in EDGE_COUNTS])
]


class TestEdgeValueSweep:
    """No value of a numeric option ends in a traceback or an escaped
    warning: each run exits 0, 1 (usage) or 2, and a refusal is one
    ``error:`` line with nothing on stdout and no file written."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A data table, its space file with tapping fwd, a dataset and a
        quadratic model."""
        inp = tmp_path_factory.mktemp("inputs")
        assert main(f"gen --plant arm --steps 60 --out {inp}/data.csv --quiet".split()) == 0
        with open(inp / "data.tap", "a") as fh:
            fh.write("tapping fwd { input m @ -1 target vision @ 0 }\n")
        assert main(f"apply --space {inp}/data.tap --tapping fwd --data {inp}/data.csv "
                    f"--out {inp}/ds.csv --quiet".split()) == 0
        assert main(f"train --data {inp}/ds.csv --features quadratic --out {inp}/model.txt "
                    "--quiet".split()) == 0
        return inp

    @pytest.mark.parametrize("command, arg", SWEEP_CASES)
    def test_exit_status(self, tmp_path, capsys, inputs, command, arg):
        argv = command.format(inp=inputs, out=tmp_path).split() + [arg]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert list(tmp_path.iterdir()) == []

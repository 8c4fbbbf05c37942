import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapkit import ParseError, Tap, Tapping, TapkitError, define_space, validate
from tapkit import tapdsl
from tapkit.tapdsl import (
    ACAUSAL,
    BUFFERED,
    CAUSAL,
    ROLE_INPUT,
    ROLE_TARGET,
    parse,
    to_text,
)

from oracles import random_space, random_tapping, reference_position


@pytest.fixture
def space():
    return define_space(
        [("motor", "m", 4), ("proprio", "q", 3), ("extero", "vision", 2)],
        name="nao",
    )


class TestTapInvariants:
    def test_channels_normalized_ascending(self):
        assert Tap("m", -1, ROLE_INPUT, channels=(2, 0)).channels == (0, 2)

    @pytest.mark.parametrize("lag", [1.7, -0.5, float("nan"), float("inf"), "2", None])
    def test_non_integral_lag_rejected(self, lag):
        with pytest.raises(TapkitError, match=f"lag must be an integer, got {lag}"):
            Tap("m", lag, ROLE_INPUT)

    @pytest.mark.parametrize("lag", [-2, np.int64(-2), np.int32(-2), -2.0, np.float64(-2.0)])
    def test_integral_lag_accepted_as_int(self, lag):
        tap = Tap("m", lag, ROLE_INPUT)
        assert tap.lag == -2 and type(tap.lag) is int

    def test_drop_p_bounds(self):
        with pytest.raises(TapkitError):
            Tap("m", 0, ROLE_INPUT, drop_p=1.5)

    @pytest.mark.parametrize("drop_p", [1.5, -0.1, float("nan")])
    def test_drop_p_refusal_text(self, drop_p):
        with pytest.raises(TapkitError) as exc:
            Tap("m", 0, ROLE_INPUT, drop_p=drop_p)
        assert str(exc.value) == f"drop_p must be in [0, 1], got {drop_p}"

    def test_duplicate_channels_rejected(self):
        with pytest.raises(TapkitError):
            Tap("m", 0, ROLE_INPUT, channels=(1, 1))

    def test_needs_both_roles(self, space):
        with pytest.raises(TapkitError, match="no target taps"):
            Tapping("t", space, (Tap("m", -1, ROLE_INPUT),))
        with pytest.raises(TapkitError, match="no input taps"):
            Tapping("t", space, (Tap("m", -1, ROLE_TARGET),))

    def test_duplicate_coordinate_rejected(self, space):
        with pytest.raises(TapkitError, match="duplicate"):
            Tapping("t", space, (
                Tap("m", -1, ROLE_INPUT, channels=(0, 1)),
                Tap("m", -1, ROLE_INPUT, channels=(1, 2)),
                Tap("vision", 0, ROLE_TARGET),
            ))

    def test_same_coordinate_both_roles_allowed(self, space):
        t = Tapping("ae", space, (Tap("vision", 0, ROLE_INPUT),
                                  Tap("vision", 0, ROLE_TARGET)))
        assert t.span == 1

    def test_channel_out_of_range(self, space):
        for ch in (2, 9):
            with pytest.raises(TapkitError) as exc:
                Tapping("t", space, (Tap("vision", -1, ROLE_INPUT, channels=(ch,)),
                                     Tap("vision", 0, ROLE_TARGET)))
            assert str(exc.value) == f"channel index {ch} out of range for group 'vision' (dim 2)"

    # The grammar cannot produce these, so only the data model reaches them.
    @pytest.mark.parametrize("call, message", [
        (lambda s: Tap("m", -1, "output"), "tap role must be input or target, got 'output'"),
        (lambda s: Tap("m", -1, ROLE_INPUT, channels=()), "explicit channel list may not be empty"),
        (lambda s: Tapping("1x", s, (Tap("m", -1, ROLE_INPUT), Tap("vision", 0, ROLE_TARGET))),
         "tapping name '1x' is not an identifier"),
    ])
    def test_refusal_text(self, space, call, message):
        with pytest.raises(TapkitError) as exc:
            call(space)
        assert str(exc.value) == message


def gallery_text(newline="\n", indent="  "):
    """Three gallery tappings as .tap text with comments, in the given line
    end and indent."""
    space = define_space([("motor", "m", 4), ("proprio", "q", 4), ("extero", "vision", 2),
                          ("intero", "i", 1)], name="nao4")
    text = "# template gallery\n" + to_text(space, [
        tapdsl.forward(space, "m", "vision"),
        tapdsl.multi_step(space, "vision", 3, symmetric=True, name="multi_sym"),
        tapdsl.td0(space, "i", "q"),
    ]).replace("target vision @ 0\n", "target vision @ 0  # the effect\n", 1)
    return text.replace("\n  ", "\n" + indent).replace("\n", newline)


class TestParse:
    def test_forward_example(self, space):
        parsed = parse("tapping fwd { input m @ -1  target vision @ 0 }", space)
        (t,) = parsed.tappings
        assert [(tap.role, tap.group, tap.lag) for tap in t.taps] == [
            ("input", "m", -1), ("target", "vision", 0)]

    def test_autoencoder_same_coordinates(self, space):
        parsed = parse("tapping ae { input vision @ 0  target vision @ 0 }", space)
        assert len(parsed.tappings[0].taps) == 2

    def test_missing_target_is_positioned_error(self, space):
        with pytest.raises(ParseError, match="no target taps") as exc:
            parse("tapping bad { input m @ -1 }", space)
        assert exc.value.line == 1

    def test_range_expansion(self, space):
        parsed = parse("tapping r { input vision @ -3..-1 target m @ 0 }", space)
        assert [t.lag for t in parsed.tappings[0].taps[:3]] == [-3, -2, -1]

    def test_descending_range_rejected(self, space):
        with pytest.raises(ParseError, match="not ascending"):
            parse("tapping r { input vision @ -1..-3 target m @ 0 }", space)

    def test_space_block(self):
        parsed = parse("space nao { motor m: 4 extero vision: 2 }")
        assert parsed.space.n_sm == 6
        assert parsed.space.name == "nao"

    def test_file_space_takes_precedence(self, space):
        text = "space tiny { motor j: 1 }\ntapping t { input j @ -1 target j @ 0 }"
        parsed = parse(text, space)
        assert parsed.tappings[0].space.name == "tiny"

    def test_no_space_anywhere(self):
        with pytest.raises(ParseError, match="no space declared"):
            parse("tapping t { input m @ -1 target m @ 0 }")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("tapping t { input zz @ -1 target m @ 0 }", "unknown group"),
            ("tapping t { input vision[7] @ -1 target m @ 0 }", "out of range"),
            ("tapping t { input m @ -1 [drop p=1.5] target m @ 0 }", "drop_p"),
            ("tapping t { input m -1 target m @ 0 }", "expected '@'"),
            ("tapping t input m @ -1 }", "expected"),
            ("junk", "expected 'tapping'"),
        ],
    )
    def test_positioned_errors(self, space, text, fragment):
        with pytest.raises(ParseError, match=fragment) as exc:
            parse(text, space)
        assert exc.value.line >= 1 and exc.value.col >= 1

    # Rules of the data model are checked by Tap, Tapping and define_space;
    # the parser reports them at the offending line's group or kind token, or
    # at the block's name when the whole block is at fault.
    @pytest.mark.parametrize(
        "text, line, col, fragment",
        [
            ("tapping t {\n  input zz @ -1\n  target m @ 0\n}",
             2, 9, "unknown group 'zz'"),
            ("tapping t {\n  input vision[7] @ -1\n  target m @ 0\n}",
             2, 9, "channel index 7 out of range for group 'vision' (dim 2)"),
            ("tapping t {\n  input m[1,1] @ -1\n  target vision @ 0\n}",
             2, 9, "duplicate channel indices in (1, 1)"),
            ("tapping t {\n  input m @ -1 [drop p=1.5]\n  target vision @ 0\n}",
             2, 9, "drop_p must be in [0, 1], got 1.5"),
            ("tapping t {\n  input m[0,1] @ -1\n  input m[1,2] @ -1\n"
             "  target vision @ 0\n}",
             3, 9, "duplicate tap coordinate m[1]@-1 (input)"),
            ("tapping t {\n  input m @ -2\n  input m @ -3..-1\n  target vision @ 0\n}",
             3, 9, "duplicate tap coordinate m[0]@-2 (input)"),
            ("tapping bad {\n  input m @ -1\n}", 1, 9, "has no target taps"),
            ("space s {\n  motor m: 2\n  sensory v: 1\n}",
             3, 3, "unknown modality kind 'sensory'"),
            ("space s {\n  motor m: 2\n  extero m: 1\n}",
             3, 3, "duplicate group name 'm'"),
            ("space s {\n  motor m: 2\n  extero v: 0\n}",
             3, 3, "group 'v' has non-positive dimension 0"),
            ("space s { }", 1, 7, "space has no channels"),
        ],
    )
    def test_data_model_errors_are_positioned(self, space, text, line, col, fragment):
        with pytest.raises(ParseError) as exc:
            parse(text, space)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("text, line, col, message", [
        ("tapping t {\n  input m @ -1 $\n  target vision @ 0\n}", 2, 16,
         "unexpected character '$'"),
        ("space s {\r\n\tmotor m: 1 $\r\n}\r\n", 2, 13, "unexpected character '$'"),
        ("tapping t {\n  input m[-1] @ -1\n  target vision @ 0\n}", 2, 9,
         "negative channel index in (-1,)"),
        ("tapping t { }", 1, 9, "tapping 't' has no taps"),
        ("tapping t {\n  output m @ -1\n  target vision @ 0\n}", 2, 3,
         "expected 'input' or 'target', got 'output'"),
        ("tapping t {\n  input m @ -1 [drop p=x]\n  target vision @ 0\n}", 2, 24,
         "expected drop probability, got 'x'"),
    ])
    def test_refusal_text(self, space, text, line, col, message):
        with pytest.raises(ParseError) as exc:
            parse(text, space)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value) == f"line {line}, col {col}: {message}"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([("\n", "  "), ("\r\n", "  "), ("\n", "\t"), ("\r\n", "\t")]),
           st.data())
    def test_unexpected_character_position(self, layout, data):
        text = gallery_text(*layout)
        assert parse(text).tappings  # the text itself is valid
        # Any offset outside a comment, except between a minus sign and its
        # digits, where the lone '-' would be the offender.
        offsets = [i for i in range(len(text) + 1)
                   if "#" not in text[:i].rsplit("\n", 1)[-1] and text[i - 1:i] != "-"]
        offset = data.draw(st.sampled_from(offsets))
        with pytest.raises(ParseError) as exc:
            parse(text[:offset] + "$" + text[offset:])
        assert str(exc.value).endswith(": unexpected character '$'")
        assert (exc.value.line, exc.value.col) == reference_position(text, offset)

    def test_error_position_points_at_offender(self, space):
        with pytest.raises(ParseError) as exc:
            parse("tapping t {\n  input zz @ -1\n  target m @ 0\n}", space)
        assert (exc.value.line, exc.value.col) == (2, 9)

    def test_duplicate_tapping_name(self, space):
        text = ("tapping t { input m @ -1 target m @ 0 }\n"
                "tapping t { input m @ -1 target m @ 0 }")
        with pytest.raises(ParseError, match="duplicate tapping name"):
            parse(text, space)

    def test_comments_and_drop(self, space):
        text = """
        # a comment
        tapping t {
          input m[0,2] @ -1 [drop p=0.25]   # another
          target vision @ 0
        }
        """
        tap = parse(text, space).tappings[0].taps[0]
        assert tap.channels == (0, 2)
        assert tap.drop_p == 0.25

    def test_range_with_drop_applies_to_every_expanded_tap(self, space):
        text = "tapping t { input vision @ -3..-1 [drop p=0.2] target m @ 0 }"
        taps = parse(text, space).tappings[0].taps
        assert [(t.lag, t.drop_p) for t in taps[:3]] == [
            (-3, 0.2), (-2, 0.2), (-1, 0.2)]

    def test_integer_drop_value_round_trips(self, space):
        text = "tapping t { input m @ -1 [drop p=1] target vision @ 0 }"
        first = parse(text, space)
        assert first.tappings[0].taps[0].drop_p == 1.0
        assert parse(to_text(space, first.tappings)).tappings == first.tappings


class TestPrinter:
    def test_parse_print_identity(self, space):
        text = ("tapping t { input m[0,2] @ -1 [drop p=0.25] "
                "input vision @ -2..-1 target vision @ 0 }")
        first = parse(text, space)
        printed = to_text(space, first.tappings)
        second = parse(printed)
        assert second.tappings == first.tappings

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1))
    @example(5e-324)
    @example(1e-7)
    @example(0.1234567)
    @example(1.0)
    def test_drop_p_round_trips_exactly(self, drop_p):
        space = define_space([("motor", "m", 4), ("extero", "vision", 2)], name="nao")
        tapping = Tapping("t", space, (Tap("m", -1, ROLE_INPUT, drop_p=drop_p),
                                       Tap("vision", 0, ROLE_TARGET)))
        assert parse(to_text(space, [tapping])).tappings == [tapping]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_parse_print_identity_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        tapping = random_tapping(rng, space)
        reparsed = parse(to_text(space, [tapping]))
        assert reparsed.tappings == [tapping]
        assert reparsed.space == space


# Every construct of the grammar: a space block, channel lists, a lag range,
# a drop option, a comment and a second tapping.
MUTATED_BASE = ("space s {\n  motor m: 3\n  extero v: 2\n}\n"
                "tapping a { input m[0,2] @ -2..-1 [drop p=0.25] target v @ 1 }  # c\n"
                "tapping b { input v[1] @ 0 target m @ 2 }\n")
MUTATED_CHARS = sorted(set(MUTATED_BASE + "-.eE+\t\r$\u00e9"))


class TestMutatedText:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "swap"]),
                              st.integers(0, 2**16), st.sampled_from(MUTATED_CHARS)),
                    min_size=1, max_size=4))
    def test_refused_or_printed_text_reparses_to_itself(self, edits):
        text = MUTATED_BASE
        for op, at, char in edits:
            i = at % len(text)
            if op == "insert":
                text = text[:i] + char + text[i:]
            elif op == "delete":
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]
        try:
            first = parse(text)
        except TapkitError:  # ParseError is one
            return
        printed = to_text(first.space, first.tappings)
        second = parse(printed)
        assert second == first
        assert to_text(second.space, second.tappings) == printed


class TestValidate:
    def test_forward_causal(self, space):
        report = validate(tapdsl.forward(space, "m", "vision"))
        assert (report.kind, report.buffer_delay) == (CAUSAL, 0)

    def test_symmetric_multi_step_buffered(self, space):
        report = validate(tapdsl.multi_step(space, "vision", 3, symmetric=True))
        assert (report.kind, report.buffer_delay) == (BUFFERED, 2)

    def test_future_input_acausal(self, space):
        t = Tapping("t", space, (Tap("m", 1, ROLE_INPUT), Tap("vision", 0, ROLE_TARGET)))
        assert validate(t).kind == ACAUSAL

    def test_template_classes(self, space):
        causal = [
            tapdsl.temporal_predictor(space, "vision"),
            tapdsl.intermodal_predictor(space, "q", "vision"),
            tapdsl.forward(space, "m", "vision"),
            tapdsl.inverse(space, "m", "vision"),
            tapdsl.autoencoder(space, ["vision"]),
            tapdsl.ape(space, ["vision"]),
            tapdsl.conditioning(space, "q", "vision", 2),
            tapdsl.td0(space, "q", "vision"),
        ]
        for t in causal:
            assert validate(t).kind == CAUSAL, t.name
        for k in (2, 3, 5):
            report = validate(tapdsl.multi_step(space, "vision", k, symmetric=True))
            assert (report.kind, report.buffer_delay) == (BUFFERED, k - 1)


class TestTemplates:
    def test_forward_is_the_running_example(self, space):
        t = tapdsl.forward(space, "m", "vision")
        assert [(x.role, x.group, x.lag) for x in t.taps] == [
            ("input", "m", -1), ("target", "vision", 0)]

    def test_forward_inverse_same_coordinates(self, space):
        f = tapdsl.forward(space, "m", "vision")
        i = tapdsl.inverse(space, "m", "vision")
        strip = lambda t: {(x.group, x.lag) for x in t.taps}
        assert strip(f) == strip(i)
        assert {x.role for x in f.taps} == {x.role for x in i.taps}

    def test_multi_step_taps(self, space):
        t = tapdsl.multi_step(space, "vision", 3)
        assert [(x.role, x.lag) for x in t.taps] == [
            ("input", -2), ("input", -1), ("input", 0), ("target", 1)]
        s = tapdsl.multi_step(space, "vision", 3, symmetric=True)
        assert [(x.role, x.lag) for x in s.taps] == [
            ("input", -2), ("input", -1), ("input", 0), ("target", 1), ("target", 2)]

    def test_multi_step_k1_is_shifted_temporal_predictor(self, space):
        # k=1 degenerates to the one-step predictor's tap set translated by
        # +1 step; the emitted training pairs are identical (see engine tests).
        t = tapdsl.multi_step(space, "vision", 1)
        shifted = {(x.role, x.group, x.lag - 1) for x in t.taps}
        ref = tapdsl.temporal_predictor(space, "vision")
        assert shifted == {(x.role, x.group, x.lag) for x in ref.taps}

    def test_ape_is_autoencoder_shifted(self, space):
        ae = tapdsl.autoencoder(space, ["vision"])
        ap = tapdsl.ape(space, ["vision"])
        shift_inputs = {
            (t.role, t.group, t.lag - 1 if t.role == ROLE_INPUT else t.lag)
            for t in ae.taps
        }
        assert shift_inputs == {(t.role, t.group, t.lag) for t in ap.taps}

    def test_td0_rows(self, space):
        t = tapdsl.td0(space, "q", "vision")
        assert [(x.role, x.group, x.lag) for x in t.taps] == [
            ("input", "q", -1), ("input", "q", 0),
            ("input", "vision", 0), ("target", "q", -1)]

    def test_conditioning(self, space):
        t = tapdsl.conditioning(space, "q", "vision", 3)
        assert [(x.role, x.group, x.lag) for x in t.taps] == [
            ("input", "q", -3), ("target", "vision", 0)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: tapdsl.multi_step(s, "vision", 0),
            lambda s: tapdsl.multi_step(s, "vision", 1, symmetric=True),
            lambda s: tapdsl.conditioning(s, "q", "vision", 0),
            lambda s: tapdsl.forward(s, "nope", "vision"),
        ],
    )
    def test_template_errors(self, space, call):
        with pytest.raises(TapkitError):
            call(space)

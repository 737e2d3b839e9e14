"""Wire format round-trips, and the ``pv`` checks that ``test_cli_golden.py``,
the one example test of ``pv``, cannot hold: operands too large for its file,
``PV_TOL`` (its harness drops it) and a documented exit code for every call."""

import contextlib
import io
import json
import math
import struct
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _strategies import components
from paravec import (
    ONE,
    ArityError,
    Paravector,
    ParseError,
    RotationAxis,
    SpatialRotation,
    ValidationError,
)
from paravec.cli import _COMMANDS, main
from paravec.fuzz import _PROPS, MUTANTS, make_pack
from paravec.wire import (
    _parse_rotation,
    _parse_vector,
    from_wire,
    load_number_array,
    parse_paravector,
    serialize_numbers,
    serialize_paravector,
    to_wire,
)


class TestWire:
    def test_identity(self):
        assert parse_paravector("[1,0,0,0,0,0,0,0]") == ONE

    def test_component_order(self):
        got = parse_paravector("[1,1,1,0,0,0,0,0]")
        assert got == Paravector(1 + 1j, (1, 0, 0))

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            parse_paravector("[1,0,0]")

    def test_malformed_json_reports_a_position(self):
        with pytest.raises(ParseError) as err:
            parse_paravector("[1,0,,]")
        assert err.value.position is not None

    def test_non_numbers_are_rejected(self):
        with pytest.raises(ParseError):
            parse_paravector('[1,0,0,0,"x",0,0,0]')
        with pytest.raises(ParseError):
            parse_paravector("[true,0,0,0,0,0,0,0]")

    def test_non_finite_tokens_are_rejected(self):
        with pytest.raises(ParseError):
            parse_paravector("[NaN,0,0,0,0,0,0,0]")
        with pytest.raises(ParseError):
            parse_paravector("[Infinity,0,0,0,0,0,0,0]")

    def test_serialize_is_canonical(self):
        assert (
            serialize_paravector(parse_paravector("[1, 0, 0, 0, 0, 0, 0, 0]"))
            == "[1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]"
        )

    @given(st.lists(components, min_size=8, max_size=8))
    def test_round_trip_is_bit_exact(self, numbers):
        text = serialize_paravector(from_wire(numbers))
        again = parse_paravector(text)
        assert to_wire(again) == [float(n) for n in numbers]
        assert serialize_paravector(again) == text

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8))
    def test_serialize_writes_what_json_writes_and_parses_back_bit_exact(self, numbers):
        p = from_wire(numbers)
        text = serialize_paravector(p)
        assert text == json.dumps(to_wire(p), separators=(",", ":"))
        again = parse_paravector(text)
        assert struct.pack("8d", *to_wire(again)) == struct.pack("8d", *to_wire(p))

    @pytest.mark.parametrize(
        "numbers",
        [{i: 9.0 for i in range(8)}, set(range(8)), (float(i) for i in range(8)), "12345678"],
        ids=["dict", "set", "generator", "str"],
    )
    def test_from_wire_takes_only_a_list_or_tuple(self, numbers):
        with pytest.raises(ArityError, match=f"not {type(numbers).__name__}$"):
            from_wire(numbers)

    def test_load_number_array_keeps_order(self):
        assert load_number_array("[3,1,2]") == [3.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "not bool"),
            (float("inf"), "finite"),
            (float("nan"), "finite"),
            (complex("inf"), "finite"),
            (complex(0.0, float("nan")), "finite"),
            (10**400, "finite"),
        ],
        ids=["bool", "inf", "nan", "complex-inf", "complex-nan", "huge-int"],
    )
    def test_to_wire_refuses_numbers_the_wire_format_refuses(self, value, message):
        with pytest.raises(ValidationError, match=message):
            to_wire(value)

    def test_to_wire_writes_finite_numbers_as_before(self):
        assert to_wire(3) == 3.0 and type(to_wire(3)) is float
        assert to_wire(-2.5) == -2.5
        assert to_wire(1 - 2j) == [1.0, -2.0]
        assert serialize_numbers([to_wire(10**300)]) == "[1e+300]"

    def test_fuzz_inputs_replay_through_the_pv_parsers(self):
        # the wire form of every family a law takes that is a pv operand parses
        # back to it: bit-exact, except that SpatialRotation.about renormalizes n
        families = dict.fromkeys(name for prop in _PROPS for name in prop.operands)
        without_operand = set()
        for i in range(50):
            pack = make_pack(42, i)
            for name in families:
                value = getattr(pack, name)
                text = json.dumps(to_wire(value))
                if isinstance(value, (Paravector, RotationAxis)):
                    assert json.dumps(to_wire(parse_paravector(text))) == text, name
                elif isinstance(value, tuple):
                    assert json.dumps(to_wire(_parse_vector(text))) == text, name
                elif isinstance(value, SpatialRotation):
                    r = _parse_rotation(text)
                    assert r.phi == value.phi, name
                    for got, want in zip(r.n, value.n):
                        assert abs(got - want) <= 2 * math.ulp(want), name
                else:
                    without_operand.add(name)
        assert without_operand == {"lam", "mu", "tau", "s_real"}


def _outcome(fn, text):
    """``repr`` of what ``fn(text)`` returns, or the type and message it raises."""
    try:
        return repr(fn(text))
    except Exception as exc:  # the comparison is of the error itself
        return type(exc), str(exc), getattr(exc, "position", None)


_ZEROS = ",0,0,0,0,0,0,0]"


@pytest.mark.parametrize(
    "text",
    [
        "[1,-2.5,3e-300,4,5e300,6,7,8]",
        "\ufeff[1,0,0,0,0,0,0,0]",
        b"[1,0,0,0,0,0,0,0]",
        b"\xef\xbb\xbf[1,0,0,0,0,0,0,0]",
        bytearray(b"[1,0,0,0,0,0,0,0]"),
        "[NaN" + _ZEROS,
        "[Infinity" + _ZEROS,
        "[1e999" + _ZEROS,
        "[1,2]",
        "[1,2,3,4,5,6,7,8,9]",
        "[true" + _ZEROS,
        "[[1]" + _ZEROS,
        "{}",
        "[1,0,0,0",
        "[" * 100_000,
        "[" + "7" * 5000 + _ZEROS,
        "[-0.0,-0.0,-0.0,-0.0,-0.0,-0.0,-0.0,-0.0]",
        8,
    ],
    ids=[
        "plain", "bom-str", "bytes", "bom-bytes", "bytearray", "nan", "infinity",
        "overflow", "two", "nine", "true", "nested", "object", "truncated",
        "deep", "5000-digits", "negative-zeros", "not-text",
    ],
)
def test_parse_paravector_is_from_wire_of_load_number_array(text):
    assert _outcome(parse_paravector, text) == _outcome(
        lambda t: from_wire(load_number_array(t)), text
    )


def test_a_byte_order_mark_is_refused_in_text_as_json_loads_refuses_it():
    with pytest.raises(json.JSONDecodeError, match="BOM") as want:
        json.loads("\ufeff[1]")
    with pytest.raises(ParseError, match="BOM") as got:
        load_number_array("\ufeff[1]")
    assert got.value.position == want.value.pos
    assert load_number_array(b"\xef\xbb\xbf[1]") == [1.0]  # bytes may carry one


class TestCliBasics:
    @pytest.mark.parametrize(
        "text",
        [
            "[1" + "0" * 400 + ",0,0,0,0,0,0,0]",  # too large for a float
            "[" + "1" * 5000 + ",0,0,0,0,0,0,0]",  # beyond the int digit limit
            "[" * 100_000,  # nested beyond the recursion limit
            '{"a":1}',  # valid JSON, but not an array
        ],
        ids=["huge-int", "long-int", "deep-nesting", "not-an-array"],
    )
    def test_number_parse_crashes_are_parse_errors(self, capsys, text):
        assert main(["det", text]) == 2
        assert capsys.readouterr().err.startswith("pv: ")


class TestCliTolerance:  # the golden transcript pins the --tol flag
    def test_env_var_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("PV_TOL", "1e-4")
        almost = "[1,0,1e-03,0,0,0,0,0]"
        assert main(["classify", "--json", almost]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orthogonal"] is True

    def test_bad_env_var_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PV_TOL", "friday")
        assert main(["det", "[1,0,0,0,0,0,0,0]"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tol_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PV_TOL", value)
        assert main(["det", "[1,0,0,0,0,0,0,0]"]) == 2
        assert "finite" in capsys.readouterr().err


_EDGE_NUMBERS = [0, -0.0, 5e-324, 1e-160, 1e154, 1e308, -1e308]
_numbers = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.integers(-5, 5),
    st.floats(-10, 10, allow_nan=False),
)
_operand_text = st.one_of(st.text(max_size=40), st.lists(_numbers, max_size=9).map(json.dumps))


@st.composite
def _pv_calls(draw):
    """A ``pv`` argument list and the stdin text an operand ``-`` reads."""
    name = draw(st.sampled_from([*_COMMANDS, "fuzz"]))
    argv = [name]
    if name == "fuzz":
        argv += ["--trials", str(draw(st.integers(-1, 2)))]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.one_of(st.text(max_size=8), st.integers(-1, 2**64).map(str)))]
        if draw(st.booleans()):
            argv += ["--mutant", draw(st.one_of(st.text(max_size=8), st.sampled_from(list(MUTANTS))))]
    else:
        argv += [draw(st.one_of(_operand_text, st.just("-"))) for _ in _COMMANDS[name][1].split()]
    for flag in ("--left", "--right", "--json"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--tol", draw(st.one_of(st.text(max_size=8), _numbers.map(str)))]
    return argv, draw(_operand_text)


@given(_pv_calls())
# finite operands whose determinant, or whose w.w, has a modulus beyond the float range
@example((["classify", "[1.2e154,0.6e154,0,0,0,0,0,0]"], ""))
@example((["mirror", "[1,0,0,0,0,0,0,0]", "[1.2e154,0,0,0.6e154,0,0]"], ""))
def test_every_pv_call_exits_with_a_documented_code(call):
    # in process: main returns its exit code and raises nothing, whatever the text
    argv, stdin = call
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in ((0, 2, 3) if argv[0] == "fuzz" else (0, 1, 2)), argv

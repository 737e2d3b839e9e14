"""Determinism and plumbing of the property-fuzz engine."""

import ast
import math
import os
import random
import subprocess
import sys
from operator import sub
from pathlib import Path

import pytest

from paravec import (
    DEFAULT_TOL,
    SUITES,
    Paravector,
    SplitMix64,
    Tolerance,
    ValidationError,
    cli,
    core,
    fuzz,
    matrices,
    run_fuzz,
)
from paravec.core import _deviation, _pv_scale, _rows_scale
from paravec.fuzz import (
    _PROPS,
    _ROWS,
    MUTANTS,
    TrialPack,
    _holds,
    _mutated,
    _near,
    make_pack,
    trial_seed,
)
from paravec.transforms import SpatialRotation
from paravec.wire import to_wire

FUZZ_SOURCE = Path(__file__).resolve().parent.parent / "src" / "paravec" / "fuzz.py"

# every family, in table order
FAMILIES = [name for names, _ in _ROWS for name in names.split()]
# the families whose rows call the library to build them
LIBRARY_BUILT = {"rot1", "rot2", "axis1", "axis2"}


def _refuse(*args, **kwargs):
    raise AssertionError("called while generating a pack")


class TestSplitMix64:
    def test_reference_sequence_from_seed_zero(self):
        # published reference outputs of the generator
        g = SplitMix64(0)
        assert g.next_u64() == 0xE220A8397B1DCDAF
        assert g.next_u64() == 0x6E789E6AA1B965F4
        assert g.next_u64() == 0x06C45D188009454F

    def test_u01_range(self):
        g = SplitMix64(123)
        xs = [g.u01() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_trial_seeds_are_distinct_streams(self):
        seeds = {trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestPackGeneration:
    def test_constrained_families_meet_their_constraints(self):
        for i in range(50):
            p = make_pack(11, i)
            assert abs(p.proper1.det().imag) < 1e-9
            assert p.proper1.det().real > 0.05
            assert abs(p.sing1.det()) < 1e-9
            assert abs(p.sphere.det()) < 1e-9
            assert isinstance(p.par2, Paravector)

    def test_the_pack_holds_exactly_what_the_checks_read(self):
        # the table declares exactly the families some law takes, and a fresh
        # pack holds none of them until one is read
        taken = {name for prop in _PROPS for name in prop.operands}
        assert set(FAMILIES) == taken
        pack = make_pack(42, 0)
        assert vars(pack) == {}
        for prop in _PROPS:
            code = getattr(prop.law, "func", prop.law).__code__
            assert code.co_varnames[code.co_argcount - 1] == "tol", prop.full_name
            assert prop.fetch(pack) == tuple(getattr(pack, name) for name in prop.operands)

    def test_generation_calls_no_library_arithmetic(self, monkeypatch):
        # packs are built from raw components through _make and Paravector alone,
        # so a defect in library arithmetic can neither skew nor crash the stream
        drawn = [name for name in FAMILIES if name not in LIBRARY_BUILT]

        def packs():
            return [repr([getattr(make_pack(42, i), name) for name in drawn]) for i in range(200)]

        want = packs()
        for name in ("scalar_product", "vdot", "component_scale", "_scale"):
            monkeypatch.setattr(fuzz, name, _refuse)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "rev", "conj"):
            monkeypatch.setattr(Paravector, name, _refuse)
        assert packs() == want

    def test_corner_cases_do_appear(self):
        from paravec import ZERO

        seen_zero = any(make_pack(1, i).a == ZERO for i in range(300))
        assert seen_zero

    def test_families_do_not_depend_on_the_order_of_reads(self):
        names = FAMILIES
        for i in range(30):
            forward, backward = make_pack(9, i), make_pack(9, i)
            want = [repr(getattr(forward, name)) for name in names]
            got = [repr(getattr(backward, name)) for name in reversed(names)]
            assert got[::-1] == want, i

    def test_a_read_builds_its_row_once_and_stores_plain_attributes(self):
        pack = make_pack(3, 1)
        perp1 = pack.perp1
        assert vars(pack) == {"perp1": perp1, "perp2": pack.perp2}
        assert pack.perp1 is perp1
        par2 = pack.par2  # reads the families it is built from
        assert vars(pack)["par1"] is pack.par1 and vars(pack)["lam"] is pack.lam
        assert par2 == Paravector(pack.par1.s * pack.lam, tuple(z * pack.lam for z in pack.par1.v))
        with pytest.raises(AttributeError, match="'unitar'"):
            pack.unitar

    def test_families_are_non_data_descriptors_of_the_class(self):
        # a read finds a drawn family in the pack's __dict__ before the descriptor,
        # and no __getattr__ is left to catch a failed lookup
        assert not hasattr(TrialPack, "__getattr__")
        for name in FAMILIES:
            family = type(vars(TrialPack)[name])
            assert hasattr(family, "__get__") and not hasattr(family, "__set__"), name

    def test_a_run_opens_one_generator_per_row_its_laws_read(self, monkeypatch):
        opened = []

        class Counting(SplitMix64):
            def __init__(self, seed):
                opened.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(fuzz, "SplitMix64", Counting)
        # ring reads the row "a b c"; metric reads it and "perp1 perp2"
        for suite, rows in (("ring", 1), ("metric", 2)):
            opened.clear()
            run_fuzz(4, 25, suites=[suite])
            assert len(opened) == 25 * rows, suite

    def test_the_streams_are_pinned_by_portable_literals(self):
        # built from SplitMix64 integer steps and correctly rounded arithmetic
        # alone, so these reprs are the same on every platform; trial 0 of
        # seed 0 draws no corner case
        pack = make_pack(0, 0)
        assert repr(pack.lam) == "(-0.22700905869154386+1.0590485675383912j)"
        assert repr(pack.w1) == "(1.7396253575824714, 0.776038911216633, -0.7651420716563724)"
        assert repr(pack.om1) == (
            "((0.6970536751744278+0.7486330655622697j), "
            "(1.2145700360295684+1.1228857208398222j), "
            "(0.04543761989168482+1.5972212403251302j))"
        )
        assert repr(pack.a) == (
            "Paravector(s=(0.4371722161235265-0.31513902998516397j), "
            "v=((-1.4123943750226449+0.17731424770319526j), "
            "(0.8824511587152832-1.8546681737731836j), "
            "(1.1148451873927105-0.9120420485381575j)))"
        )


class TestRunFuzz:
    def test_reports_are_deterministic(self):
        r1 = run_fuzz(seed=5, trials=30)
        r2 = run_fuzz(seed=5, trials=30)
        assert r1.to_dict() == r2.to_dict()

    def test_suite_filter(self):
        r = run_fuzz(seed=5, trials=5, suites=["ring"])
        assert all(p.name.startswith("ring/") for p in r.properties)
        with pytest.raises(ValueError):
            run_fuzz(seed=5, trials=5, suites=["nonsense"])
        # a one-suite run reports exactly that suite's rows of the full report
        for mutant in (None, "mul-drop-cross"):
            full = run_fuzz(seed=5, trials=10, mutant=mutant).properties
            for suite in SUITES:
                rows = [r for r in full if r.name.split("/", 1)[0] == suite]
                assert list(run_fuzz(5, 10, mutant=mutant, suites=[suite]).properties) == rows

    @pytest.mark.parametrize(
        "argument, value, error",
        [
            ("seed", True, TypeError),
            ("seed", 1.5, TypeError),
            ("trials", True, TypeError),
            ("trials", 2.5, TypeError),
            ("trials", 0, ValueError),
            ("tol", 1e-9, TypeError),
            ("suites", "ring", TypeError),
            ("suites", [], ValueError),
            ("mutant", "flip-everything", ValueError),
        ],
        ids=["seed-bool", "seed-float", "trials-bool", "trials-float", "trials-zero", "tol-float",
             "suites-str", "suites-empty", "mutant-unknown"],
    )
    def test_wrong_arguments_are_refused_before_any_trial(self, monkeypatch, argument, value,
                                                          error):
        monkeypatch.setattr(fuzz, "make_pack", _refuse)
        with pytest.raises(error, match=argument):
            run_fuzz(**{"seed": 5, "trials": 1, argument: value})

    def test_suites_may_be_any_iterable_of_names(self):
        want = run_fuzz(5, 3, suites=["ring", "metric"]).properties
        assert run_fuzz(5, 3, suites=(s for s in ("metric", "ring"))).properties == want

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seeds_outside_the_generator_state_space_are_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            run_fuzz(seed=seed, trials=1)

    def test_largest_seed_is_run_and_reported_as_given(self):
        r = run_fuzz(seed=2**64 - 1, trials=1, suites=["ring"])
        assert r.seed == 2**64 - 1 and r.to_dict()["seed"] == 2**64 - 1

    def test_mutants_restore_the_originals(self):
        from paravec import core, matrices

        original_mul = core.mul
        original_rev = Paravector.rev
        original_to4 = matrices.to_matrix4
        for name in MUTANTS:
            run_fuzz(seed=5, trials=3, mutant=name)
        assert core.mul is original_mul
        assert Paravector.rev is original_rev
        assert matrices.to_matrix4 is original_to4

    def test_counterexamples_carry_wire_inputs(self):
        r = run_fuzz(seed=5, trials=10, mutant="mul-drop-cross")
        failing = [p for p in r.properties if p.fails]
        assert failing
        ce = failing[0].counterexample
        assert ce is not None and "trial" in ce and "inputs" in ce
        props = {prop.full_name: prop for prop in _PROPS}
        for mutant in MUTANTS:
            report = run_fuzz(seed=42, trials=50, mutant=mutant)
            failing = [p for p in report.properties if p.fails]
            assert failing
            with _mutated(mutant):
                for result in failing:
                    ce, prop = result.counterexample, props[result.name]
                    pack = make_pack(42, ce["trial"])
                    try:
                        ok = _holds(prop.law, prop.fetch(pack), DEFAULT_TOL)
                    except Exception:
                        ok = False
                    assert not ok, result.name
                    assert tuple(ce["inputs"]) == prop.operands, result.name
                    for name, value in ce["inputs"].items():
                        assert value == to_wire(getattr(pack, name))
            if mutant == "rev-sign":
                # the law fails at its first is_parallel, and still lists every operand
                by_name = {p.name: p for p in report.properties}
                ce = by_name["parallel/parallel-iff-scalar-multiple"].counterexample
                assert list(ce["inputs"]) == ["par2", "par1", "lam", "nonsing1", "nonsing2"]
        assert all(p.counterexample is None for p in run_fuzz(seed=42, trials=50).properties)


def _det_one_of_minus_one(d, proper, thr):
    return proper and abs(d + 1.0) <= thr


def _rotation_that_raises(self, *args):
    raise RuntimeError("rotation construction is broken")


@pytest.mark.parametrize(
    "owner, name, defect",
    [
        (core, "_det_one", _det_one_of_minus_one),
        (SpatialRotation, "__init__", _rotation_that_raises),
    ],
    ids=["det-one-rule", "rotation-constructor"],
)
def test_a_library_defect_in_a_derived_family_is_reported(monkeypatch, capsys, owner, name, defect):
    # the axes and rotations are built by library code when a check reads them:
    # a defect there fails those checks, with its error, instead of the campaign
    monkeypatch.setattr(owner, name, defect)
    failing = [r for r in run_fuzz(42, 2).properties if r.fails]
    assert failing
    operands = {prop.full_name: prop.operands for prop in _PROPS}
    cut = set()
    for r in failing:
        assert "error" in r.counterexample
        # the inputs are the operands up to a derived family that raised while built
        inputs = tuple(r.counterexample["inputs"])
        assert inputs == operands[r.name][: len(inputs)], r.name
        if len(inputs) < len(operands[r.name]):
            cut.add(operands[r.name][len(inputs)])
    assert cut and cut <= LIBRARY_BUILT
    assert cli.main(["fuzz", "--seed", "42", "--trials", "2"]) == 3
    assert "FAIL" in capsys.readouterr().out


def _registry_region():
    """The statements of ``fuzz.py`` from ``_PROPS = []`` up to ``SUITES = ...``."""
    body = ast.parse(FUZZ_SOURCE.read_text()).body
    names = [
        getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
        for node in body
    ]
    return body[names.index("_PROPS") + 1 : names.index("SUITES")]


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_laws_weigh_no_threshold_of_their_own():
    # only _weigh, under the two comparison points _holds and _near, sets an
    # error against a threshold; no law or row computes or compares one itself
    region = _registry_region()
    defined = {node.name for node in region if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_weigh", "_holds", "_near"}
    laws = [node for stmt in region for node in ast.walk(stmt) if isinstance(node, ast.Lambda)]
    assert len(laws) + len(defined) >= 90
    offences = []
    for stmt in region:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _called_name(node) in {
                "linear", "quadratic", "approx_eq", "_weigh"
            }:
                offences.append((node.lineno, _called_name(node)))
            if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Call) and _called_name(side) == "abs"
                for side in (node.left, *node.comparators)
            ):
                offences.append((node.lineno, "abs(...) compared"))
    assert offences == []


def _weigh_with_scale(tol, x, y, scale=None):
    """The judge that always computes the scale: ``(error, tol.linear(scale))``."""
    if type(x) is Paravector:
        error = _deviation(x, y)
        if scale is None:
            sx, sy = _pv_scale(x), _pv_scale(y)
            scale = sx if sx > sy else sy
    elif type(x) is complex or type(x) is float:
        error = abs(x - y)
        if scale is None:
            scale = max(abs(x), abs(y))
    else:
        if type(x) is not tuple:  # a matrix
            x, y = sum(x.rows, ()), sum(y.rows, ())
            if scale is None:
                scale = _rows_scale(x, y)
        error = max(map(abs, map(sub, x, y)))
        if scale is None:
            scale = max(max(map(abs, x)), max(map(abs, y)))
    return error, tol.linear(scale)


def _cx(parts):
    """The complex numbers whose real and imaginary parts alternate in ``parts``."""
    return [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]


def _rows(parts, n):
    """The rows of the n x n matrix of ``_cx(parts)``."""
    z = _cx(parts)
    return tuple(tuple(z[k : k + n]) for k in range(0, n * n, n))


# each kind of claim side, built from a flat list of real parts, finite or not
_SIDE_KINDS = {
    "paravector": (8, lambda p: core._make((z := _cx(p))[0], tuple(z[1:]))),
    "complex": (2, lambda p: complex(*p)),
    "float": (1, lambda p: p[0]),
    "complex-vector": (6, lambda p: tuple(_cx(p))),
    "real-vector": (3, tuple),
    "matrix2": (8, lambda p: matrices.Matrix2(_rows(p, 2))),
    "matrix4": (32, lambda p: matrices.Matrix4(_rows(p, 4))),
}
_JUDGE_TOLERANCES = [Tolerance(1e-9, 1e-9), Tolerance(0.0, 0.0), Tolerance(1e-3, 0.0),
                     Tolerance(0.0, 1e-9)]


# the kinds that approx_eq judges take no scale
_UNSCALED_KINDS = {"paravector", "matrix2", "matrix4"}


def _judge_corpus(seed=25, bases=6):
    """``(tol, x, y, scale)`` claims whose error lands at, just below and just above
    ``tol.abs`` and the threshold, or is infinite or NaN, and pairs of sides that
    differ only in signed zeros."""
    rng = random.Random(seed)
    for kind, (n, build) in _SIDE_KINDS.items():
        scales = (None,) if kind in _UNSCALED_KINDS else (None, 0.0, 1.0, 3.7, 1e6)
        for _ in range(bases):
            parts = [0.0 if rng.random() < 0.25 else rng.uniform(-2.0, 2.0) for _ in range(n)]
            moved = rng.randrange(n)  # moving a zero part by d makes the error |d| exactly
            parts[moved] = 0.0
            x = build(parts)
            flipped = build([-0.0 if part == 0.0 else part for part in parts])
            for tol in _JUDGE_TOLERANCES:
                for scale in scales:
                    yield tol, x, flipped, scale
                    yield tol, flipped, x, scale
                    _, threshold = _weigh_with_scale(tol, x, x, scale)
                    moves = [math.inf, math.nan]
                    for target in (0.0, tol.abs, threshold):
                        moves += (math.nextafter(target, 0.0), target, math.nextafter(target, 1.0))
                    for d in moves:
                        for sign in (1.0, -1.0):
                            parts_y = list(parts)
                            parts_y[moved] = sign * d
                            try:
                                y = build(parts_y)
                            except ValidationError:  # a matrix holds finite entries only
                                continue
                            yield tol, x, y, scale


def test_the_judge_gives_the_verdict_of_the_scaled_threshold():
    # the short path (an error within tol.abs holds without a scale) changes no
    # verdict, at either comparison point
    seen = set()
    corpus = list(_judge_corpus())
    for tol, x, y, scale in corpus:
        error, threshold = _weigh_with_scale(tol, x, y, scale)
        want = error <= threshold
        claim = (x, y) if scale is None else (x, y, scale)
        assert _near(x, y, tol, scale) is want, (tol, x, y, scale)
        assert _holds(lambda tol: claim, (), tol) is want
        assert _holds(lambda tol: iter([claim, True]), (), tol) is want
        seen.add((
            "at abs" if error == tol.abs else "at threshold" if error == threshold else "other",
            tol.abs < error <= threshold,
            want,
        ))
    assert len(corpus) > 5000
    assert {("at abs", False, True), ("at threshold", True, True), ("other", True, True),
            ("other", False, False)} <= seen


def test_vectors_of_unequal_length_are_never_equal():
    # zip would weigh only the common prefix, and pass a dropped component
    assert not _near((1.0, 2.0), (1.0, 2.0, 3.0), DEFAULT_TOL)
    assert not _near((1.0, 2.0, 3.0), (1.0, 2.0), DEFAULT_TOL)


def test_matrices_of_another_size_are_never_close():
    identity4, corner2 = matrices.Matrix4.identity(), matrices.Matrix2(((1, 0), (0, 0)))
    assert not _near(identity4, corner2, DEFAULT_TOL)
    assert not _near(corner2, identity4, DEFAULT_TOL)


def _approx_eq_of_the_sum(self, other, tol=DEFAULT_TOL):
    """``_SquareMatrix.approx_eq`` with the entry difference turned into a sum."""
    if type(other) is not type(self):
        return False
    error = max([abs(a + b) for a, b in zip(sum(self.rows, ()), sum(other.rows, ()))])
    return error <= tol.linear(_rows_scale(*self.rows, *other.rows))


def test_the_judge_runs_the_matrices_own_approx_eq(monkeypatch):
    assert not any(r.fails for r in run_fuzz(42, 5, suites=["matrix"]).properties)
    monkeypatch.setattr(matrices._SquareMatrix, "approx_eq", _approx_eq_of_the_sum)
    assert any(r.fails for r in run_fuzz(42, 5, suites=["matrix"]).properties)


@pytest.mark.parametrize(
    "law",
    [
        lambda a, tol: (a, a, 1.0),
        lambda a, tol: (matrices.to_matrix4(a), matrices.to_matrix4(a), 1.0),
    ],
    ids=["paravector", "matrix4"],
)
def test_a_scale_given_to_an_approx_eq_claim_fails_its_property(monkeypatch, law):
    prop = fuzz.Property("ring", "scaled", "ring/scaled", law, ("a",), lambda pack: (pack.a,))
    monkeypatch.setattr(fuzz, "_PROPS", [prop])
    (result,) = run_fuzz(42, 3).properties
    assert result.fails == 3
    assert result.counterexample["error"].startswith("TypeError(")


def test_the_judge_differs_from_the_scaled_threshold_only_where_its_docstring_says():
    # a scale that makes tol.rel * scale NaN, or a modulus past the float range
    no_rel = Tolerance(1e-9, 0.0)
    error, threshold = _weigh_with_scale(no_rel, 1.0, 1.0, math.inf)
    assert error == 0.0 and math.isnan(threshold)  # 0 * inf: the claim failed
    assert _near(1.0, 1.0, no_rel, math.inf)
    huge = complex(1.5e308, 1.5e308)
    with pytest.raises(OverflowError):  # abs(huge), taken for the scale
        _weigh_with_scale(DEFAULT_TOL, huge, huge)
    assert _near(huge, huge, DEFAULT_TOL)


def _unread_parameters(statements):
    """``(line, name)`` of each parameter before ``tol`` that its function never reads."""
    unread = []
    for stmt in statements:
        for node in ast.walk(stmt):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            params = [arg.arg for arg in node.args.args]
            if "tol" in params:
                params = params[: params.index("tol")]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id
                for part in body
                for name in ast.walk(part)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread += [(node.lineno, param) for param in params if param not in read]
    return unread


def test_every_operand_is_read():
    # a law's operands are its counterexample inputs, so an operand the law
    # ignores would name a family the failure does not depend on
    assert _unread_parameters(_registry_region()) == []


def test_an_unread_operand_is_caught():
    planted = ast.parse(
        "rows = [('x', lambda a, b, tol: (a, a))]\ndef law(c, tol):\n    yield tol\n"
    )
    assert _unread_parameters(planted.body) == [(1, "b"), (2, "c")]


def test_import_paravec_loads_the_fuzz_engine_on_first_use():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, paravec\n"
        "assert 'paravec.fuzz' not in sys.modules\n"
        "report = paravec.run_fuzz(seed=1, trials=1)\n"
        "assert 'paravec.fuzz' in sys.modules\n"
        "assert report.failed_properties == 0 and paravec.SUITES\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_cli_loads_the_fuzz_engine_only_for_the_fuzz_command():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys, paravec.cli; print('paravec.fuzz' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
    argv = ["fuzz", "--seed", "7", "--trials", "40", "--mutant", "mul-drop-cross"]
    out = subprocess.run(
        [sys.executable, "-m", "paravec", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 3, out.stderr
    assert "FAIL" in out.stdout


def test_the_package_loads_only_the_standard_library():
    # -S: the site hooks would load third-party modules of their own; of the
    # standard library, dataclasses and inspect alone cost about 10 ms at start-up
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import paravec, paravec.cli, paravec.fuzz\n"
        "assert paravec.fuzz.run_fuzz(1, 1).failed_properties == 0\n"
        "assert paravec.cli.main(['det', '[1,1,1,0,0,0,0,0]']) == 0\n"
        "loaded = {name.split('.')[0] for name in sys.modules}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'paravec', '__main__'}))\n"
        "print(sorted({'dataclasses', 'inspect'} & loaded))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[-1.0,2.0]", "[]", "[]"]

"""The ``pv`` command line tool.

Paravectors travel as JSON arrays of eight reals in the order
``[a, d, bx, by, bz, cx, cy, cz]`` (scalar ``a+id``, vector ``b+ic``);
vectors as arrays of three reals or six reals (three real parts followed
by three imaginary parts); spatial rotations as ``[nx, ny, nz, phi]``.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 domain error (singular, improper, isotropic, ...), 2 usage or parse
error, 3 fuzz campaign found a counterexample.  ``--tol`` (or the
``PV_TOL`` environment variable) sets both halves of the tolerance pair.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import DEFAULT_TOL, Tolerance, classify
from .errors import ArityError, ParavectorError, ParseError, ValidationError
from .fuzz import MUTANTS, run_fuzz
from .geometry import Angle, angle, compose_angles
from .matrices import format_matrix, to_matrix4, to_pauli
from .products import Orientation, scalar_product, vector_product
from .transforms import RotationAxis, SpatialRotation, axial_symmetry, euler_compose, mirror, rotate
from .wire import load_number_array, parse_paravector, serialize_numbers, serialize_paravector


class _UsageError(Exception):
    pass


def _text(value):
    if value == "-":
        data = sys.stdin.read().strip()
        if not data:
            raise ParseError("no data on stdin")
        return data
    return value


def _parse_vector(text):
    numbers = load_number_array(_text(text))
    if len(numbers) == 3:
        return (complex(numbers[0]), complex(numbers[1]), complex(numbers[2]))
    if len(numbers) == 6:
        return (
            complex(numbers[0], numbers[3]),
            complex(numbers[1], numbers[4]),
            complex(numbers[2], numbers[5]),
        )
    raise ArityError(f"expected 3 or 6 numbers for a vector, got {len(numbers)}")


def _parse_rotation(text):
    numbers = load_number_array(_text(text))
    if len(numbers) != 4:
        raise ArityError(f"expected 4 numbers [nx,ny,nz,phi], got {len(numbers)}")
    return SpatialRotation.about(numbers[:3], numbers[3])


def _pv_arg(value):
    return parse_paravector(_text(value))


def _emit_paravector(p):
    print(serialize_paravector(p))


def _emit_complex(z):
    print(serialize_numbers([z.real, z.imag]))


def _emit_vector(v):
    print(serialize_numbers([v[0].real, v[1].real, v[2].real, v[0].imag, v[1].imag, v[2].imag]))


def _emit_matrix(m, as_json):
    if as_json:
        print(json.dumps(
            [[[e.real, e.imag] for e in row] for row in m.rows],
            separators=(",", ":"),
        ))
    else:
        print(format_matrix(m.rows))


def _orientation_flags(sub, default):
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--left", dest="orientation", action="store_const",
        const=Orientation.LEFT, help="use the left orientation",
    )
    group.add_argument(
        "--right", dest="orientation", action="store_const",
        const=Orientation.RIGHT, help="use the right orientation",
    )
    sub.set_defaults(orientation=default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pv", description="paravector algebra calculator"
    )
    parser.add_argument(
        "--tol", type=float, default=None,
        help="absolute and relative tolerance (default 1e-9, or PV_TOL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, nargs_help, **kwargs):
        s = sub.add_parser(name, **kwargs)
        # SUPPRESS keeps a root-level --tol from being clobbered by the default
        s.add_argument("--tol", type=float, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        for arg, hlp in nargs_help:
            s.add_argument(arg, help=hlp)
        return s

    pw = "paravector as JSON [a,d,bx,by,bz,cx,cy,cz]"
    vw = "vector as JSON [bx,by,bz] or [bx,by,bz,cx,cy,cz]"
    rw = "rotation as JSON [nx,ny,nz,phi]"

    cmd("add", [("A", pw), ("B", pw)], help="sum of two paravectors")
    cmd("mul", [("A", pw), ("B", pw)], help="product of two paravectors")
    cmd("rev", [("A", pw)], help="reversion (negated vector part)")
    cmd("conj", [("A", pw)], help="conjugation (conjugated components)")
    cmd("vig", [("A", pw)], help="product with own conjugate")
    cmd("det", [("A", pw)], help="determinant as [re,im]")
    cmd("inv", [("A", pw)], help="multiplicative inverse")
    cmd("module", [("A", pw)], help="square root of a real nonnegative determinant")
    c = cmd("normalize", [("A", pw)], help="rescale to determinant one")
    c = cmd("classify", [("A", pw)], help="proper/singular/orthogonal/special/unitar flags")
    c.add_argument("--json", action="store_true")
    c = cmd("sprod", [("A", pw), ("B", pw)], help="scalar product as [re,im]")
    c = cmd("vprod", [("A", pw), ("B", pw)], help="oriented vector product")
    _orientation_flags(c, Orientation.RIGHT)
    c = cmd("angle", [("A", pw), ("B", pw)], help="oriented angle between proper paravectors")
    _orientation_flags(c, Orientation.RIGHT)
    c = cmd("compose-angle", [("P", pw), ("Q", pw)], help="product of two same-oriented angles")
    _orientation_flags(c, Orientation.RIGHT)
    c = cmd("rotate", [("G", pw), ("AXIS", pw)],
            help="rotate G by the normalized axis paravector")
    _orientation_flags(c, Orientation.LEFT)
    cmd("mirror", [("G", pw), ("W", vw)], help="mirror symmetry with normal W")
    cmd("axial", [("G", pw), ("W", vw)], help="straight-angle rotation around W")
    c = cmd("euler", [("R1", rw), ("R2", rw)], help="compose two spatial rotations")
    c.add_argument("--json", action="store_true")
    c = cmd("matrep", [("A", pw)], help="4x4 matrix representation")
    c.add_argument("--json", action="store_true")
    c = cmd("pauli", [("A", pw)], help="2x2 sigma-basis representation")
    c.add_argument("--json", action="store_true")
    c = sub.add_parser("fuzz", help="run the seeded property-fuzz campaign")
    c.add_argument("--tol", type=float, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--trials", type=int, default=10000)
    c.add_argument("--json", action="store_true")
    c.add_argument(
        "--mutant", choices=sorted(MUTANTS), default=None,
        help="install a documented defect to demonstrate the suite catches it",
    )
    return parser


def _resolve_tol(args):
    value = getattr(args, "tol", None)
    if value is None:
        env = os.environ.get("PV_TOL")
        if env is not None:
            try:
                value = float(env)
            except ValueError:
                raise _UsageError(f"PV_TOL is not a number: {env!r}") from None
    if value is None:
        return DEFAULT_TOL
    try:
        return Tolerance(value, value)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from None


def _run(args, tol):
    command = args.command
    if command == "add":
        _emit_paravector(_pv_arg(args.A) + _pv_arg(args.B))
    elif command == "mul":
        _emit_paravector(_pv_arg(args.A) * _pv_arg(args.B))
    elif command == "rev":
        _emit_paravector(_pv_arg(args.A).rev())
    elif command == "conj":
        _emit_paravector(_pv_arg(args.A).conj())
    elif command == "vig":
        _emit_paravector(_pv_arg(args.A).vig())
    elif command == "det":
        _emit_complex(_pv_arg(args.A).det())
    elif command == "inv":
        _emit_paravector(_pv_arg(args.A).inverse(tol))
    elif command == "module":
        print(json.dumps(_pv_arg(args.A).module(tol)))
    elif command == "normalize":
        _emit_paravector(_pv_arg(args.A).normalize(tol))
    elif command == "classify":
        c = classify(_pv_arg(args.A), tol)
        payload = {
            "det": [c.det.real, c.det.imag],
            "proper": c.is_proper,
            "singular": c.is_singular,
            "orthogonal": c.is_orthogonal,
            "special": c.is_special,
            "unitar": c.is_unitar,
            "tol": {"abs": c.tol.abs, "rel": c.tol.rel},
        }
        if args.json:
            print(json.dumps(payload, separators=(",", ":")))
        else:
            for key, value in payload.items():
                print(f"{key}: {json.dumps(value, separators=(',', ':'))}")
    elif command == "sprod":
        _emit_complex(scalar_product(_pv_arg(args.A), _pv_arg(args.B)))
    elif command == "vprod":
        _emit_vector(
            vector_product(
                _pv_arg(args.A), _pv_arg(args.B), args.orientation
            )
        )
    elif command == "angle":
        result = angle(
            _pv_arg(args.A), _pv_arg(args.B), args.orientation, tol
        )
        _emit_paravector(result.value)
    elif command == "compose-angle":
        first = Angle(_pv_arg(args.P), args.orientation)
        second = Angle(_pv_arg(args.Q), args.orientation)
        _emit_paravector(compose_angles(first, second).value)
    elif command == "rotate":
        axis = RotationAxis.from_paravector(_pv_arg(args.AXIS), tol)
        _emit_paravector(rotate(_pv_arg(args.G), axis, args.orientation))
    elif command == "mirror":
        _emit_paravector(mirror(_pv_arg(args.G), _parse_vector(args.W), tol))
    elif command == "axial":
        _emit_paravector(
            axial_symmetry(_pv_arg(args.G), _parse_vector(args.W), tol)
        )
    elif command == "euler":
        r = euler_compose(_parse_rotation(args.R1), _parse_rotation(args.R2), tol)
        if args.json:
            print(json.dumps(
                {"n": list(r.n), "phi": r.phi, "axis_defined": r.axis_defined},
                separators=(",", ":"),
            ))
        else:
            print(serialize_numbers([r.n[0], r.n[1], r.n[2], r.phi]))
    elif command == "matrep":
        _emit_matrix(to_matrix4(_pv_arg(args.A)), args.json)
    elif command == "pauli":
        _emit_matrix(to_pauli(_pv_arg(args.A)), args.json)
    elif command == "fuzz":
        if args.trials < 1:
            raise _UsageError("--trials must be at least 1")
        if args.seed < 0:
            raise _UsageError("--seed must be nonnegative")
        report = run_fuzz(seed=args.seed, trials=args.trials, tol=tol, mutant=args.mutant)
        if args.json:
            print(json.dumps(report.to_dict(), separators=(",", ":")))
        else:
            print(report.format_text())
        return 3 if report.failed_properties else 0
    else:  # pragma: no cover - argparse enforces the choices
        raise _UsageError(f"unknown command {command!r}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = _resolve_tol(args)
        return _run(args, tol)
    except (_UsageError, ParseError, ArityError) as exc:
        print(f"pv: {exc}", file=sys.stderr)
        return 2
    except ParavectorError as exc:
        print(f"pv: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

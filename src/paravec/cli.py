"""The ``pv`` command line tool.

Operands and results travel as JSON arrays in the wire form of
``paravec.wire.to_wire``; ``paravec.wire`` parses every operand, and a
vector may omit its imaginary parts.  Results go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 domain error (singular, improper,
isotropic, ...), 2 usage or parse error, 3 fuzz campaign found a counterexample.
``--tol`` (or the ``PV_TOL`` environment variable) sets both tolerance halves.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import DEFAULT_TOL, Paravector, Tolerance, classify
from .errors import ArityError, ParavectorError, ParseError, ValidationError
from .geometry import Angle, angle, compose_angles
from .matrices import format_matrix, to_matrix4, to_pauli
from .products import _LEFT, _RIGHT, scalar_product, vector_product
from .transforms import RotationAxis, axial_symmetry, euler_compose, mirror, rotate
from .wire import _compact, _parse_rotation, _parse_vector, parse_paravector
from .wire import serialize_numbers, to_wire


class _UsageError(Exception):
    pass


def _text(value):
    if value == "-":
        data = sys.stdin.read().strip()
        if not data:
            raise ParseError("no data on stdin")
        return data
    return value


def _wire(x):
    return serialize_numbers(to_wire(x))


def _emit_classification(c, as_json):
    payload = dict(
        det=[c.det.real, c.det.imag],
        proper=c.is_proper,
        singular=c.is_singular,
        orthogonal=c.is_orthogonal,
        special=c.is_special,
        unitar=c.is_unitar,
        tol={"abs": c.tol.abs, "rel": c.tol.rel},
    )
    if as_json:
        return _compact(payload)
    return "\n".join(f"{key}: {_compact(value)}" for key, value in payload.items())


def _emit_rotation(r, as_json):
    if as_json:
        return _compact({"n": list(r.n), "phi": r.phi, "axis_defined": r.axis_defined})
    return _wire(r)


def _emit_matrix(m, as_json):
    if as_json:
        return _compact([[[e.real, e.imag] for e in row] for row in m.rows])
    return format_matrix(m.rows)


_PARAVECTOR = ("paravector as JSON [a,d,bx,by,bz,cx,cy,cz]", parse_paravector)
_ROTATION = ("rotation as JSON [nx,ny,nz,phi]", _parse_rotation)
# operand name: (help, parser of its text)
_OPERANDS = {
    **dict.fromkeys(("A", "B", "P", "Q", "G", "AXIS"), _PARAVECTOR),
    "W": ("vector as JSON [bx,by,bz] or [bx,by,bz,cx,cy,cz]", _parse_vector),
    "R1": _ROTATION,
    "R2": _ROTATION,
}

# name: (help, operands, orientation default or None, function of the parsed operands
#        [, orientation] and tol, emitter); --json exactly when the emitter takes as_json
_COMMANDS = {
    "add": ("sum of two paravectors", "A B", None, lambda a, b, tol: a + b, _wire),
    "mul": ("product of two paravectors", "A B", None, lambda a, b, tol: a * b, _wire),
    "rev": ("reversion (negated vector part)", "A", None, lambda a, tol: a.rev(), _wire),
    "conj": ("conjugation (conjugated components)", "A", None, lambda a, tol: a.conj(), _wire),
    "vig": ("product with own conjugate", "A", None, lambda a, tol: a.vig(), _wire),
    "det": ("determinant as [re,im]", "A", None, lambda a, tol: a.det(), _wire),
    "inv": ("multiplicative inverse", "A", None, Paravector.inverse, _wire),
    "module": ("square root of a real nonnegative determinant", "A", None,
               Paravector.module, _compact),
    "normalize": ("rescale to determinant one", "A", None, Paravector.normalize, _wire),
    "classify": ("proper/singular/orthogonal/special/unitar flags", "A", None,
                 classify, _emit_classification),
    "sprod": ("scalar product as [re,im]", "A B", None,
              lambda a, b, tol: scalar_product(a, b), _wire),
    "vprod": ("oriented vector product", "A B", _RIGHT,
              lambda a, b, o, tol: vector_product(a, b, o), _wire),
    "angle": ("oriented angle between proper paravectors", "A B", _RIGHT,
              lambda a, b, o, tol: angle(a, b, o, tol).value, _wire),
    "compose-angle": ("product of two same-oriented angles", "P Q", _RIGHT,
                      lambda p, q, o, tol: compose_angles(Angle(p, o), Angle(q, o)).value, _wire),
    "rotate": ("rotate G by the normalized axis paravector", "G AXIS", _LEFT,
               lambda g, axis, o, tol: rotate(g, RotationAxis.from_paravector(axis, tol), o),
               _wire),
    "mirror": ("mirror symmetry with normal W", "G W", None, mirror, _wire),
    "axial": ("straight-angle rotation around W", "G W", None, axial_symmetry, _wire),
    "euler": ("compose two spatial rotations", "R1 R2", None, euler_compose, _emit_rotation),
    "matrep": ("4x4 matrix representation", "A", None, lambda a, tol: to_matrix4(a), _emit_matrix),
    "pauli": ("2x2 sigma-basis representation", "A", None,
              lambda a, tol: to_pauli(a), _emit_matrix),
}


def _orientation_flags(sub, default):
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--left", dest="orientation", action="store_const",
        const=_LEFT, help="use the left orientation",
    )
    group.add_argument(
        "--right", dest="orientation", action="store_const",
        const=_RIGHT, help="use the right orientation",
    )
    sub.set_defaults(orientation=default)


def _subcommand(sub, name, summary):
    s = sub.add_parser(name, help=summary)
    # SUPPRESS keeps a root-level --tol from being clobbered by the default
    s.add_argument("--tol", type=float, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return s


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pv", description="paravector algebra calculator"
    )
    parser.add_argument(
        "--tol", type=float, default=None,
        help="absolute and relative tolerance (default 1e-9, or PV_TOL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, operands, orientation, _, emit) in _COMMANDS.items():
        s = _subcommand(sub, name, summary)
        for operand in operands.split():
            s.add_argument(operand, help=_OPERANDS[operand][0])
        if orientation is not None:
            _orientation_flags(s, orientation)
        if "as_json" in emit.__code__.co_varnames[: emit.__code__.co_argcount]:
            s.add_argument("--json", action="store_true")
    s = _subcommand(sub, "fuzz", "run the seeded property-fuzz campaign")
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--trials", type=int, default=10000)
    s.add_argument("--json", action="store_true")
    s.add_argument(
        "--mutant",
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


def _fuzz(args, tol):
    from .fuzz import run_fuzz  # loaded here so that other commands skip the registry

    try:
        report = run_fuzz(seed=args.seed, trials=args.trials, tol=tol, mutant=args.mutant)
    except ValueError as exc:  # an unknown mutant, a bad seed or fewer than one trial
        raise _UsageError(str(exc)) from None
    print(_compact(report.to_dict()) if args.json else report.format_text())
    return 3 if report.failed_properties else 0


def _run(args, tol):
    if args.command not in _COMMANDS:
        return _fuzz(args, tol)
    _, operands, orientation, function, emit = _COMMANDS[args.command]
    values = [_OPERANDS[name][1](_text(getattr(args, name))) for name in operands.split()]
    if orientation is not None:
        values.append(args.orientation)
    result = function(*values, tol)
    print(emit(result, args.json) if "json" in args else emit(result))
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

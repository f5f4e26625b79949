"""Command-line front end.

Thin wrappers over the library: every number printed is the value the
in-process API returns, serialized with full float precision.  JSON is
the default output; ``--format text`` prints a short human summary.

Exit codes: 0 ok, 1 selftest failure, 2 parse error, 3 dimension
mismatch or non-square matrix, 4 not unitary, 5 other error.  Matrix
files use {"rows": r, "cols": c, "data": [[re, im], ...]} row-major.
The UNIMETRIC_SEED environment variable overrides the default seed of
randomized subcommands, and a malformed value is a parse error like a
malformed ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import circlegeom, pauli, search, subsets
from .errors import (
    DimensionMismatchError,
    LengthMismatchError,
    NotSquareError,
    NotUnitaryError,
    PauliParseError,
    UnimetricError,
)
from .linalg import load_matrix, matrix_to_json, validate_unitary, vector_to_json
from .metrics import distinguishability, sup_distance_with_arc, tensor_distance
from .numrange import numrange_origin_distance

_EXIT_OK = 0
_EXIT_SELFTEST = 1
_EXIT_PARSE = 2
_EXIT_DIMENSION = 3
_EXIT_NOT_UNITARY = 4
_EXIT_OTHER = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


# library errors to exit codes, first match wins; a _CliError carries its own code
_EXIT_CODES = (
    ((DimensionMismatchError, LengthMismatchError, NotSquareError), _EXIT_DIMENSION),
    (NotUnitaryError, _EXIT_NOT_UNITARY),
    (PauliParseError, _EXIT_PARSE),
    (UnimetricError, _EXIT_OTHER),
)


def _load_matrix(path: str) -> np.ndarray:
    try:
        return load_matrix(path)
    except (OSError, ValueError, TypeError) as exc:
        raise _CliError(_EXIT_PARSE, f"cannot read matrix from {path}: {exc}") from exc


def _cmd_dist(args) -> tuple[dict, str]:
    u = _load_matrix(args.u)
    v = _load_matrix(args.v)
    result, arc = sup_distance_with_arc(u, v)
    payload = result.to_json()
    payload["alpha"] = arc.alpha
    angles, mults = circlegeom.angle_runs(arc)
    payload["eigen_angles"] = [float(a) for a in angles]
    payload["multiplicities"] = [int(m) for m in mults]
    return payload, f"d = {result.value!r} (arc alpha = {arc.alpha!r})"


def _cmd_distinguish(args) -> tuple[dict, str]:
    u = _load_matrix(args.u)
    v = _load_matrix(args.v)
    rep = distinguishability(u, v)
    payload = {
        "distinguishable": rep.distinguishable,
        "value": rep.value,
        "alpha": rep.arc_alpha,
        "witness": None if rep.witness is None else vector_to_json(rep.witness),
        "residual": rep.residual,
        "min_overlap_bound": rep.min_overlap_bound,
    }
    if rep.distinguishable:
        text = f"distinguishable (witness residual {rep.residual!r})"
    else:
        text = f"not distinguishable (min overlap bound {rep.min_overlap_bound!r})"
    return payload, text


def _cmd_tensor(args) -> tuple[dict, str]:
    value = tensor_distance(args.d1, args.d2)
    return (
        {"d1": args.d1, "d2": args.d2, "value": value},
        f"tensor distance = {value!r}",
    )


def _cmd_face_dist(args) -> tuple[dict, str]:
    u = _load_matrix(args.u)
    v = _load_matrix(args.v)
    basis = _load_matrix(args.basis)
    result = subsets.face_distance(u, v, basis)
    return result.to_json(), f"face distance = {result.value!r}"


def _cmd_sep_dist(args) -> tuple[dict, str]:
    u = _load_matrix(args.u)
    v = _load_matrix(args.v)
    try:
        dim_a, dim_b = (int(tok) for tok in args.dims.split(","))
    except ValueError as exc:
        raise _CliError(_EXIT_PARSE, f"--dims expects m,n: {exc}") from exc
    prob = subsets.SeparableProblem(
        dim_a=dim_a,
        dim_b=dim_b,
        restarts=args.restarts,
        max_alternations=args.max_alternations,
        seed=args.seed,
    )
    result = subsets.separable_distance(u, v, prob)
    payload = result.to_json()
    payload["dims"] = [dim_a, dim_b]
    payload["restarts"] = args.restarts
    payload["seed"] = args.seed
    return payload, f"separable distance = {result.value!r}"


def _parse_generators(text: str) -> list[pauli.PauliElement]:
    try:
        gens = pauli.parse_pauli_list(text)
    except PauliParseError as exc:
        raise _CliError(_EXIT_PARSE, str(exc)) from exc
    if not gens:
        raise _CliError(_EXIT_PARSE, "--gens is empty")
    return gens


def _cmd_nullspace(args) -> tuple[dict, str]:
    gens = _parse_generators(args.gens)
    result = subsets.null_space([g.to_matrix() for g in gens])
    payload = result.to_json()
    payload["generators"] = [str(g) for g in gens]
    return payload, f"{len(result.blocks)} joint eigenblocks"


def _cmd_stabilizer(args) -> tuple[dict, str]:
    gens = _parse_generators(args.gens)
    group = pauli.PauliSubgroup.from_generators(gens)
    dec = pauli.stabilizer_subspace(group)
    payload = {
        "generators": [str(g) for g in gens],
        "abelian": dec.abelian,
        "faces": [
            {
                "dimension": f.face.dim,
                "characters": [[c.real, c.imag] for c in f.characters],
                "basis": matrix_to_json(f.face.basis),
            }
            for f in dec.faces
        ],
    }
    text = (
        f"{len(dec.faces)} stabilizer faces"
        if dec.abelian
        else "non-abelian subgroup: no stabilizer faces"
    )
    return payload, text


def _cmd_search(args) -> tuple[dict, str]:
    if (args.alpha is None) == (args.N is None):
        raise _CliError(_EXIT_PARSE, "give exactly one of --alpha or --N")
    if args.N is not None:
        problem = search.SearchProblem.from_size(args.N, gamma=args.gamma, theta=args.theta)
    else:
        gamma = args.gamma if args.gamma is not None else args.alpha
        problem = search.SearchProblem(alpha=args.alpha, gamma=gamma, theta=args.theta)
    k, achieved = search.minimal_k(problem, args.epsilon)
    bound = (
        None if problem.N is None else math.ceil((math.pi / 2) * math.sqrt(problem.N))
    )
    payload = {
        "alpha": problem.alpha,
        "gamma": problem.gamma,
        "theta": problem.theta,
        "epsilon": args.epsilon,
        "k": k,
        "achieved": achieved,
        "bound_sqrtN": bound,
    }
    return payload, f"k = {k} reaches distance {achieved!r}"


def _cmd_numrange(args) -> tuple[dict, str]:
    m = _load_matrix(args.matrix)
    wop = validate_unitary(m)
    arc = circlegeom.smallest_covering_arc(wop.eigen_angles)
    poly, _ = circlegeom.polygon_distance_to_origin(arc)
    sweep, _ = numrange_origin_distance(wop.matrix)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(circlegeom.polygon_csv(arc))
    payload = {
        "alpha": arc.alpha,
        "covers_semicircle": arc.covers_semicircle,
        "polygon_distance": poly,
        "numrange_distance": sweep,
        "distance_from_identity": circlegeom.distance_from_arc(arc),
        "emitted": args.emit,
    }
    return payload, (
        f"polygon distance {poly!r}, sweep distance {sweep!r}, alpha {arc.alpha!r}"
    )


def _cmd_selftest(args) -> int:
    # imported here because no other command needs the checks, whose import costs ~11 ms
    from . import acceptance

    indices = None
    if args.criteria is not None:
        try:
            indices = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
        except ValueError as exc:
            raise _CliError(_EXIT_PARSE, f"--criteria expects integers: {exc}") from exc
        if not indices:
            raise _CliError(_EXIT_PARSE, "--criteria is empty")
        bad = [i for i in indices if not 1 <= i <= len(acceptance.check_names())]
        if bad:
            raise _CliError(_EXIT_PARSE, f"unknown criteria {bad}")
    results = acceptance.run_checks(indices=indices, seed=args.seed)
    print(acceptance.format_table(results))
    return _EXIT_OK if all(r.passed for r in results) else _EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimetric",
        description="Metrics and pseudometrics on unitary operators.",
        epilog=(
            "exit codes: 0 ok, 1 selftest failure, 2 parse error, "
            "3 dimension mismatch or non-square matrix, 4 not unitary, 5 other error. "
            "Matrix files: {\"rows\": r, \"cols\": c, \"data\": [[re, im], ...]} row-major. "
            "UNIMETRIC_SEED overrides the default seed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", default=None, help="write the report to a file")

    p = sub.add_parser("dist", help="sup-metric distance between two unitaries")
    p.add_argument("u")
    p.add_argument("v")
    add_output_flags(p)

    p = sub.add_parser("distinguish", help="one-shot distinguishability verdict")
    p.add_argument("u")
    p.add_argument("v")
    add_output_flags(p)

    p = sub.add_parser("tensor", help="compose factor distances for a tensor pair")
    p.add_argument("--d1", type=float, required=True)
    p.add_argument("--d2", type=float, required=True)
    add_output_flags(p)

    p = sub.add_parser("face-dist", help="distance over states supported in a subspace")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--basis", required=True, help="matrix file with orthonormal columns")
    add_output_flags(p)

    p = sub.add_parser("sep-dist", help="pseudometric over separable states")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--dims", required=True, help="factor dimensions m,n")
    # a dataclass field's default is also its class attribute
    p.add_argument(
        "--restarts",
        type=int,
        default=subsets.SeparableProblem.restarts,
        help="most restarts; a certified minimum ends them early",
    )
    p.add_argument(
        "--max-alternations", type=int, default=subsets.SeparableProblem.max_alternations
    )
    p.add_argument("--seed", type=int, default=os.environ.get("UNIMETRIC_SEED", "0"))
    add_output_flags(p)

    p = sub.add_parser("nullspace", help="joint eigenstructure of commuting Paulis")
    p.add_argument("--gens", required=True, help="comma-separated Pauli strings, e.g. +ZZ,+XX")
    add_output_flags(p)

    p = sub.add_parser("stabilizer", help="stabilizer faces of a Pauli subgroup")
    p.add_argument("--gens", required=True, help="comma-separated Pauli strings, e.g. +ZZ,+XX")
    add_output_flags(p)

    p = sub.add_parser("search", help="steps needed to approximate the search target")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--N", type=int, default=None, help="database size; alpha = arcsin(1/sqrt(N))")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, required=True)
    add_output_flags(p)

    p = sub.add_parser("numrange", help="numerical-range origin distance of a unitary")
    p.add_argument("matrix")
    p.add_argument("--emit", default=None, help="write the eigenangle polygon CSV here")
    add_output_flags(p)

    p = sub.add_parser("selftest", help="run the embedded verification suite")
    p.add_argument("--seed", type=int, default=os.environ.get("UNIMETRIC_SEED", "0"))
    p.add_argument("--criteria", default=None, help="comma-separated check numbers")

    return parser


_COMMANDS = {
    "dist": _cmd_dist,
    "distinguish": _cmd_distinguish,
    "tensor": _cmd_tensor,
    "face-dist": _cmd_face_dist,
    "sep-dist": _cmd_sep_dist,
    "nullspace": _cmd_nullspace,
    "stabilizer": _cmd_stabilizer,
    "search": _cmd_search,
    "numrange": _cmd_numrange,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        payload, text = _COMMANDS[args.command](args)
    except (_CliError, UnimetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _CliError):
            return exc.code
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    rendered = json.dumps(payload, indent=2) if args.format == "json" else text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

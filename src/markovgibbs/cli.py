"""Command-line front end: JSON problem files in, one JSON document out.

A problem file holds a matrix and optionally a potential::

    {"matrix": {"n": 4, "rows": [[0,1,1,1],[1,0,0,1],[0,1,0,0],[0,1,0,0]]},
     "potential": {"q_matrix": [[null, "1/5", "1", "2/5"],
                                ["1", null, null, "3/5"],
                                [null, "3/10", null, null],
                                [null, "1/2", null, null]]}}

``log_values`` gives real edge values of a potential (nested arrays, null
off the edges); ``q_matrix`` gives exact rational column-stochastic entries
directly ("p/q" strings or integers) and switches comparisons to exact
arithmetic.  Exit codes: 0 success, 2 precondition or input violation,
3 numerical failure, 4 obstruction result.

Each command is declared once, by ``@_command(group, name, *options)`` on its
handler; the parser is built from those declarations in order.  A handler takes
the loaded ``--input`` problem and the parsed arguments and returns its document,
or (document, exit code); ``main`` puts ``"command": "GROUP NAME"`` first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import PreconditionError, SolverError
from .gibbs import (
    Comparison,
    GibbsChain,
    Potential,
    cohomologous_with_constant,
    cylinder_measure,
    ks_entropy,
    normalize,
)
from .rigidity import (
    ConjugacyObstruction,
    counterexample_matrix,
    induce_conjugacy,
    reconstruct_word,
    has_distinct_branch_values,
    sampled_distinct_fraction,
    snr_certificate,
    spectral_twin_chain,
)
from .shiftcore import (
    TransitionMatrix,
    automorphisms,
    cycle_intersection_condition,
    is_primitive,
    simple_cycles,
    structure,
    total_amalgamation,
)
from .spectrum import char_poly_family_equal, spectrum_curve
from .tolerances import CHAR_POLY_TOL

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_SOLVER = 3
EXIT_OBSTRUCTION = 4


class InputError(PreconditionError):
    """Malformed problem file; the message carries a line or field diagnostic."""


# ---------------------------------------------------------------------------
# Deterministic JSON output with floats at 17 significant digits.


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise SolverError("refusing to serialize a non-finite number")
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _dumps(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return json.dumps(str(value.numerator))
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_dumps(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _dumps(value.tolist())
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, np.floating):
        return _format_float(float(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


# ---------------------------------------------------------------------------
# Problem-file parsing.


class Problem:
    def __init__(self, matrix, potential_kind, potential_payload, digest):
        self.matrix = matrix
        self.potential_kind = potential_kind  # None | "log_values" | "q_matrix"
        self.potential_payload = potential_payload
        self.digest = digest


def _parse_rational(cell, where):
    if isinstance(cell, bool) or not isinstance(cell, (int, str)):
        raise InputError(f"{where}: rational entries must be integers or 'p/q' strings")
    try:
        return Fraction(cell)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def _edge_table(raw, matrix, field, parse):
    n = matrix.n
    if not isinstance(raw, list) or len(raw) != n or any(not isinstance(r, list) or len(r) != n for r in raw):
        raise InputError(f"{field}: expected a {n}x{n} nested array")
    values = {}
    for i in range(n):
        for j in range(n):
            cell = raw[i][j]
            where = f"{field}[{i}][{j}]"
            if matrix.entries[i, j] == 1:
                if cell is None:
                    raise InputError(f"{where}: value required on edge ({i + 1}, {j + 1})")
                values[(i + 1, j + 1)] = parse(cell, where)
            elif cell is not None:
                raise InputError(f"{where}: ({i + 1}, {j + 1}) is not an edge; use null")
    return values


def load_problem(path: str) -> Problem:
    try:
        blob = open(path, "rb").read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    try:
        doc = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InputError(f"{path}: top-level object with a 'matrix' field required")
    field = doc["matrix"]
    if not isinstance(field, dict) or "n" not in field or "rows" not in field:
        raise InputError("matrix: object with fields 'n' and 'rows' required")
    n = field["n"]
    rows = field["rows"]
    if not isinstance(n, int) or not isinstance(rows, list) or len(rows) != n:
        raise InputError("matrix.rows: expected exactly matrix.n rows")
    try:
        matrix = TransitionMatrix(rows)
    except PreconditionError as exc:
        raise InputError(f"matrix.rows: {exc}") from exc
    if matrix == counterexample_matrix():
        matrix = counterexample_matrix()  # the shared base, whose derived data is computed once
    kind = None
    payload = None
    pot = doc.get("potential")
    if pot is not None:
        if not isinstance(pot, dict) or len(set(pot) & {"log_values", "q_matrix"}) != 1:
            raise InputError("potential: exactly one of 'log_values' or 'q_matrix' required")
        if "log_values" in pot:
            kind = "log_values"

            def parse_real(cell, where):
                if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                    raise InputError(f"{where}: real number required")
                return float(cell)

            payload = _edge_table(pot["log_values"], matrix, "potential.log_values", parse_real)
        else:
            kind = "q_matrix"
            payload = _edge_table(pot["q_matrix"], matrix, "potential.q_matrix", _parse_rational)
    return Problem(matrix, kind, payload, digest)


def _require_chain(problem: Problem) -> GibbsChain:
    if problem.potential_kind is None:
        raise InputError("this command needs a 'potential' field in the input file")
    if problem.potential_kind == "q_matrix":
        return GibbsChain.from_stochastic(problem.matrix, problem.potential_payload)
    chain, _ = normalize(Potential(problem.matrix, problem.potential_payload))
    return chain


def _require_potential(problem: Problem) -> Potential:
    if problem.potential_kind == "log_values":
        return Potential(problem.matrix, problem.potential_payload)
    return _require_chain(problem).normalized_potential()


def _parse_word(text: str, n: int) -> tuple:
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        if n > 9:
            raise InputError("alphabets beyond 9 symbols need comma-separated words")
        parts = list(text.strip())
    try:
        word = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"--word: {exc}") from exc
    if any(s < 1 or s > n for s in word):
        raise InputError(f"--word: symbols must lie in 1..{n}")
    return word


def _edge_grid(matrix: TransitionMatrix, getter):
    return [
        [getter(i + 1, j + 1) if matrix.entries[i, j] == 1 else None for j in range(matrix.n)]
        for i in range(matrix.n)
    ]


def _matrix_doc(matrix: TransitionMatrix) -> dict:
    return {"n": matrix.n, "rows": [[int(x) for x in row] for row in matrix.entries]}


def _chain_potential_doc(chain: GibbsChain) -> dict:
    if Comparison.of(chain).exact:
        return {"q_matrix": _edge_grid(chain.base, lambda i, j: chain.entries[(i, j)])}
    return {"log_values": _edge_grid(chain.base, lambda i, j: math.log(chain.value(i, j)))}


# ---------------------------------------------------------------------------
# Command handlers.


_COMMANDS = []  # (group, name, handler, options) in declaration order


def _command(group, name, *options):
    def register(handler):
        _COMMANDS.append((group, name, handler, options))
        return handler
    return register


@_command("shift", "info")
def _cmd_shift_info(problem, args):
    st = structure(problem.matrix)
    return {
        "n": problem.matrix.n,
        "primitive": is_primitive(problem.matrix),
        "edges": [list(e) for e in st.edges],
        "in_degrees": list(st.in_degrees),
        "branch_symbols": sorted(st.branch_symbols),
        "branch_edges": [list(e) for e in sorted(st.branch_edges)],
    }


@_command("shift", "cycles")
def _cmd_shift_cycles(problem, args):
    cycles = simple_cycles(problem.matrix)
    holds, violations = cycle_intersection_condition(problem.matrix)
    return {
        "cycles": [list(c) for c in cycles],
        "intersection_condition": {
            "holds": holds,
            "violations": [[list(a), list(b)] for a, b in violations],
        },
    }


@_command("shift", "amalgamate")
def _cmd_shift_amalgamate(problem, args):
    reduced, mapping = total_amalgamation(problem.matrix)
    return {
        "matrix": _matrix_doc(reduced),
        "merge_map": {str(k): v for k, v in sorted(mapping.items())},
        "fixed_point": reduced.n == problem.matrix.n,
    }


@_command("shift", "autos")
def _cmd_shift_autos(problem, args):
    result = automorphisms(problem.matrix)
    return {
        "status": result.status,
        "permutations": [list(p) for p in result.permutations],
    }


@_command("gibbs", "normalize")
def _cmd_gibbs_normalize(problem, args):
    if problem.potential_kind == "q_matrix":
        chain = _require_chain(problem)
        root, left = 1.0, [1.0 / problem.matrix.n] * problem.matrix.n
    else:
        chain, data = normalize(_require_potential(problem))
        root, left = data.root, list(data.left)
    return {
        "mode": Comparison.of(chain).mode,
        "perron_root": root,
        "left_eigenvector": left,
        "stochastic_matrix": [list(row) for row in chain.q],
        "stationary": list(chain.pi),
        "normalized_log_values": _edge_grid(chain.base, lambda i, j: math.log(chain.value(i, j))),
    }


@_command("gibbs", "measure", ("--word", {"required": True}))
def _cmd_gibbs_measure(problem, args):
    chain = _require_chain(problem)
    word = _parse_word(args.word, problem.matrix.n)
    return {
        "word": list(word),
        "measure": cylinder_measure(chain, word),
    }


@_command("gibbs", "entropy")
def _cmd_gibbs_entropy(problem, args):
    chain = _require_chain(problem)
    return {"entropy": ks_entropy(chain)}


@_command("gibbs", "cohomology", ("--other", {"required": True}))
def _cmd_gibbs_cohomology(problem, args):
    other = load_problem(args.other)
    same, witness = cohomologous_with_constant(
        _require_potential(problem), _require_potential(other)
    )
    return {
        "cohomologous": same,
        "witness_cycle": None if witness is None else list(witness),
    }


@_command(
    "spectrum",
    "curve",
    ("--qmin", {"type": float, "default": -3.0}),
    ("--qmax", {"type": float, "default": 3.0}),
    ("--steps", {"type": int, "default": 25}),
    ("--table", {"default": None, "help": "also write a q,alpha,entropy CSV table to this path"}),
)
def _cmd_spectrum_curve(problem, args):
    chain = _require_chain(problem)
    curve = spectrum_curve(chain, args.qmin, args.qmax, args.steps)
    if args.table is not None:
        lines = ["q,alpha,entropy"]
        lines += [
            f"{_format_float(q)},{_format_float(a)},{_format_float(e)}"
            for q, a, e in curve.samples
        ]
        with open(args.table, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    return {
        "samples": [{"q": q, "alpha": a, "entropy": e} for q, a, e in curve.samples],
        "table": args.table,
    }


@_command(
    "spectrum",
    "compare",
    ("--other", {"required": True}),
    ("--tol", {"type": float, "default": CHAR_POLY_TOL}),
)
def _cmd_spectrum_compare(problem, args):
    other = load_problem(args.other)
    chain_a = _require_chain(problem)
    chain_b = _require_chain(other)
    equal, deviation = char_poly_family_equal(chain_a, chain_b, tol=args.tol)
    comparison = Comparison.of(chain_a, chain_b)
    doc = {"equal": equal, "max_deviation": deviation, "mode": comparison.mode}
    if not comparison.exact:
        doc["note"] = "numerical mode compares coefficients on a finite grid; heuristic"
    return doc


@_command("rigidity", "check-g")
def _cmd_rigidity_check_g(problem, args):
    chain = _require_chain(problem)
    distinct, collision = has_distinct_branch_values(chain)
    return {
        "mode": Comparison.of(chain).mode,
        "distinct": distinct,
        "collision": None if collision is None else [list(collision[0]), list(collision[1])],
    }


@_command(
    "rigidity",
    "sample-g",
    ("--samples", {"type": int, "default": 1000}),
    ("--seed", {"type": int, "default": 0}),
)
def _cmd_rigidity_sample_g(problem, args):
    fraction = sampled_distinct_fraction(problem.matrix, args.samples, args.seed)
    return {
        "samples": args.samples,
        "seed": args.seed,
        "fraction": fraction,
    }


@_command("rigidity", "reconstruct", ("--values", {"required": True}))
def _cmd_rigidity_reconstruct(problem, args):
    chain = _require_chain(problem)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise InputError(f"--values: {exc}") from exc
    word = reconstruct_word(chain, values)
    return {
        "values": values,
        "word": list(word),
    }


@_command("rigidity", "conjugacy", ("--other", {"required": True}))
def _cmd_rigidity_conjugacy(problem, args):
    other = load_problem(args.other)
    result = induce_conjugacy(_require_chain(problem), _require_chain(other))
    if isinstance(result, ConjugacyObstruction):
        return {
            "obstruction": {
                "kind": result.kind,
                "missing_from_target": list(result.missing_from_target),
                "missing_from_source": list(result.missing_from_source),
                "detail": result.detail,
            },
        }, EXIT_OBSTRUCTION
    return {
        "code": {
            "window": result.window,
            "identity": result.is_identity(),
            "table": [[list(word), symbol] for word, symbol in sorted(result.table.items())],
        },
    }


@_command("rigidity", "counterexample")
def _cmd_rigidity_counterexample(problem, args):
    twin = spectral_twin_chain(_require_chain(problem))
    return {
        "matrix": _matrix_doc(twin.base),
        "potential": _chain_potential_doc(twin),
        "stochastic_matrix": [list(row) for row in twin.q],
    }


@_command(
    "rigidity",
    "certificate",
    ("--seed", {"type": int, "default": 0, "help": "echoed into the output; the certificate ignores it"}),
)
def _cmd_rigidity_certificate(problem, args):
    cert = snr_certificate(_require_chain(problem))
    details = cert.details
    return {
        "verdict": cert.verdict,
        "checks": dict(cert.checks),
        "witness_cycle": None if details["witness_cycle"] is None else list(details["witness_cycle"]),
        "collision": None if details["collision"] is None else [list(e) for e in details["collision"]],
        "spectra_max_deviation": details["spectra_max_deviation"],
        "automorphism_status": details["automorphism_status"],
        "value_sets": {
            "missing_from_g": list(details["missing_from_g"]),
            "missing_from_f": list(details["missing_from_f"]),
        },
        "twin_potential": _chain_potential_doc(cert.twin),
        "mode": details["mode"],
        "tolerances": dict(details["tolerances"]),
        "tool_version": __version__,
        "input_digest": problem.digest,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovgibbs",
        description="Gibbs chains, entropy spectra, and non-rigidity certificates on Markov shifts",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    commands = {}  # group name -> its subparsers action
    for group, name, handler, options in _COMMANDS:
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(dest="command", required=True)
        sub = commands[group].add_parser(name)
        sub.add_argument("--input", required=True, help="problem file (JSON)")
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(load_problem(args.input), args)
        doc, code = result if isinstance(result, tuple) else (result, EXIT_OK)
        text = _dumps({"command": f"{args.group} {args.command}", **doc})  # a non-finite real is a SolverError
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

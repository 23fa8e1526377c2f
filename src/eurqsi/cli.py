"""Command-line front end: gallery runs, scenario checks, fuzzing, experiments.

Exit codes form a stable contract: 0 pass, 1 tolerance failure, 2 parse
error, 3 input validation error.  JSON is the canonical output (17
significant digits, sorted keys, byte-identical under replay); csv and
table are projections of it.  Each command builds its payload, its csv rows
and its table, and one renderer, :func:`_render`, writes the one that
``--format`` asks for with :func:`_emit`; the csv header is read off the
rows' keys.  If the EURQSI_OUTDIR environment variable is set, the rendered
output is also written there atomically; when it cannot be, the command
exits 2 with one stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import gallery
from .relations import FIDELITY_TOL, RELATION_IDS, check_bipartite, fuzz
from .serialize import canonical_json, load_scenario
from .simulate import MAX_SHOTS, NoiseSpec, run_experiment

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv(rows: list[dict]) -> str:
    """The rows as csv, under a header of the first row's keys."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def _aligned(rows: list[tuple]) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(f"{str(v):<{w}}" for v, w in zip(row, widths)) for row in rows
    ) + "\n"


def _key_values(d: dict) -> list[dict]:
    """One ``key, value`` row per entry of ``d``, a list value as its text."""
    return [{"key": k, "value": str(v) if isinstance(v, list) else v} for k, v in d.items()]


def _render(args, name: str, payload: dict, csv_rows: list[dict], table: str) -> int:
    """Write ``payload`` as canonical JSON, or its projection ``csv_rows``
    or ``table``, as ``--format`` asks, with :func:`_emit`; its exit code."""
    if args.format == "json":
        text = canonical_json(payload) + "\n"
    elif args.format == "csv":
        text = _csv(csv_rows)
    else:
        text = table
    return _emit(text, f"{name}.{args.format}")


def _emit(text: str, out_name: str) -> int:
    """Write ``text`` to stdout and, atomically, to ``out_name`` in
    EURQSI_OUTDIR when it is set; exit 2, with one stderr line, when that
    file cannot be written."""
    sys.stdout.write(text)
    out_dir = os.environ.get("EURQSI_OUTDIR")
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=out_name + ".")
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, os.path.join(out_dir, out_name))
        except OSError as exc:
            sys.stderr.write(f"error: cannot write output: {exc}\n")
            return EXIT_PARSE
    return EXIT_OK


def _parse_noise(spec: str | None) -> NoiseSpec:
    if not spec or spec == "none":
        return NoiseSpec()
    values = {}
    for part in spec.split(","):
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in ("depolarizing", "readout") or not raw or key in values:
            raise ValueError(
                f"noise spec must look like depolarizing=P,readout=Q, each key once; got {spec!r}"
            )
        values[key] = float(raw)
    return NoiseSpec(values.get("depolarizing", 0.0), values.get("readout", 0.0))


def _verdict(name: str, slack: float, tolerance: float) -> int:
    """Exit 1, with one stderr line, when ``slack`` is below ``-tolerance``."""
    if slack >= -tolerance:
        return EXIT_OK
    sys.stderr.write(f"violation: {name} {slack:.3e} < -{tolerance:g} (--tolerance)\n")
    return EXIT_TOLERANCE


def cmd_examples(args) -> int:
    rows = gallery.run_all(tolerance_override=args.tolerance)
    ok = gallery.all_ok(rows)
    checks = [r.to_dict() for r in rows]
    payload = {"command": "examples", "cases": len(gallery.CASE_IDS), "all_ok": ok,
               "checks": checks}
    table = [("case", "check", "residual", "tolerance", "ok")]
    for r in rows:
        table.append((r.case, r.check, f"{r.residual:.3e}", f"{r.tolerance:.0e}",
                      "pass" if r.ok else "FAIL"))
    return (_render(args, "examples", payload, checks, _aligned(table) + f"all_ok: {ok}\n")
            or (EXIT_OK if ok else EXIT_TOLERANCE))


def cmd_check(args) -> int:
    try:
        rho, x_pvm, z_pvm = load_scenario(args.scenario)
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            f"error: cannot parse scenario: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})\n"
        )
        return EXIT_PARSE
    except RecursionError as exc:  # nested deeper than the parser recurses
        sys.stderr.write(f"error: cannot parse scenario: {exc}\n")
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: cannot read scenario: {exc}\n")
        return EXIT_PARSE
    report = check_bipartite(rho, x_pvm, z_pvm)
    d = report.to_dict()
    payload = {"command": "check", "scenario": str(args.scenario), "report": d}
    return (_render(args, "check", payload, _key_values(d), report.table() + "\n")
            or _verdict("slack_refined", report.slack_refined, args.tolerance))


def cmd_fuzz(args) -> int:
    summary = fuzz(args.relation, args.trials, args.dim, args.seed)
    d = summary.to_dict()
    rows = _key_values({k: v for k, v in d.items() if k not in ("worst_report", "worst_instance")})
    table = _aligned([(r["key"], r["value"]) for r in rows])
    return (_render(args, "fuzz", {"command": "fuzz", **d}, rows, table)
            or _verdict("min_slack", summary.min_slack, args.tolerance))


def cmd_experiment(args) -> int:
    try:
        noise = _parse_noise(args.noise)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    result = run_experiment(args.id, shots=args.shots, noise=noise, seed=args.seed)
    rows = []
    lines = [f"experiment {result.experiment}  shots {result.shots}  seed {result.seed}"]
    for name, t in sorted(result.tables.items()):
        table = [("outcome", "count", "frequency", "stderr")]
        for row in t.to_rows():
            rows.append({"table": name, **row})
            table.append((row["outcome"], row["count"],
                          f"{row['frequency']:.6f}", f"{row['stderr']:.6f}"))
        lines += [f"\n[{name}]", _aligned(table).rstrip("\n")]
    if result.bloch_estimate is not None:
        x, y, z = result.bloch_estimate
        lines.append(f"\nbloch estimate  ({x:+.6f}, {y:+.6f}, {z:+.6f})")
    payload = {"command": "experiment", **result.to_dict()}
    return _render(args, f"experiment_{args.id}", payload, rows, "\n".join(lines) + "\n")


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not value > 0.0:  # NaN included
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {raw}")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw}")
    return value


def _shot_count(raw: str) -> int:
    value = _positive_int(raw)
    if value > MAX_SHOTS:
        raise argparse.ArgumentTypeError(f"must be at most 2**63 - 1, got {raw}")
    return value


def _non_negative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eurqsi",
        description="Numerical checks of entropic uncertainty relations with "
                    "quantum side information and their measurement-reversibility "
                    "refinement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tolerance=None):
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        if tolerance is not None:
            p.add_argument("--tolerance", type=_positive_float, default=tolerance,
                           help="pass/fail threshold (exit code 1 beyond it)")

    p = sub.add_parser("examples", help="replay the four built-in worked examples")
    common(p, tolerance=None)
    p.add_argument("--tolerance", type=_positive_float, default=None,
                   help="override every residual tolerance class")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("check", help="audit the relations on a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    common(p, tolerance=FIDELITY_TOL)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="stress the inequalities on random instances")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--dim", type=_positive_int, default=2,
                   help="dimension of the measured system")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--relation", choices=RELATION_IDS, default="bipartite_refined")
    common(p, tolerance=FIDELITY_TOL)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("experiment", help="simulate one of the six circuit protocols")
    p.add_argument("id", type=int, choices=range(1, 7), metavar="ID",
                   help="experiment number, 1-6")
    p.add_argument("--shots", type=_shot_count, default=8192)
    p.add_argument("--noise", default=None, metavar="depolarizing=P,readout=Q")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    common(p, tolerance=None)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # InvalidStateError included: exit 3 for any rejected input
        sys.stderr.write(f"error: invalid input: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

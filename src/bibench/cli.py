"""Command line interface and figure-data export.

Exit status: 0 on success, 1 on any domain or usage error, 2 when
verification finds a must-match mismatch. All file outputs are plain
delimiter-separated text, written deterministically: same inputs, same
bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bitstring import BitString
from .errors import DomainError, ValidationError
from .evolve import MAX_SEEDS, RunConfig, Target, hitting_time_experiment, render_experiment
from .landscape import LandscapeReport, _report_pieces, enumerate_landscape, summary_line
from .oracles import DEFAULT_GRID_SIZES, grid_instances, render_verification, verify
from .problems import FAMILY_NAMES, evaluate, family_catalog, parse_descriptor

# The families whose record has a Pareto-share formula, by name.
_RATIO_FAMILIES = {info.name: info for info in family_catalog() if info.ratio_lines}


@dataclass(frozen=True)
class FigureDataset:
    """A figure-ready table: header plus integer/text rows."""

    kind: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def render(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(str(cell) for cell in row) for row in self.rows)
        return "\n".join(lines) + "\n"


def figure_objectives_vs_ones(report: LandscapeReport) -> FigureDataset:
    """Rows (ones, objective, value, count): objective values by ones count."""
    rows = []
    for ones, summary in report.ones_tables:
        rows.extend((ones, 1, value, count) for value, count in summary.f1_counts)
        rows.extend((ones, 2, value, count) for value, count in summary.f2_counts)
    return FigureDataset("objectives_vs_ones", ("ones", "objective", "value", "count"), tuple(rows))


def figure_objective_space(report: LandscapeReport) -> FigureDataset:
    """Rows (f1, f2, count, class); a vector whose preimages fall into several
    classes gets one row per class."""
    front = dict(report.front_counts)
    local = dict(report.local_front_counts)
    rows = []
    for vec in sorted(report.vector_counts):
        remaining = report.vector_counts[vec]
        classified = []
        if vec in front:
            classified.append(("pareto", front[vec]))
            remaining -= front[vec]
        if vec in local:
            classified.append(("local_optimum", local[vec]))
            remaining -= local[vec]
        if remaining:
            classified.append(("other", remaining))
        rows.extend(
            (vec[0], vec[1], count, label)
            for label, count in sorted(classified)
        )
    return FigureDataset("objective_space", ("f1", "f2", "count", "class"), tuple(rows))


def figure_levels_vs_ones(report: LandscapeReport) -> FigureDataset:
    """Rows (ones, level, count); together they cover every string once."""
    rows = []
    for ones, summary in report.ones_tables:
        rows.extend((ones, level, count) for level, count in summary.level_counts)
    return FigureDataset("levels_vs_ones", ("ones", "level", "count"), tuple(rows))


_FIGURE_BUILDERS = {
    "objectives_vs_ones": figure_objectives_vs_ones,
    "objective_space": figure_objective_space,
    "levels_vs_ones": figure_levels_vs_ones,
}
FIGURE_KINDS = tuple(_FIGURE_BUILDERS)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # verification failures, so usage problems become domain errors.
    def __init__(self, *args, **kwargs):
        # An unknown flag that prefixes a real one (--n for --n-max) is a
        # usage error, not silently taken as that flag.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise DomainError(message)


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("descriptor", help="instance like 'ojzr:n=12,k=5,l=3'")


def _write_text(path: str, pieces) -> None:
    """Write the str pieces, in order, to the file at path."""
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _parse_seeds(text: str) -> list[int]:
    """Seed list grammar: '7', '1,2,9', or inclusive range '1..50'; at most
    MAX_SEEDS seeds, none negative."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
            seeds = range(lo, hi + 1)
            count = hi - lo + 1  # len(range) overflows beyond sys.maxsize
        else:
            seeds = [int(part) for part in text.split(",")]
            count = len(seeds)
    except ValueError:
        raise ValidationError(f"bad seed list {text!r}") from None
    if count < 1:
        raise ValidationError(f"empty seed range {text!r}")
    if count > MAX_SEEDS:
        raise ValidationError(f"at most {MAX_SEEDS} seeds per run, got {count}")
    lowest = min(seeds)
    if lowest < 0:
        # random.Random seeds with |seed|: -3 would repeat the run of seed 3.
        raise ValidationError(f"seeds must be non-negative, got {lowest}")
    return list(seeds)


def _parse_budget(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"bad budget {text!r}") from None
    if not value.is_integer() or value < 1:
        raise ValidationError(f"budget must be a positive integer, got {text!r}")
    return int(value)


def _parse_target(text: str) -> Target:
    """Target grammar: full_front, front_point=f1,f2, coverage=fraction."""
    if text == "full_front":
        return Target.full_front()
    head, eq, tail = text.partition("=")
    if head == "front_point" and eq:
        parts = tail.split(",")
        if len(parts) != 2:
            raise ValidationError(f"front_point needs 'f1,f2', got {tail!r}")
        try:
            return Target.front_point((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValidationError(f"front_point needs integers, got {tail!r}") from None
    if head == "coverage" and eq:
        try:
            fraction = Fraction(tail)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"bad coverage fraction {tail!r}") from None
        return Target.coverage(fraction)
    raise ValidationError(
        f"unknown target {text!r}; use full_front, front_point=f1,f2, or coverage=0.9"
    )


def cmd_eval(args) -> int:
    inst = parse_descriptor(args.descriptor)
    vec = evaluate(inst, BitString.from_text(args.bits))
    print(f"({vec[0]},{vec[1]})")
    return 0


def cmd_landscape(args) -> int:
    inst = parse_descriptor(args.descriptor)
    report = enumerate_landscape(inst)
    _write_text(args.out, _report_pieces(report))
    print(summary_line(report))
    return 0


def cmd_verify(args) -> int:
    sizes = tuple(s for s in DEFAULT_GRID_SIZES if s <= args.n_max)
    if not sizes:
        raise ValidationError(f"--n-max {args.n_max} leaves no grid sizes {DEFAULT_GRID_SIZES}")
    if args.n_max > max(DEFAULT_GRID_SIZES):
        raise ValidationError(f"--n-max {args.n_max} is above the grid sizes {DEFAULT_GRID_SIZES}")
    families = None if args.scope == "all" else (args.scope,)
    reports = [verify(inst) for inst in grid_instances(families, sizes)]
    failures = sum(not r.must_match_ok for r in reports)
    informational = sum(r.must_match_ok and not all(c.matched for c in r.claims) for r in reports)
    body = "".join(map(render_verification, reports))
    summary = (
        f"instances={len(reports)} must_match_failures={failures}"
        f" informational_mismatches={informational}"
    )
    if args.out:
        _write_text(args.out, (body, summary, "\n"))
    else:
        sys.stdout.write(body)
    print(summary)
    return 0 if failures == 0 else 2


def cmd_ratio(args) -> int:
    info = _RATIO_FAMILIES[args.ratio_family]
    if ("l" in info.params) != (args.l is not None):
        raise ValidationError(f"{info.name} {'takes no' if args.l is not None else 'needs'} --l")
    for line in info.ratio_lines(args.n, args.k, args.l):
        print(line)
    return 0


def cmd_figure(args) -> int:
    inst = parse_descriptor(args.descriptor)
    report = enumerate_landscape(inst)
    dataset = _FIGURE_BUILDERS[args.kind](report)
    _write_text(args.out, (dataset.render(),))
    print(f"{dataset.kind}: {len(dataset.rows)} rows")
    return 0


def cmd_run(args) -> int:
    inst = parse_descriptor(args.descriptor)
    seeds = _parse_seeds(args.seeds)
    template = RunConfig(
        algorithm=args.algorithm,
        instance=inst,
        seed=0,
        budget=_parse_budget(args.budget),
        target=_parse_target(args.target),
    )
    experiment = hitting_time_experiment(template, seeds, threads=args.threads)
    text = render_experiment(experiment)
    if args.out:
        _write_text(args.out, (text,))
        print(text.rstrip("\n").rsplit("\n", 1)[-1])
    else:
        sys.stdout.write(text)
    return 0


def cmd_families(args) -> int:
    for info in family_catalog():
        params = ",".join(info.params) if info.params else "-"
        print(f"{info.name}: objectives=({info.objectives[0]}; {info.objectives[1]})"
              f" params={params} constraints={info.constraints}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="bibench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one string on one instance")
    _add_instance_args(p)
    p.add_argument("bits", help="string like 11100000")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("landscape", help="exhaustive landscape report")
    _add_instance_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("verify", help="closed forms vs enumeration on the size grid")
    p.add_argument("scope", choices=FAMILY_NAMES + ("all",))
    p.add_argument("--n-max", type=int, default=max(DEFAULT_GRID_SIZES))
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ratio", help="exact Pareto-share formulas")
    p.add_argument("ratio_family", metavar="family", choices=tuple(_RATIO_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("figure", help="export plot-ready datasets")
    _add_instance_args(p)
    p.add_argument("--kind", required=True, choices=FIGURE_KINDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("run", help="seeded SEMO/GSEMO hitting-time experiment")
    p.add_argument("algorithm", choices=("semo", "gsemo"))
    _add_instance_args(p)
    p.add_argument("--seeds", required=True, help="'7', '1,2,9', or '1..50'")
    p.add_argument("--budget", required=True, help="evaluation budget, e.g. 1e6")
    p.add_argument("--target", default="full_front")
    p.add_argument("--out")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("families", help="list families, parameters, constraints")
    p.set_defaults(func=cmd_families)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

"""Command-line entry point wiring corpus -> indices/sampling -> stats and
profile outputs with reproducible configuration.

The CLI adds no numeric computation of its own; every value it writes comes
from the library modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .corpus import (CorpusError, csv_text, load_corpus, read_scores, read_text,
                     write_atomic)
from .indices import (
    INDEXES,
    MAAS_VARIANTS,
    IndexError_,
    IndexKind,
    IndexSpec,
    evaluate,
    index_kind,
    token_weights,
)
from .numerics import NumericsError
from .profiles import (
    ProfilesError,
    center_columns,
    check_columns,
    emit_plot_data,
    hdd_presence_curves,
    select_profiles,
    subset_rows,
)
from .sampling import (
    DEFAULT_ITERATIONS,
    METHODS,
    SamplingConfig,
    SamplingError,
    ScoreMatrix,
    check_unique_labels,
    parameter_sweep,
    run_method,
    stream_seed,
)
from .stats import (
    StatsError,
    check_shape,
    compare_correlations,
    icc_2_1,
    rm_anova,
)

# Fixed default so that runs without --seed / LEXDIV_SEED are reproducible.
DEFAULT_SEED = 101


class CliError(Exception):
    pass


@dataclass
class RunConfig:
    """Full, serializable description of one experiment run."""

    subcommand: str
    corpus_dir: Optional[str] = None
    case_policy: str = "fold"
    min_length: int = 0
    index: Optional[str] = None
    n: Optional[int] = None
    s: Optional[int] = None
    factor: Optional[float] = None
    maas_variant: Optional[str] = None
    method: Optional[str] = None
    truncate_to: Optional[int] = None
    conditions: Optional[tuple] = None
    params: Optional[list] = None
    iterations: Optional[int] = None  # None where no column is drawn
    master_seed: int = DEFAULT_SEED
    threads: int = 1
    outputs: dict = field(default_factory=dict)


def _write_or_print(path, text: str, end: str = "\n"):
    """Write text atomically to path, or print it when there is no path."""
    if path:
        write_atomic(path, text)
    else:
        print(text, end=end)


def _write_sidecar(out_path, config: RunConfig, extra=None):
    versions = {"lexdiv": __version__, "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3]))}
    meta = {"tool": "lexdiv", "version": __version__, "versions": versions,
            "config": asdict(config)}
    if extra:
        meta.update(extra)
    write_atomic(str(out_path) + ".meta.json",
                 json.dumps(meta, indent=2, sort_keys=True))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("LEXDIV_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"LEXDIV_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _load_corpus(args):
    if not args.corpus:
        raise CliError("--corpus is required")
    return load_corpus(args.corpus, case_policy=args.case,
                       min_length=args.min_length)


def _spec_from(args) -> IndexSpec:
    return IndexSpec(kind=args.index, n=args.n, s=args.s, factor=args.factor,
                     maas_variant=args.maas_variant)


def _parse_conditions(raw, cast=int):
    """Accept '60,80,120,240' or a '24:240:24' range expression."""
    if raw is None:
        return None

    def number(part):
        try:
            return cast(part)
        except ValueError:
            raise CliError(f"not a number: {part!r} in {raw!r}") from None

    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise CliError(f"range must be start:stop:step, got {raw!r}")
        start, stop, step = (number(p) for p in parts)
        if step <= 0:
            raise CliError(f"range step must be > 0, got {raw!r}")
        if start > stop:
            raise CliError(f"range {raw!r} is empty: start exceeds stop")
        out = []
        value = start
        while value <= stop + 1e-9:
            out.append(cast(round(value, 10)))
            value += step
        return out
    return [number(p) for p in raw.split(",")]


def cmd_index(args):
    corpus = _load_corpus(args)
    spec = _spec_from(args)
    seed = _resolve_seed(args)
    rows = []
    for text in corpus:
        score, flags = evaluate(
            text, spec, rng=stream_seed(seed, text.id, "index", spec.label()))
        rows.append({
            "text_id": text.id,
            "index": spec.kind.value,
            "param": spec.label(),
            "score": score,
            "flags": ";".join(flags),
        })

    if args.format == "json":
        _write_or_print(args.out, json.dumps(rows, indent=2))
        return 0

    _write_or_print(args.out, csv_text(
        list(rows[0]), (dict(row, score=repr(row["score"])).values()
                        for row in rows)), end="")
    return 0


_METHOD_ALIASES = {**{method: method for method in METHODS},
                   "ordered": "ordered_random"}


def _check_outputs(args):
    """Refuse, before a command runs, what would fail or be overwritten only
    once its outputs are written: an output whose directory does not
    exist, an output that is a directory, two outputs that name one file
    (an experiment's ``--out`` sidecar among them), and a
    ``--profiles-out`` with a profile count below 1."""
    outputs = [(flag, path) for flag, path in (
        ("--out", getattr(args, "out", None)),
        ("--icc-out", getattr(args, "icc_out", None)),
        ("--profiles-out", getattr(args, "profiles_out", None))) if path]
    for flag, path in outputs:
        if not Path(path).parent.is_dir():
            raise CliError(f"{flag} {path}: no directory {Path(path).parent}")
        if Path(path).is_dir():
            raise CliError(f"{flag} {path}: is a directory")
    if hasattr(args, "icc_out"):  # an experiment: --out has a sidecar
        outputs.insert(1, ("the sidecar of --out", f"{args.out}.meta.json"))
    named = {}
    for flag, path in outputs:
        first = named.setdefault(Path(path).resolve(), flag)
        if first != flag:
            raise CliError(f"{flag} {path}: same file as {first}")
    if getattr(args, "profiles_out", None) and args.select < 1:
        raise CliError(f"--select: profile count must be >= 1, got {args.select}")


def cmd_evaluate_length(args):
    corpus = _load_corpus(args)
    spec = _spec_from(args)
    seed = _resolve_seed(args)
    config = SamplingConfig(
        method=_METHOD_ALIASES[args.method],
        truncate_to=args.truncate,
        conditions=_parse_conditions(args.conditions),
        iterations=args.iters,
        master_seed=seed,
    )
    check_unique_labels("column labels", config.col_labels())
    if args.icc_out:  # refused before any cell is scored
        check_shape(len(corpus), len(config.conditions))
    if args.profiles_out:
        check_columns(len(config.conditions))
    matrix = run_method(corpus, config, spec, threads=args.threads)
    run_config = RunConfig(
        subcommand="evaluate-length",
        corpus_dir=args.corpus, case_policy=args.case,
        min_length=args.min_length,
        index=spec.kind.value, n=spec.n, s=spec.s, factor=spec.factor,
        maas_variant=spec.maas_variant,
        **dict(asdict(config), iterations=matrix.meta["iterations"]),
        threads=args.threads, outputs={"scores": str(args.out)},
    )
    _emit_experiment(matrix, args, run_config, icc_mode="agreement")
    return 0


def cmd_evaluate_parameter(args):
    corpus = _load_corpus(args)
    kind = args.index
    spec = IndexSpec(kind, s=args.s)  # refuses an --s the kind does not use
    seed = _resolve_seed(args)
    params = _parse_conditions(args.params, cast=INDEXES[kind].sweep_type)
    check_unique_labels("column labels", params or ())
    columns = params if params is not None else INDEXES[kind].sweep_values
    if args.icc_out and columns:  # refused before any value is scored
        check_shape(len(corpus), len(columns))
    if args.profiles_out and columns:
        check_columns(len(columns))
    matrix = parameter_sweep(corpus, kind, params, master_seed=seed, s=args.s)
    run_config = RunConfig(
        subcommand="evaluate-parameter",
        corpus_dir=args.corpus, case_policy=args.case,
        min_length=args.min_length,
        index=kind.value, s=spec.s, params=matrix.meta["param_values"],
        master_seed=seed,
        outputs={"scores": str(args.out)},
    )
    _emit_experiment(matrix, args, run_config, icc_mode="consistency")
    return 0


def _emit_experiment(matrix: ScoreMatrix, args, run_config: RunConfig,
                     icc_mode: str):
    """Scores CSV (+ sidecar), optional ICC JSON and profile CSV, all atomic."""
    written = []
    try:
        matrix.to_long_csv(args.out)
        written.append(args.out)
        _write_sidecar(args.out, run_config, extra={"matrix_meta": matrix.meta})
        written.append(str(args.out) + ".meta.json")
        if getattr(args, "icc_out", None):
            result = icc_2_1(matrix, mode=icc_mode)
            write_atomic(args.icc_out, json.dumps(asdict(result), indent=2))
            written.append(args.icc_out)
        if getattr(args, "profiles_out", None):
            _write_profiles(matrix, args.profiles_out, args.select,
                            center=icc_mode == "consistency")
            written.append(args.profiles_out)
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


def cmd_stats(args):
    matrix = ScoreMatrix.from_long_csv(args.source)
    if args.stat == "icc":
        result = asdict(icc_2_1(matrix, mode=args.mode))
    elif args.stat == "anova":
        result = asdict(rm_anova(matrix))
    else:  # compare-corr
        if not args.criterion:
            raise CliError("compare-corr needs --criterion CSV (id,score)")
        picked = (args.col_a, args.col_b)
        if picked.count(None) == 1:
            raise CliError("--col-a and --col-b go together: give both or neither")
        result = asdict(compare_correlations(
            matrix, read_scores(args.criterion),
            None if None in picked else picked))

    _write_or_print(args.out, json.dumps(result, indent=2))
    return 0


def _write_profiles(matrix: ScoreMatrix, path, count: int, center: bool,
                    fmt: str = "csv"):
    """Plot data of the ``count`` most extreme texts' profiles."""
    sub = subset_rows(matrix, select_profiles(matrix, count=count))
    if center:
        sub = center_columns(sub)
    emit_plot_data(sub, path, format=fmt)


def cmd_profiles(args):
    matrix = ScoreMatrix.from_long_csv(args.source)
    _write_profiles(matrix, args.out, args.select, args.center, args.format)
    return 0


def cmd_hdd_curve(args):
    if args.n_step < 1 or args.f_max < 1:
        raise CliError("--n-step and --f-max must be >= 1")
    for flag, value in (("--n-min", args.n_min), ("--f-max", args.f_max)):
        if value > args.N:
            raise CliError(f"{flag} {value} exceeds --N {args.N}")
    curves = hdd_presence_curves(
        n_tokens=args.N,
        f_values=range(1, args.f_max + 1),
        n_values=range(args.n_min, args.N + 1, args.n_step),
    )
    emit_plot_data(curves, args.out, format=args.format)
    return 0


def cmd_weights(args):
    weights = token_weights(args.index, args.N, args.n)
    print(",".join(format(w, "g") for w in weights))
    return 0


def _add_corpus_args(p):
    p.add_argument("--corpus", help="directory of whitespace-tokenized files")
    p.add_argument("--min-length", dest="min_length", type=int, default=0)
    p.add_argument("--case", choices=["fold", "preserve"], default="fold")


def _add_index_arg(p):
    # an unknown name is a run-time error, not argparse's usage error
    p.add_argument("--index", required=True, type=index_kind,
                   choices=[kind.value for kind in IndexKind])


def _add_spec_args(p):
    _add_index_arg(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--factor", type=float, default=None)
    p.add_argument("--maas-variant", dest="maas_variant",
                   choices=MAAS_VARIANTS)
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default {DEFAULT_SEED}, or LEXDIV_SEED)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps its flags by dest, so that a config
    file's keys find their flags without argparse's internals."""

    def __init__(self, *args, **kwargs):
        self.flags = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


def build_parser() -> tuple:
    """The parser, and each command's subparser by name."""
    parser = _Parser(
        prog="lexdiv",
        description="Lexical diversity indices and length-sensitivity "
                    "evaluation harness",
    )
    parser.add_argument("--config",
                        help="key=value file providing flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, fn, help):
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    p = command("index", cmd_index, "score every text under one index")
    _add_corpus_args(p)
    _add_spec_args(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)

    p = command("evaluate-length", cmd_evaluate_length,
                "run one length-sensitivity sampling method")
    _add_corpus_args(p)
    _add_spec_args(p)
    p.add_argument("--method", required=True,
                   choices=sorted(_METHOD_ALIASES))
    p.add_argument("--truncate", type=int, required=True)
    p.add_argument("--conditions",
                   help="divisors/k (parallel, alternating) or sample lengths")
    p.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True, help="long-form scores CSV")
    p.add_argument("--icc-out", dest="icc_out")
    p.add_argument("--profiles-out", dest="profiles_out")
    p.add_argument("--select", type=int, default=12)

    p = command("evaluate-parameter", cmd_evaluate_parameter,
                "parameter sweep")
    _add_corpus_args(p)
    _add_index_arg(p)
    p.add_argument("--params", help="e.g. 24:240:24 or 0.66,0.67,...")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--icc-out", dest="icc_out")
    p.add_argument("--profiles-out", dest="profiles_out")
    p.add_argument("--select", type=int, default=12)

    p = command("stats", cmd_stats, "ICC / RM-ANOVA / correlation comparison")
    p.add_argument("stat", choices=["icc", "anova", "compare-corr"])
    p.add_argument("--from", dest="source", required=True,
                   help="long-form scores CSV")
    p.add_argument("--mode", choices=["agreement", "consistency"],
                   default="agreement")
    p.add_argument("--criterion", help="CSV id,score for compare-corr")
    p.add_argument("--col-a", dest="col_a")
    p.add_argument("--col-b", dest="col_b")
    p.add_argument("--out", default=None)

    p = command("profiles", cmd_profiles,
                "select extreme profiles for plotting")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--select", type=int, default=12)
    p.add_argument("--center", action="store_true")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out", required=True)

    p = command("hdd-curve", cmd_hdd_curve, "presence-probability curve grid")
    p.add_argument("--N", type=int, default=300)
    p.add_argument("--f-max", dest="f_max", type=int, default=20)
    p.add_argument("--n-min", dest="n_min", type=int, default=10)
    p.add_argument("--n-step", dest="n_step", type=int, default=1)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out", required=True)

    p = command("weights", cmd_weights, "per-position token weights")
    _add_index_arg(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=None)

    return parser, commands


def _apply_config_file(parser, commands: dict, argv):
    """--config key=value files provide defaults, flags still win."""
    argv = [part for arg in argv  # --config=path is --config path
            for part in (arg.split("=", 1) if arg.startswith("--config=") else (arg,))]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        parser.error("--config needs a file argument")
    try:
        lines = read_text(path, prefix="--config ").splitlines()
    except CorpusError as e:
        parser.error(str(e))
    defaults = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        dest = key.strip().replace("-", "_")
        # a key of another command's flag is ignored; one of no command's
        # flag is refused, as argparse refuses an unknown flag
        if not any(dest in c.flags for c in commands.values()):
            parser.error(f"{path}:{lineno}: {key.strip()!r} names no flag "
                         f"of any command")
        defaults[dest] = value.strip()
    argv = argv[:i] + argv[i + 2:]
    # each value becomes the default of the running command's flag of that
    # name, checked as argparse checks it; a config value satisfies "required"
    name = next((arg for arg in argv if not arg.startswith("-")), None)
    flags = commands[name].flags if name in commands else {}
    for dest, flag in flags.items():
        if dest not in defaults:
            continue
        value = defaults[dest]
        if flag.nargs == 0:  # an on/off flag such as --center
            if value not in ("true", "false"):
                parser.error(f"{path}: {dest}: expected true or false, got {value!r}")
            value = flag.const if value == "true" else flag.default
        elif flag.type is not None:
            try:
                value = flag.type(value)
            except (IndexError_, ValueError) as e:
                parser.error(f"{path}: {dest}: {e}")
        if flag.choices is not None and value not in flag.choices:
            parser.error(f"{path}: {dest}: invalid choice {value!r}; "
                         f"choose from {', '.join(flag.choices)}")
        flag.default = value
        flag.required = False
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    argv = _apply_config_file(parser, commands, argv)
    try:
        args = parser.parse_args(argv)
        _check_outputs(args)
        return args.fn(args)
    except (CliError, CorpusError, IndexError_, SamplingError, StatsError,
            NumericsError, ProfilesError, OSError) as e:
        print(f"lexdiv: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands: infer, tune, eval, synth, train-prior, stats.  Exit codes:
0 success, 1 usage error, 2 malformed input file or bad setting, 3 runtime failure.
Progress and warnings go to stderr; machine-readable JSON goes to stdout or
the --output path.  Flags override values from an optional --config JSON
file, which overrides built-in defaults.  A config value must parse as its
flag would (a JSON boolean for an on/off flag); every report echoes the
effective configuration it ran under.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import fileio
from .errors import ConfigurationError, InputFormatError
from .evaluation import generate_synthetic, prf1
from .graph import DEFAULT_PRIOR_P_ONE, all_pairs, build_factor_graph, count_graph_stats
from .inference import LbpConfig, lbp_map
from .model import PriorBelief, RelationshipKind, TernaryPotential
from .partition import PartitionConfig, build_partitions, infer_partitions_parallel
from .priors import (
    TEMPERATURE_GRID,
    LinearPriorModel,
    TrainConfig,
    calibrate_temperature,
    extract_features,
    load_external_priors,
    predict_prior,
    train_linear_prior,
)
from .tuning import SearchSpace, tune

logger = logging.getLogger("concord")

# The most ternary cliques a dense run builds: the equivalence count at
# n = 500.  Measured runs of infer --mode dense (equivalence n = 100-300,
# parent-child n = 100-150; 2 vCPUs) cost about 210 bytes of peak RSS and
# 3-5 microseconds per clique, linearly, so a run at the cap needs about
# 4.4 GB and 80-100 s, and equivalence n = 600 would need about 7.5 GB.
DENSE_CLIQUE_CAP = 20_708_500


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="concord", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase stderr logging (-v info, -vv debug)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file of defaults for this command")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--relationship", choices=[kind.value for kind in RelationshipKind],
                       default=RelationshipKind.EQUIVALENCE.value)
        return p

    p = command("stats", "closed-form dense graph sizes")
    p.add_argument("--n", type=int, help="number of concepts")

    p = command("infer", "decode relationship labels for candidate pairs")
    p.add_argument("--concepts", help="concepts CSV (id,name,values)")
    p.add_argument("--priors", help="priors CSV (left_id,right_id,p_one)")
    p.add_argument("--prior-model", dest="prior_model",
                   help="model JSON from train-prior, used instead of --priors")
    p.add_argument("--pairs", help="pair list CSV restricting --prior-model scoring")
    p.add_argument("--embeddings", help="embeddings CSV (id,v0,v1,...)")
    p.add_argument("--mode", choices=["dense", "partitioned"], default="dense")
    p.add_argument("--k", type=int, default=PartitionConfig.k,
                   help="neighbors per anchor in partitioned mode")
    p.add_argument("--damping", type=float, default=LbpConfig.damping)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=LbpConfig.max_iterations)
    p.add_argument("--tolerance", type=float, default=LbpConfig.tolerance)
    p.add_argument("--repair", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--default-prior", dest="default_prior", type=float,
                   default=DEFAULT_PRIOR_P_ONE)
    p.add_argument("--weights", help="comma-separated potential weights")

    p = command("tune", "search potential weights against validation gold")
    p.add_argument("--concepts")
    p.add_argument("--priors", help="validation priors CSV")
    p.add_argument("--gold", help="validation labels CSV")
    p.add_argument("--budget", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=LbpConfig.tolerance)

    p = command("eval", "score predictions against gold labels")
    p.add_argument("--predictions", help="labels CSV or an infer report JSON")
    p.add_argument("--gold", help="gold labels CSV")
    p.add_argument("--concepts", help="optional concepts CSV for strict id checks")

    p = command("synth", "generate a synthetic labeled benchmark")
    p.add_argument("--n-concepts", dest="n_concepts", type=int, default=30)
    p.add_argument("--n-clusters", dest="n_clusters", type=int)
    p.add_argument("--n-roots", dest="n_roots", type=int)
    p.add_argument("--noise", type=float, default=0.1, help="prior flip probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair-mode", dest="pair_mode", choices=["all", "sparse"], default="all")
    p.add_argument("--pairs-per-concept", dest="pairs_per_concept", type=int, default=4)
    p.add_argument("--positive-fraction", dest="positive_fraction", type=float, default=0.05)
    p.add_argument("--split-fractions", dest="split_fractions", default="0.4,0.3,0.3",
                   help="train,validation,test fractions, e.g. 0.4,0.3,0.3")
    p.add_argument("--outdir", help="directory for the generated CSV files")

    p = command("train-prior", "fit and calibrate the pairwise prior model")
    p.add_argument("--concepts")
    p.add_argument("--train", help="training labels CSV")
    p.add_argument("--validation", help="validation labels CSV for calibration")
    p.add_argument("--embeddings")
    p.add_argument("--learning-rate", dest="learning_rate", type=float,
                   default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--class-weights", dest="class_weights",
                   action=argparse.BooleanOptionalAction, default=TrainConfig.class_weighted)
    p.add_argument("--temperature-grid", dest="temperature_grid",
                   default=",".join(f"{t:g}" for t in TEMPERATURE_GRID),
                   help="comma-separated temperatures")

    parser.commands = sub.choices
    for p in sub.choices.values():
        # Keep the built-in defaults apart, so a flag left out parses as
        # None and a --config value can sit between the two.
        p.builtin = {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS}
        p.set_defaults(**dict.fromkeys(p.builtin))
    return parser


def _config_value(path: str, flag: argparse.Action, value):
    """A --config value parsed as its flag would parse it, or InputFormatError."""
    boolean = isinstance(flag, argparse.BooleanOptionalAction)
    if isinstance(value, bool) == boolean and isinstance(value, (str, int, float)):
        try:
            parsed = value if boolean else (flag.type or str)(str(value))
            if flag.choices is None or parsed in flag.choices:
                return parsed
        except ValueError:
            pass
    raise InputFormatError(path, None, f"config key {flag.dest!r} has invalid value {value!r}")


def _resolve(parser: _Parser, args: argparse.Namespace) -> SimpleNamespace:
    """Layer CLI flags over --config file values over built-in defaults."""
    command = args.command
    effective = dict(parser.commands[command].builtin)
    if args.config:
        overrides = fileio.load_json(args.config)
        if not isinstance(overrides, dict):
            raise InputFormatError(args.config, None, "config file must hold a JSON object")
        unknown = set(overrides) - set(effective)
        if unknown:
            raise InputFormatError(
                args.config, None, f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        flags = {flag.dest: flag for flag in parser.commands[command]._actions}
        for key, value in overrides.items():
            # null keeps an unset option unset; elsewhere it is a bad value.
            if value is not None or effective[key] is not None:
                effective[key] = _config_value(args.config, flags[key], value)
    for key, value in vars(args).items():
        if key in ("command", "verbose"):
            continue
        if value is not None and key in effective:
            effective[key] = value
    effective["command"] = command
    return SimpleNamespace(**effective)


def _kind(name: str) -> RelationshipKind:
    return RelationshipKind(name)


def _require(cfg: SimpleNamespace, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) in (None, "")]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise _UsageError(f"{cfg.command}: missing required option(s): {flags}")


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"could not parse {what}: {text!r}")


def _config_echo(cfg: SimpleNamespace) -> dict:
    return {k: v for k, v in vars(cfg).items()}


def _cmd_stats(cfg: SimpleNamespace) -> int:
    _require(cfg, "n")
    variables, ternary, edges = count_graph_stats(int(cfg.n), _kind(cfg.relationship))
    fileio.dump_json(
        {
            "config": _config_echo(cfg),
            "variables": variables,
            "ternary_factors": ternary,
            "edges": edges,
        },
        cfg.output,
    )
    return 0


def _load_embeddings(cfg: SimpleNamespace) -> dict | None:
    return fileio.load_embeddings(cfg.embeddings) if cfg.embeddings else None


def _load_prior_map(
    cfg: SimpleNamespace, concepts, kind
) -> tuple[dict[tuple[int, int], PriorBelief], dict | None]:
    """The prior map and the ``--embeddings``, each file parsed once."""
    n = len(concepts)
    if cfg.priors:
        if cfg.prior_model or cfg.pairs:
            raise _UsageError("infer: --priors excludes --prior-model and --pairs")
        if cfg.embeddings and cfg.mode == "dense":
            raise _UsageError("infer: --priors excludes --embeddings in --mode dense")
        return load_external_priors(cfg.priors, n, kind), _load_embeddings(cfg)
    if not cfg.prior_model:
        raise _UsageError("infer: provide either --priors or --prior-model")
    payload = fileio.load_json(cfg.prior_model)
    if isinstance(payload, dict) and "model" in payload:
        payload = payload["model"]
    try:
        model = LinearPriorModel.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(cfg.prior_model, None, f"not a prior model: {exc}")
    if cfg.pairs:
        pair_list = fileio.load_pairs(cfg.pairs, n, kind)
    else:
        pair_list = all_pairs(n, kind)
    embeddings = _load_embeddings(cfg)
    by_id = {c.id: c for c in concepts}
    logger.info("scoring %d pairs with the prior model", len(pair_list))
    return {
        (l, r): predict_prior(model, extract_features(by_id[l], by_id[r], embeddings))
        for l, r in pair_list
    }, embeddings


def _check_dense_size(n: int, kind: RelationshipKind) -> None:
    """Refuse a dense graph whose closed-form clique count exceeds the cap."""
    cliques = count_graph_stats(n, kind)[1]
    if cliques > DENSE_CLIQUE_CAP:
        raise ConfigurationError(
            f"--mode dense over {n} concepts needs {cliques:,} ternary cliques, above "
            f"the cap of {DENSE_CLIQUE_CAP:,}; use --mode partitioned, and see "
            "concord stats for dense sizes"
        )


def _cmd_infer(cfg: SimpleNamespace) -> int:
    _require(cfg, "concepts")
    kind = _kind(cfg.relationship)
    concepts = fileio.load_concepts(cfg.concepts)
    if cfg.mode == "dense":
        _check_dense_size(len(concepts), kind)
    if cfg.weights:
        potential = TernaryPotential.from_weights(kind, _parse_floats(cfg.weights, "--weights"))
    else:
        potential = TernaryPotential.default(kind)
    prior_map, embeddings = _load_prior_map(cfg, concepts, kind)
    lbp = LbpConfig(
        max_iterations=int(cfg.max_iters),
        damping=float(cfg.damping),
        tolerance=float(cfg.tolerance),
    )
    started = time.perf_counter()
    if cfg.mode == "dense":
        graph = build_factor_graph(
            concepts, prior_map, potential, mode="dense",
            default_prior=float(cfg.default_prior),
        )
        logger.info(
            "dense graph: %d variables, %d ternary factors",
            graph.num_variables, graph.num_ternary_factors,
        )
        assignment = lbp_map(graph, lbp, repair=bool(cfg.repair))
        structure = {
            "variables": graph.num_variables,
            "ternary_factors": graph.num_ternary_factors,
            "edges": graph.num_edges,
        }
    else:
        partitions = build_partitions(
            concepts, list(prior_map), prior_map, potential,
            PartitionConfig(k=int(cfg.k), default_prior=float(cfg.default_prior)),
            embeddings=embeddings,
        )
        logger.info("built %d partitions", len(partitions))
        assignment = infer_partitions_parallel(partitions, lbp, repair=bool(cfg.repair))
        summaries = assignment.partition_summaries
        structure = {
            "partitions": len(partitions),
            "variables": sum(s["variables"] for s in summaries),
            "ternary_factors": sum(s["ternary_factors"] for s in summaries),
            "capped_partitions": sum(not s["converged"] for s in summaries),
        }
    wall = time.perf_counter() - started

    # Prior map keys are canonical; dense pairs without one took the default.
    default = PriorBelief(float(cfg.default_prior))
    rows = []
    flipped = 0
    for pair, label, margin in zip(assignment.pairs, assignment.labels, assignment.margins):
        belief = prior_map.get(pair, default)
        flipped += int(label) != belief.argmax
        rows.append(
            {
                "left": pair[0],
                "right": pair[1],
                "prior_p": belief.p_one,
                "label": int(label),
                "margin": float(margin),
            }
        )
    summary = dict(structure)
    summary.update(
        {
            "iterations": assignment.iterations,
            "converged": assignment.converged,
            "last_label_change": assignment.last_label_change,
            "violations": len(assignment.violations),
            "prior_flips": flipped,
            "log_score": assignment.log_score,
            "repaired": assignment.repaired,
            "wall_time_s": wall,
        }
    )
    if assignment.pre_repair:
        summary["pre_repair"] = {
            "log_score": assignment.pre_repair["log_score"],
            "violations": assignment.pre_repair["violations"],
        }
    echo = _config_echo(cfg)
    if cfg.mode == "dense":
        del echo["k"]  # only partitioning reads it
    fileio.dump_json({"config": echo, "summary": summary, "assignments": rows}, cfg.output)
    return 0


def _cmd_tune(cfg: SimpleNamespace) -> int:
    _require(cfg, "concepts", "priors", "gold")
    kind = _kind(cfg.relationship)
    concepts = fileio.load_concepts(cfg.concepts)
    priors = load_external_priors(cfg.priors, len(concepts), kind)
    gold = fileio.load_labels(cfg.gold, len(concepts), kind)
    space = SearchSpace.default(kind)

    def build(potential: TernaryPotential):
        return build_factor_graph(concepts, priors, potential, mode="sparse")

    best, history = tune(
        space, build, gold,
        budget=int(cfg.budget), seed=int(cfg.seed),
        initial=space.default_config(), tolerance=float(cfg.tolerance),
    )
    logger.info("best trial %d with F1 %.4f", best.index, best.objective)
    fileio.dump_json(
        {
            "config": _config_echo(cfg),
            "best": best.to_dict(),
            "history": [record.to_dict() for record in history],
        },
        cfg.output,
    )
    return 0


def _load_predictions(path: str, n: int, kind: RelationshipKind) -> dict[tuple[int, int], int]:
    """A labels CSV, or the assignment rows of an infer report JSON; both
    take the labels file's row checks."""
    if not path.endswith(".json"):
        return fileio.load_labels(path, n, kind)
    payload = fileio.load_json(path)
    try:
        rows = [
            (None, [str(row[key]) for key in ("left", "right", "label")])
            for row in payload["assignments"]
        ]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(path, None, f"not an infer report: {exc}")
    return fileio.load_labels(path, n, kind, rows)


def _cmd_eval(cfg: SimpleNamespace) -> int:
    _require(cfg, "predictions", "gold")
    kind = _kind(cfg.relationship)
    n = len(fileio.load_concepts(cfg.concepts)) if cfg.concepts else sys.maxsize
    gold = fileio.load_labels(cfg.gold, n, kind)
    predicted = _load_predictions(cfg.predictions, n, kind)
    missing = [pair for pair in gold if pair not in predicted]
    if missing:
        raise ConfigurationError(
            f"{len(missing)} gold pairs missing from predictions, first: {missing[0]}"
        )
    metrics = prf1({pair: predicted[pair] for pair in gold}, gold)
    fileio.dump_json(
        {
            "config": _config_echo(cfg),
            "pairs_scored": len(gold),
            "metrics": metrics.to_dict(),
        },
        cfg.output,
    )
    return 0


def _cmd_synth(cfg: SimpleNamespace) -> int:
    _require(cfg, "outdir")
    kind = _kind(cfg.relationship)
    fractions = _parse_floats(cfg.split_fractions, "--split-fractions")
    dataset = generate_synthetic(
        kind,
        n_concepts=int(cfg.n_concepts),
        n_clusters=None if cfg.n_clusters is None else int(cfg.n_clusters),
        prior_noise=float(cfg.noise),
        seed=int(cfg.seed),
        split_fractions=fractions,
        pair_mode=cfg.pair_mode,
        pairs_per_concept=int(cfg.pairs_per_concept),
        n_roots=None if cfg.n_roots is None else int(cfg.n_roots),
        positive_fraction=float(cfg.positive_fraction),
    )
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {
        "concepts": str(outdir / "concepts.csv"),
        "priors": str(outdir / "priors.csv"),
        "labels": str(outdir / "labels.csv"),
    }
    fileio.write_concepts(files["concepts"], dataset.concepts)
    fileio.write_priors(files["priors"], dataset.priors)
    fileio.write_labels(files["labels"], dataset.gold)
    for split in ("train", "validation", "test"):
        path = outdir / f"{split}.csv"
        fileio.write_labels(str(path), dataset.split_gold(split))
        files[split] = str(path)
    positives = sum(dataset.gold.values())
    echo = _config_echo(cfg)
    # Each relationship's generator reads only its own shape options, and
    # equivalence reads pairs_per_concept only to sample sparse pairs.
    unread = (
        ("n_roots", "positive_fraction") if kind is RelationshipKind.EQUIVALENCE
        else ("n_clusters", "pair_mode", "pairs_per_concept")
    )
    if kind is RelationshipKind.EQUIVALENCE and cfg.pair_mode == "all":
        unread += ("pairs_per_concept",)
    for key in unread:
        del echo[key]
    meta = {
        "config": echo,
        "files": files,
        "counts": {
            "concepts": len(dataset.concepts),
            "pairs": len(dataset.pairs),
            "positives": positives,
            "positive_rate": positives / len(dataset.pairs),
            "splits": {name: len(p) for name, p in dataset.splits.items()},
        },
    }
    fileio.dump_json(meta, str(outdir / "meta.json"))
    fileio.dump_json(meta, cfg.output)
    logger.info("wrote synthetic dataset under %s", outdir)
    return 0


def _cmd_train_prior(cfg: SimpleNamespace) -> int:
    _require(cfg, "concepts", "train", "validation")
    kind = _kind(cfg.relationship)
    train_config = TrainConfig(
        learning_rate=float(cfg.learning_rate),
        epochs=int(cfg.epochs),
        class_weighted=bool(cfg.class_weights),
    )
    concepts = fileio.load_concepts(cfg.concepts)
    n = len(concepts)
    by_id = {c.id: c for c in concepts}
    embeddings = _load_embeddings(cfg)

    def examples(path: str):
        labels = fileio.load_labels(path, n, kind)
        return [
            (extract_features(by_id[l], by_id[r], embeddings), label)
            for (l, r), label in labels.items()
        ]

    train_examples = examples(cfg.train)
    validation_examples = examples(cfg.validation)
    model = train_linear_prior(train_examples, train_config)
    grid = _parse_floats(cfg.temperature_grid, "--temperature-grid")
    model = calibrate_temperature(model, validation_examples, grid)
    predictions = {
        i: predict_prior(model, features).argmax
        for i, (features, _) in enumerate(validation_examples)
    }
    gold = {i: label for i, (_, label) in enumerate(validation_examples)}
    metrics = prf1(predictions, gold)
    logger.info("validation F1 %.4f at temperature %.3g", metrics.f1, model.temperature)
    fileio.dump_json(
        {
            "config": _config_echo(cfg),
            "model": model.to_dict(),
            "validation": {"metrics": metrics.to_dict(), "pairs": len(gold)},
        },
        cfg.output,
    )
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "infer": _cmd_infer,
    "tune": _cmd_tune,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "train-prior": _cmd_train_prior,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    level = logging.WARNING - 10 * min(int(args.verbose), 2)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        cfg = _resolve(parser, args)
        return _COMMANDS[args.command](cfg)
    except _UsageError as exc:
        print(f"concord: error: {exc}", file=sys.stderr)
        return 1
    except InputFormatError as exc:
        print(f"concord: input error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"concord: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  anything else is a runtime failure
        logger.debug("unhandled failure", exc_info=True)
        print(f"concord: runtime failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

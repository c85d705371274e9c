"""Command-line entry points.

Subcommands: ``parse`` (detection files -> reaction JSON), ``eval``
(hard/soft scoring), ``plan`` (print the routing plan), ``render``
(annotated SVG), ``fingerprint`` (debug: counts and fingerprint of a
SMILES) and ``score-edge`` (debug: the three channel scores plus the
fused score for an entity pair). Exit codes: 0 all ok, 2 some documents
failed or partial, 3 configuration error, 4 nothing succeeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from .agents import FixtureMissingError
from .config import DEFAULT_QUERY, ConfigError, ReasoningConfig
from .outputs import EXIT_CONFIG, EXIT_FAILED, EXIT_OK, EXIT_PARTIAL, write_atomic

# each command imports the modules it runs, so ``eval`` loads no pipeline and ``fingerprint`` no numpy


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline config JSON file")
    parser.add_argument("--fixtures-dir", help="mock agent fixture directory")
    parser.add_argument("--weights-file", help="spatial weights JSON file")
    parser.add_argument("--output-dir", help="where outputs are written")
    parser.add_argument("--backend", choices=["mock", "live"])
    parser.add_argument("--endpoint")
    parser.add_argument("--model")
    parser.add_argument("--query")
    parser.add_argument("--max-workers", type=int)
    for f in dataclasses.fields(ReasoningConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default))


def _build_config(args):
    from .pipeline import PipelineConfig

    # flags named after PipelineConfig or ReasoningConfig fields override the config file
    keys = {f.name for cls in (PipelineConfig, ReasoningConfig) for f in dataclasses.fields(cls)}
    overrides = {key: value for key, value in vars(args).items() if key in keys}
    if args.config:
        return PipelineConfig.from_file(args.config, overrides)
    return PipelineConfig.from_dict({}, overrides)


def _cmd_parse(args) -> int:
    from .pipeline import run_batch

    config = _build_config(args)
    manifest = run_batch(args.inputs, config)
    manifest_path = Path(config.output_dir) / "manifest.json"
    write_atomic(manifest_path, json.dumps(manifest.to_dict(), indent=2) + "\n")
    for doc in manifest.documents:
        print(f"{doc.status:<8} {doc.source}" + (f"  ({doc.error})" if doc.error else ""))
    print(f"manifest: {manifest_path}")
    return manifest.exit_code


def _cmd_eval(args) -> int:
    from .evaluation import load_corpus, report_table, score_corpus

    gt = load_corpus(args.gt)
    pred = load_corpus(args.pred)
    criteria = [args.criterion] if args.criterion else ["hard", "soft"]
    reports = []
    for criterion in criteria:
        report = score_corpus(gt, pred, criterion, args.iou, polygon=not args.axis_iou)
        if not args.per_layout:
            report = dataclasses.replace(report, per_layout=None)
        reports.append(report)
    table = report_table(reports)
    print(table)
    if args.out:
        payload = [r.to_dict() for r in reports]
        write_atomic(Path(args.out), json.dumps(payload, indent=2) + "\n")
        write_atomic(Path(args.out).with_suffix(".txt"), table + "\n")
    return EXIT_OK


def _cmd_plan(args) -> int:
    from .entities import load_document
    from .planner import extract_features, plan_to_json, route

    if not args.query:
        raise ConfigError("query must be non-empty")
    doc = load_document(Path(args.input).read_bytes())
    features = extract_features(doc)
    plan = route(args.query, features)
    print(plan_to_json(plan))
    return EXIT_OK


def _cmd_render(args) -> int:
    from .entities import load_document
    from .pipeline import make_client, run_document
    from .render import render_svg

    config = _build_config(args)
    doc = load_document(Path(args.input).read_bytes())
    client = make_client(config)
    outcome = run_document(doc, config, client)
    svg = render_svg(doc, outcome.reactions)
    out = Path(args.out or (Path(config.output_dir) / (Path(args.input).stem + ".svg")))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, svg)
    print(out)
    for warning in (*doc.warnings, *outcome.warnings):
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_PARTIAL if outcome.warnings else EXIT_OK  # the status rule of run_batch


def _cmd_fingerprint(args) -> int:
    from .chem import FINGERPRINT_TAG, FINGERPRINT_WIDTH, parse_smiles

    mol = parse_smiles(args.smiles)
    fp = mol.fingerprint
    print(
        json.dumps(
            {
                "smiles": args.smiles,
                "atom_counts": mol.atom_counts,
                "formal_charge": mol.charge,
                "fingerprint": {
                    "tag": FINGERPRINT_TAG,
                    "width": FINGERPRINT_WIDTH,
                    "popcount": fp.bit_count(),
                    "bits": [i for i in range(FINGERPRINT_WIDTH) if fp >> i & 1][:32],
                },
            },
            indent=2,
        )
    )
    return EXIT_OK


def _channel_score(graph, i: int, j: int) -> float:
    """The score of a channel graph's edge between positions ``i < j``, or the neutral 0.5."""
    k = ((graph.rows == i) & (graph.cols == j)).nonzero()[0]
    return graph.values[k[0]].item() if k.size else 0.5


def _cmd_score_edge(args) -> int:
    from .entities import load_document
    from .pipeline import load_pipeline_weights
    from .reasoning import build_chem_graph, build_spatial_graph, fuse_score, propagate

    config = _build_config(args)
    doc = load_document(Path(args.input).read_bytes())
    unknown = [entity_id for entity_id in (args.a, args.b) if not doc.has_entity(entity_id)]
    if unknown:
        raise LookupError(f"{args.input} has no entity {', '.join(map(repr, unknown))}")
    reasoning = config.reasoning
    spatial = propagate(build_spatial_graph(doc, reasoning, load_pipeline_weights(config)))
    chem = build_chem_graph(doc, reasoning)
    pair = (min(args.a, args.b), max(args.a, args.b))
    i, j = sorted(spatial.table.position[entity_id] for entity_id in pair)
    s_space, s_chem = _channel_score(spatial, i, j), _channel_score(chem, i, j)
    print(
        json.dumps(
            {
                "pair": list(pair),
                "s_space": s_space,
                "s_chem": s_chem,
                "s_fuse_without_hypothesis": fuse_score(s_space, s_chem, 0.0, reasoning),
                "s_fuse_with_unit_hypothesis": fuse_score(s_space, s_chem, 1.0, reasoning),
                "tau_fuse": reasoning.tau_fuse,
            },
            indent=2,
        )
    )
    return EXIT_OK


def _iou_threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # also rejects NaN and the infinities
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number in [0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rxnparse", description=__doc__)
    parser.add_argument(
        "--log-level",
        choices=["WARNING", "INFO"],
        default="WARNING",
        help="INFO also writes one line per agent request to stderr (default WARNING)",
    )
    parser.add_argument("-v", dest="log_level", action="store_const", const="INFO", help="same as --log-level INFO")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse detection files into reaction JSON")
    p.add_argument("inputs", nargs="+")
    _add_config_options(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--criterion", choices=["hard", "soft"])
    p.add_argument("--iou", type=_iou_threshold, default=0.5, help="members match above this IoU, in [0, 1]")
    p.add_argument("--per-layout", action="store_true")
    p.add_argument(
        "--axis-iou",
        action="store_true",
        help="compare members given as 8-number quads by their bounding boxes, not as polygons",
    )
    p.add_argument("--out", help="write the JSON report here (and a .txt table)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plan", help="print the routing plan for a document and query")
    p.add_argument("input")
    p.add_argument("--query", default=DEFAULT_QUERY)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("render", help="render a parsed document to SVG")
    p.add_argument("input")
    p.add_argument("--out")
    _add_config_options(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("fingerprint", help="debug: counts, charge and fingerprint of a SMILES")
    p.add_argument("smiles")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("score-edge", help="debug: channel scores for an entity pair")
    p.add_argument("input")
    p.add_argument("a")
    p.add_argument("b")
    _add_config_options(p)
    p.set_defaults(func=_cmd_score_edge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FixtureMissingError as exc:
        print(f"fixture missing: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except Exception as exc:  # surface anything else as a total failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""A run does not depend on the scale of its coordinates.

Multiplying every coordinate of a document and of its stored combiner
replies by a power of two is exact in binary floating point, so every
ratio the layers compute is unchanged. The run must give the same
reactions, with the same ids per role and bit for bit the same score,
and the same output once its coordinates are divided back.
"""

import json

import pytest

from rxnparse.agents import MockAgentClient
from rxnparse.entities import load_document
from rxnparse.pipeline import PipelineConfig, run_document
from rxnparse.reactions import reactions_to_json

from synthetic import build_corpus

PER_LAYOUT = 5


def _run(root, paths) -> list:
    """Per document: its reactions as (roles, conservation, score hex), its warnings, and its decoded output."""
    config = PipelineConfig(fixtures_dir=str(root / "fixtures"))
    client = MockAgentClient(root / "fixtures")
    runs = []
    for path in paths:
        doc = load_document(path.read_bytes())
        outcome = run_document(doc, config, client)
        reactions = [
            (r.reactants, r.products, r.conditions, r.arrows, r.conservation, r.score.hex()) for r in outcome.reactions
        ]
        runs.append((reactions, outcome.warnings, json.loads(reactions_to_json(outcome.reactions, doc))))
    return runs


def _divided(output: list, factor: float) -> list:
    return [
        {role: [{**item, "bbox": [v / factor for v in item["bbox"]]} for item in items] for role, items in r.items()}
        for r in output
    ]


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory):
    root = tmp_path_factory.mktemp("unscaled")
    paths, _gt = build_corpus(root, per_layout=PER_LAYOUT)
    runs = _run(root, paths)
    assert all(reactions for reactions, _, _ in runs)  # every document gives a reaction to compare
    return runs


@pytest.mark.parametrize("k", [-20, -10, 20, 100, 400])
def test_scaling_every_coordinate_by_a_power_of_two_gives_the_same_reactions(unscaled, tmp_path, k):
    factor = 2.0**k
    paths, _gt = build_corpus(tmp_path, per_layout=PER_LAYOUT, scale=factor)
    runs = _run(tmp_path, paths)
    assert [run[:2] for run in runs] == [run[:2] for run in unscaled]
    assert [_divided(run[2], factor) for run in runs] == [run[2] for run in unscaled]

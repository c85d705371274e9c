"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines; every tolerance is asserted inside the test body.
"""

import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from rxnparse.agents import MockAgentClient
from rxnparse.chem import (
    conservation_residual,
    parse_smiles,
    tanimoto,
)
from rxnparse.config import ReasoningConfig
from rxnparse.evaluation import (
    CorpusDocument,
    entities_match,
    reaction_matches_hard,
    reaction_matches_soft,
    score,
    score_corpus,
)
from rxnparse.geometry import AxisBox, OrientedQuad, iou_axis, region_iou
from rxnparse.pipeline import PipelineConfig, run_batch
from rxnparse.planner import AgentPlan, ROLES, plan_from_json, plan_to_json, route, extract_features
from rxnparse.reactions import boxed_reactions_from_json, parse_combiner_response, reactions_to_json
from rxnparse.reasoning import fuse_score
from rxnparse.reasoning.fusion import FusedEdge, FusedGraph
from rxnparse.reasoning.relations import EdgeRelation
from rxnparse.reasoning.spatial import EDGE_DIMS, SpatialWeights, propagate
from rxnparse.render import render_svg
from rxnparse.entities import load_document

from helpers import (
    BALANCED_REACTIONS,
    FORMULAS,
    arrow_entity,
    brute_force_max_matching,
    component_assignment,
    formula_sum,
    fusion_config,
    make_doc,
    mc_region_iou,
    molecule_entity,
    permuted,
    random_axis_box,
    random_molecule,
    random_quad,
    spatial_graph,
    summed_edge_features,
)
from synthetic import build_corpus
from test_evaluation import perturb, random_boxed_reaction


def _report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"[acceptance] criterion {number:>2}: PASS ({elapsed:.2f}s) {description}")


def test_criterion_01_fixture_round_trip(two_reaction_json, two_reaction_doc):
    started = time.perf_counter()
    reactions = parse_combiner_response(two_reaction_json, two_reaction_doc)
    emitted = reactions_to_json(reactions, two_reaction_doc)
    assert json.loads(emitted) == json.loads(two_reaction_json)  # key-for-key
    compact = json.dumps(json.loads(emitted))
    assert "[38, 2, 434, 234]" in compact  # coordinate-for-coordinate, ints intact
    assert "[513, 155, 880, 153, 880, 130, 513, 132]" in compact
    assert '"reactants"' in emitted and '"arrow"' in emitted
    _report(1, "two-reaction fixture round-trips byte-exactly", started, 1.0)


def test_criterion_02_evaluation_oracle():
    started = time.perf_counter()
    rng = random.Random(20240501)
    for corpus_index in range(500):
        n_gt = rng.randint(0, 6)
        n_pred = rng.randint(0, 6)
        base = [
            random_boxed_reaction(rng, x0=i * 2600.0, y0=0.0)
            for i in range(max(n_gt, n_pred, 1))
        ]
        gt = [base[i] for i in range(n_gt)]
        pred = [perturb(rng, base[rng.randrange(len(base))]) for _ in range(n_pred)]
        reports = {}
        for criterion, predicate in (
            ("hard", reaction_matches_hard),
            ("soft", reaction_matches_soft),
        ):
            report = score(gt, pred, criterion)
            expected = brute_force_max_matching(
                n_gt, n_pred, lambda g, p: predicate(pred[p], gt[g])
            )
            assert report.matched == expected, f"corpus {corpus_index} ({criterion})"
            reports[criterion] = report
        assert reports["soft"].f1 >= reports["hard"].f1  # universal soft >= hard
    # IoU exactly at the threshold never matches
    assert not entities_match(AxisBox(0, 0, 10, 10), AxisBox(0, 0, 10, 5), 0.5)
    _report(2, "500 corpora match brute force; soft F1 >= hard F1", started, 30.0)


def test_criterion_03_geometry_oracle():
    started = time.perf_counter()
    rng = random.Random(31415)
    checked = 0
    for pair_index in range(200):
        if pair_index % 2 == 0:
            a, b = random_quad(rng), random_quad(rng)
            analytic = region_iou(a, b)
        else:
            box_a, box_b = random_axis_box(rng), random_axis_box(rng)
            # overlap half the time so nonzero IoUs are exercised
            if pair_index % 4 == 1:
                box_b = AxisBox(
                    box_a.x_min + box_a.width * 0.3,
                    box_a.y_min + box_a.height * 0.3,
                    box_a.x_max + box_a.width * 0.5,
                    box_a.y_max + box_a.height * 0.5,
                )
            a, b = box_a, box_b
            analytic = iou_axis(a, b)
        sampled = mc_region_iou(a, b, samples=1_000_000, seed=pair_index)
        assert analytic == pytest.approx(sampled, abs=1e-3), f"pair {pair_index}"
        checked += 1
    square = OrientedQuad(((0, 0), (1, 0), (1, 1), (0, 1)))
    c, r = 0.5, math.sqrt(2) / 2
    rotated = OrientedQuad(((c, c - r), (c + r, c), (c, c + r), (c - r, c)))
    assert region_iou(square, rotated) == pytest.approx(math.sqrt(2) / 2, abs=1e-3)
    _report(3, f"{checked} IoU pairs agree with seeded Monte Carlo at 1e-3", started, 60.0)


def test_criterion_04_conservation_suite():
    started = time.perf_counter()
    balanced = list(BALANCED_REACTIONS)
    for reactants, products in list(BALANCED_REACTIONS):
        balanced.append((products, reactants))  # reversal stays balanced
    for reactants, products in list(BALANCED_REACTIONS)[:10]:
        balanced.append((reactants + ["O"], products + ["O"]))  # spectator molecule
    assert len(balanced) >= 50
    assert (["CCO"], ["C=C", "O"]) in balanced
    for reactants, products in balanced[:60]:
        assert formula_sum(reactants) == formula_sum(products)
        element, charge = conservation_residual(
            [parse_smiles(s) for s in reactants], [parse_smiles(s) for s in products]
        )
        assert element == {} and charge == 0

    rng = random.Random(60601)
    mutated = 0
    pool = sorted(FORMULAS)
    while mutated < 50:
        reactants, products = balanced[mutated % len(balanced)]
        if rng.random() < 0.5 and len(products) > 1:
            new_products = products[:-1]  # drop one product
            dropped = products[-1]
            expected = {k: v for k, v in FORMULAS[dropped].items()}
        else:
            extra = rng.choice(pool)
            new_products = products + [extra]
            expected = {k: -v for k, v in FORMULAS[extra].items()}
        element, _charge = conservation_residual(
            [parse_smiles(s) for s in reactants], [parse_smiles(s) for s in new_products]
        )
        assert list(element.items()) == [(k, v) for k, v in sorted(expected.items()) if v], (
            reactants,
            new_products,
        )
        mutated += 1

    for _ in range(1000):
        side_a = [random_molecule(rng) for _ in range(rng.randint(1, 4))]
        side_b = [random_molecule(rng) for _ in range(rng.randint(1, 4))]
        same = conservation_residual(side_a, side_a)
        assert same == ({}, 0)
        ab = conservation_residual(side_a, side_b)
        ba = conservation_residual(side_b, side_a)
        assert ab[0] == {k: -v for k, v in ba[0].items()} and ab[1] == -ba[1]
    _report(4, "50 balanced + 50 mutated fixtures, 1000 random property checks", started, 10.0)


def test_criterion_05_propagation_checks():
    started = time.perf_counter()
    dim = 4
    # empty neighbourhood lands on the zero vector
    lonely = spatial_graph(
        node_ids=("x",),
        features=np.ones((1, dim)),
        edges=(),
        weights=SpatialWeights(
            w1=(np.eye(dim),) * 2, w2=(np.zeros((dim, EDGE_DIMS)),) * 2
        ),
    )
    assert np.all(propagate(lonely).features == 0.0)

    # zero weights: every embedding zero, every score the neutral 0.5
    h0 = np.random.default_rng(1).normal(size=(3, dim))
    zero_graph = spatial_graph(
        node_ids=("a", "b", "c"),
        features=h0,
        edges=((0, 1), (1, 2)),
        weights=SpatialWeights(
            w1=(np.zeros((dim, dim)),), w2=(np.zeros((dim, EDGE_DIMS)),)
        ),
    )
    result = propagate(zero_graph)
    assert np.all(result.features == 0.0)
    assert result.values.tolist() == [0.5, 0.5]

    # two-node hand case against direct matrix evaluation
    rng = np.random.default_rng(7)
    h0 = rng.normal(size=(2, dim))
    w1 = rng.normal(size=(dim, dim))
    w2 = rng.normal(size=(dim, EDGE_DIMS))
    e01 = rng.normal(size=EDGE_DIMS)
    e10 = rng.normal(size=EDGE_DIMS)
    graph = spatial_graph(
        node_ids=("a", "b"),
        features=h0,
        edges=((0, 1),),
        weights=SpatialWeights(w1=(w1,), w2=(w2,)),
        edge_sums=summed_edge_features(2, {(0, 1): e01, (1, 0): e10}),
    )
    result = propagate(graph)
    expected0 = np.maximum(w1 @ h0[1] + w2 @ e01, 0.0)
    expected1 = np.maximum(w1 @ h0[0] + w2 @ e10, 0.0)
    assert np.allclose(result.features[0], expected0, atol=1e-12)
    assert np.allclose(result.features[1], expected1, atol=1e-12)
    _report(5, "zero-neighbourhood, zero-weight and hand-computed cases", started, 5.0)


def test_criterion_06_fusion_properties():
    started = time.perf_counter()
    rng = random.Random(90210)
    unit_weights = [fusion_config((1, 0, 0)), fusion_config((0, 1, 0)), fusion_config((0, 0, 1))]
    channels = []
    for _ in range(10_000):
        raw = [rng.random() for _ in range(3)]
        total = sum(raw) or 1.0
        weights = fusion_config([v / total for v in raw])
        base = (rng.random(), rng.random(), rng.random())
        channels.append(base)
        base_score = fuse_score(*base, weights)
        assert 0.0 <= base_score <= 1.0
        for channel in range(3):
            bumped = list(base)
            bumped[channel] = min(1.0, bumped[channel] + rng.random() * 0.5)
            assert fuse_score(*bumped, weights) >= base_score - 1e-12
        tau = rng.random()
        assert (base_score > tau) == (not base_score <= tau)  # pruning is a strict filter

    for index, weights in enumerate(unit_weights):
        fused = [fuse_score(*c, weights) for c in channels]
        for c, f in zip(channels, fused):
            assert abs(f - c[index]) <= 1e-12
        by_channel = np.argsort([c[index] for c in channels], kind="stable")
        by_fused = np.argsort(fused, kind="stable")
        assert list(by_channel) == list(by_fused)

    # pruning soundness on a concrete fused graph build
    doc = make_doc(
        [
            molecule_entity("m1", 0, 100, smiles="CCO"),
            molecule_entity("m2", 900, 100, smiles="C=C"),
            arrow_entity("a1", 450, 150, 850),
        ]
    )
    from rxnparse.reasoning import build_chem_graph, build_spatial_graph, fuse
    from rxnparse.reasoning.hypotheses import HypothesisEdge, HypothesisGraph

    config = ReasoningConfig()
    spatial = propagate(build_spatial_graph(doc, config))
    chem = build_chem_graph(doc, config)
    for tau in (0.0, 0.3, 0.45, 0.7, 1.0):
        hyp = HypothesisGraph(edges=(HypothesisEdge("m1", "a1", EdgeRelation.REACTANT_TO_ARROW, rng.random()),))
        fused = fuse(spatial, chem, hyp, ReasoningConfig(tau_fuse=tau))
        assert all(e.score > tau for e in fused.edges)
    _report(6, "monotonicity, degenerate argsort and pruning over 10^4 draws", started, 10.0)


def test_criterion_07_inference_optimality():
    started = time.perf_counter()
    rng = random.Random(777)
    config = ReasoningConfig()
    for component_index in range(300):
        n_arrows = rng.randint(1, 3)
        n_entities = rng.randint(1, 12 - n_arrows)
        arrow_ids = [f"a{k}" for k in range(n_arrows)]
        entity_ids = [f"e{k}" for k in range(n_entities)]
        entities = []
        for k, arrow_id in enumerate(arrow_ids):
            entities.append(arrow_entity(arrow_id, 60 + 420 * k, 150, 380 + 420 * k))
        for k, entity_id in enumerate(entity_ids):
            entities.append(molecule_entity(entity_id, (k % 6) * 300, 340 + (k // 6) * 160))
        doc = make_doc(entities, width=2600, height=900)

        edges = []
        affinity: dict = {}
        for entity_id in entity_ids:
            for arrow_id in arrow_ids:
                if rng.random() >= 0.65:
                    continue
                value = round(rng.uniform(0.01, 1.0), 9)
                relation = rng.choice(
                    [
                        EdgeRelation.REACTANT_TO_ARROW,
                        EdgeRelation.ARROW_TO_PRODUCT,
                        EdgeRelation.NO_EDGE,
                    ]
                )
                if relation == EdgeRelation.REACTANT_TO_ARROW:
                    source, target = entity_id, arrow_id
                elif relation == EdgeRelation.ARROW_TO_PRODUCT:
                    source, target = arrow_id, entity_id
                else:
                    source, target = min(entity_id, arrow_id), max(entity_id, arrow_id)
                edges.append(
                    FusedEdge(
                        source=source,
                        target=target,
                        relation=relation,
                        score=value,
                        s_space=0.5,
                        s_chem=0.5,
                        s_init=1.0,
                    )
                )
                affinity.setdefault(entity_id, {})
                affinity[entity_id][arrow_id] = affinity[entity_id].get(arrow_id, 0.0) + value

        fused = FusedGraph(
            node_ids=tuple(arrow_ids + entity_ids),
            edges=tuple(edges),
        )
        component = sorted(set(arrow_ids) | set(affinity))
        _, emitted = component_assignment(component, fused, doc, config)

        # exhaustive oracle over every entity-to-arrow choice; affinities are
        # positive, so leaving an entity unassigned never beats assigning it
        contenders = sorted(affinity)
        best = 0.0
        for combo in itertools.product(*[sorted(affinity[e]) for e in contenders]):
            best = max(best, sum(affinity[e][a] for e, a in zip(contenders, combo)))
        assert emitted == pytest.approx(best, abs=0.0), f"component {component_index}"
    _report(7, "300 random components match exhaustive assignment search", started, 120.0)


def test_criterion_08_end_to_end_mock_determinism(tmp_path):
    started = time.perf_counter()
    root = tmp_path / "corpus"
    paths, gt_entries = build_corpus(root, per_layout=5)
    assert len(paths) == 20
    layouts = {json.loads(p.read_text())["layout"] for p in paths}
    assert layouts == {"single_line", "multiple_line", "tree", "graph"}

    out_dir = tmp_path / "out"
    config = PipelineConfig(fixtures_dir=str(root / "fixtures"), output_dir=str(out_dir))

    artifacts = []
    produced_docs = []
    for _run in range(2):  # identical (inputs, config, fixtures) both times
        manifest = run_batch(paths, config)
        assert manifest.exit_code == 0
        blob = {}
        # the manifest is deterministic once stage timings are stripped
        stripped = manifest.to_dict()
        for entry in stripped["documents"]:
            entry.pop("stages")
        blob["manifest.json"] = json.dumps(stripped, sort_keys=True).encode()
        produced = []
        for entry, path in zip(gt_entries, paths):
            out_path = out_dir / f"{path.stem}.reactions.json"
            payload = out_path.read_bytes()
            blob[out_path.name] = payload
            produced.append(
                CorpusDocument(
                    doc_id=entry["id"],
                    reactions=tuple(boxed_reactions_from_json(payload.decode())),
                    layout=entry["layout"],
                )
            )
            # deterministic SVG of the parsed document
            doc = load_document(path.read_bytes())
            from rxnparse.pipeline import make_client, run_document

            outcome = run_document(doc, config, make_client(config))
            blob[f"{path.stem}.svg"] = render_svg(doc, outcome.reactions).encode()
        reports = {
            criterion: score_corpus(produced, produced, criterion).to_dict()
            for criterion in ("hard", "soft")
        }
        blob["report.json"] = json.dumps(reports, sort_keys=True).encode()
        artifacts.append(blob)
        produced_docs.append(produced)

    assert artifacts[0] == artifacts[1]  # byte-identical across runs
    for criterion in ("hard", "soft"):
        report = score_corpus(produced_docs[0], produced_docs[0], criterion)
        assert report.f1 == 1.0
    _report(8, "20-document batch byte-identical twice; self-eval F1 = 1.0", started, 60.0)


def test_criterion_09_planner_conformance():
    started = time.perf_counter()
    doc = make_doc(
        [
            molecule_entity("m1", 0, 100, smiles="CCO"),
            molecule_entity("m2", 900, 100, smiles="C=C"),
            arrow_entity("a1", 450, 150, 850),
        ]
    )
    features = extract_features(doc)
    full = route("extract all reactions", features)
    assert plan_to_json(full) == (
        '{"plan":{"molecule_expert":true,"arrow_expert":true,'
        '"text_expert":true,"reaction_expert":true}}'
    )
    smiles_only = route("convert molecule to SMILES", features)
    assert plan_to_json(smiles_only) == (
        '{"plan":{"molecule_expert":true,"arrow_expert":false,'
        '"text_expert":false,"reaction_expert":false}}'
    )
    rng = random.Random(424242)
    for _ in range(1000):
        subset = [r for r in ROLES if rng.random() < 0.5] or [rng.choice(ROLES)]
        plan = AgentPlan.from_roles(subset, provenance="rule-policy")
        assert plan_from_json(plan_to_json(plan), provenance="rule-policy") == plan
    _report(9, "planner scenarios exact; 1000 plan round-trips", started, 5.0)


def test_criterion_10_fingerprint_properties():
    started = time.perf_counter()
    rng = random.Random(808)
    pool = [random_molecule(rng) for _ in range(250)]
    prints = [m.fingerprint for m in pool]
    for fp in prints:
        assert tanimoto(fp, fp) == 1.0
        assert fp.bit_count() >= 1
    for _ in range(10_000):
        a, b = rng.choice(prints), rng.choice(prints)
        value = tanimoto(a, b)
        assert 0.0 <= value <= 1.0
        assert value == tanimoto(b, a)
    for k in range(100):
        mol = pool[k % len(pool)]
        assert permuted(mol, rng).fingerprint == mol.fingerprint
    _report(10, "10^4 tanimoto pairs and 100 reindexing checks", started, 30.0)

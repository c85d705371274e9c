import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from rxnparse.cli import _build_config, build_parser, main
from rxnparse.config import DEFAULT_QUERY, ConfigError, ReasoningConfig
from rxnparse.entities import load_document
from rxnparse.outputs import EXIT_CONFIG, EXIT_FAILED, EXIT_OK, EXIT_PARTIAL, write_atomic
from rxnparse.pipeline import PipelineConfig, load_pipeline_weights, make_client, run_batch, run_document
from rxnparse.reasoning import (
    EDGE_DIMS,
    build_chem_graph,
    build_spatial_graph,
    cluster_entities,
    propagate,
    random_weights,
    save_weights,
)
from rxnparse.reasoning.hypotheses import COMBINER_ROLE
from rxnparse.reasoning.spatial import BASE_NODE_DIMS
from rxnparse.render import UnknownEntityError, render_svg
from rxnparse.reactions import Reaction, reactions_to_json

from helpers import arrow_entity, make_doc, molecule_entity
from synthetic import build_corpus


SRC = Path(__file__).resolve().parents[1] / "src"
_EMPTY_REACTION = {"reactants": [], "products": [], "conditions": [], "arrow": []}

# a valid value for every reasoning key, each different from its default
CHANGED_REASONING = {
    "k_nn": 5,
    "radius": 0.3,
    "beta": 0.6,
    "tau_chem": 0.25,
    "tau_cluster": 0.4,
    "tau_fuse": 0.5,
    "alpha_space": 0.25,
    "alpha_chem": 0.25,
    "alpha_init": 0.5,
    "exact_search_limit": 10,
    "conservation_penalty": 0.8,
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths, gt = build_corpus(root, per_layout=1)
    return root, paths, gt


def break_write_text(monkeypatch):
    """Make ``Path.write_text`` write the first half of its text, then raise."""
    write_text = Path.write_text

    def write_half(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half)


@pytest.fixture(scope="module")
def discarded(tmp_path_factory):
    """A corpus whose every combiner reply is not JSON, so each document's replies are discarded."""
    root = tmp_path_factory.mktemp("discarded")
    paths, _gt = build_corpus(root, per_layout=1)
    for fixture in (root / "fixtures" / COMBINER_ROLE).glob("*.txt"):
        fixture.write_text("not json", encoding="utf-8")
    return root, paths


class TestPipelineConfig:
    def test_defaults_need_fixture_dir(self):
        with pytest.raises(ConfigError):
            PipelineConfig()

    def test_live_needs_endpoint(self):
        with pytest.raises(ConfigError):
            PipelineConfig(backend="live")

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig(fixtures_dir=str(tmp_path / "none"))

    def test_from_file_with_overrides(self, tmp_path):
        (tmp_path / "fx").mkdir()
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "fixtures_dir": str(tmp_path / "fx"),
                    "output_dir": str(tmp_path / "out"),
                    "reasoning": {"tau_fuse": 0.4},
                }
            )
        )
        config = PipelineConfig.from_file(config_path, {"tau_fuse": 0.6, "query": None})
        assert config.reasoning.tau_fuse == 0.6  # flag wins over file

        # every reasoning key is a `parse` flag, and each flag wins over the file
        assert set(CHANGED_REASONING) == {f.name for f in dataclasses.fields(ReasoningConfig)}
        config_path.write_text(
            json.dumps({"fixtures_dir": str(tmp_path / "fx"), "reasoning": dataclasses.asdict(ReasoningConfig())})
        )
        flags = []
        for key, value in CHANGED_REASONING.items():
            flags += [f"--{key.replace('_', '-')}", str(value)]
        args = build_parser().parse_args(["parse", "doc.json", "--config", str(config_path), *flags])
        assert _build_config(args).reasoning == ReasoningConfig(**CHANGED_REASONING)

    def test_loader_and_serialiser_agree(self, tmp_path):
        (tmp_path / "fx").mkdir()
        for reasoning in (ReasoningConfig(), ReasoningConfig(**CHANGED_REASONING)):
            config = PipelineConfig(fixtures_dir=str(tmp_path / "fx"), reasoning=reasoning)
            loaded = PipelineConfig.from_dict(config.to_dict())
            assert loaded == config
            assert loaded.config_hash() == config.config_hash()

    @pytest.mark.parametrize("key, value", [("fingerprint", {"width": 1024}), ("weights_seed", 7)])
    def test_removed_reasoning_keys_rejected(self, tmp_path, key, value):
        (tmp_path / "fx").mkdir()
        with pytest.raises(ConfigError, match=f"reasoning.{key}"):
            PipelineConfig.from_dict({"fixtures_dir": str(tmp_path / "fx"), "reasoning": {key: value}})

    def test_default_config_hash_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fixtures").mkdir()
        assert PipelineConfig(fixtures_dir="fixtures").config_hash() == "bbd13856e58662d9"

    def test_config_hash_and_seeded_weights_are_computed_once_and_equal_fresh_ones(self, tmp_path):
        (tmp_path / "fx").mkdir()
        config = PipelineConfig(fixtures_dir=str(tmp_path / "fx"))
        fresh = hashlib.sha256(json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()[:16]
        assert config.config_hash() == fresh
        assert PipelineConfig(fixtures_dir=str(tmp_path / "fx")).config_hash() is config.config_hash()

        weights = load_pipeline_weights(config)
        assert load_pipeline_weights(config) is weights
        rng = np.random.default_rng(7)  # random_weights' seed, drawn as it draws
        scale = 1.0 / np.sqrt(32)
        w1 = [rng.normal(0.0, scale, size=(32, 32)) for _ in range(2)]
        w2 = [rng.normal(0.0, scale, size=(32, EDGE_DIMS)) for _ in range(2)]
        for shared, drawn in zip(weights.w1 + weights.w2, w1 + w2):
            assert np.array_equal(shared, drawn)
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 1.0

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"tau_fuse": 1.5}, "tau_fuse must lie in [0, 1], got 1.5"),
            ({"radius": -0.1}, "radius must lie in [0, 1], got -0.1"),
            ({"beta": 2.0}, "beta must lie in [0, 1], got 2.0"),
            ({"k_nn": -1}, "k_nn >= 0 and exact_search_limit >= 1 required"),
            ({"exact_search_limit": 0}, "k_nn >= 0 and exact_search_limit >= 1 required"),
            ({"conservation_penalty": 0.0}, "conservation_penalty must lie in (0, 1]"),
            ({"conservation_penalty": 1.5}, "conservation_penalty must lie in (0, 1]"),
        ],
        ids=["tau", "radius", "beta", "k-nn", "exact-search-limit", "penalty-zero", "penalty-above-one"],
    )
    def test_reasoning_value_out_of_range_rejected(self, values, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ReasoningConfig(**values)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"backend": "remote"}, "backend must be 'mock' or 'live', got 'remote'"),
            ({"planner_policy": "llm"}, "planner_policy must be 'rule' or 'vlm', got 'llm'"),
        ],
        ids=["backend", "planner-policy"],
    )
    def test_unknown_backend_or_policy_rejected(self, tmp_path, values, message):
        (tmp_path / "fx").mkdir()
        with pytest.raises(ConfigError, match=re.escape(message)):
            PipelineConfig(fixtures_dir=str(tmp_path / "fx"), **values)

    def test_hash_stable_under_key_order(self, tmp_path):
        (tmp_path / "fx").mkdir()
        a = PipelineConfig.from_dict(
            {"fixtures_dir": str(tmp_path / "fx"), "output_dir": "o", "query": "q"}
        )
        b = PipelineConfig.from_dict(
            {"query": "q", "output_dir": "o", "fixtures_dir": str(tmp_path / "fx")}
        )
        assert a.config_hash() == b.config_hash()

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"frobnicator": 1})
        # matching settings are `eval` flags and the lexicon fed text tokens no output read;
        # each was once accepted here
        (tmp_path / "fx").mkdir()
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"FeCl3": ["ferric chloride"]}))
        removed = {"iou_threshold": 0.5, "criterion": "soft", "polygon_iou": True, "lexicon_file": str(lexicon)}
        for key, value in removed.items():
            with pytest.raises(ConfigError, match=key):
                PipelineConfig.from_dict({"fixtures_dir": str(tmp_path / "fx"), key: value})


class TestRunBatch:
    def test_batch_runs_and_isolates_failures(self, corpus, tmp_path):
        root, paths, _gt = corpus
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        config = PipelineConfig(
            fixtures_dir=str(root / "fixtures"), output_dir=str(tmp_path / "out")
        )
        manifest = run_batch(list(paths) + [broken], config)
        statuses = {Path(d.source).name: d.status for d in manifest.documents}
        assert statuses["broken.json"] == "failed"
        assert all(s == "ok" for name, s in statuses.items() if name != "broken.json")
        assert manifest.exit_code == 2  # partial

    def test_outputs_deterministic_across_runs(self, corpus, tmp_path):
        root, paths, _gt = corpus
        outputs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            config = PipelineConfig(fixtures_dir=str(root / "fixtures"), output_dir=str(out))
            manifest = run_batch(paths, config)
            assert manifest.exit_code == EXIT_OK
            blob = {}
            for produced in sorted(out.glob("*.reactions.json")):
                blob[produced.name] = produced.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1]

    def test_document_pool_matches_serial_run(self, tmp_path):
        root = tmp_path / "corpus"
        paths, _gt = build_corpus(root, per_layout=6)
        runs = []
        for workers in (1, 2):  # two threads for the documents and two more for each document's clusters
            config = PipelineConfig(
                fixtures_dir=str(root / "fixtures"),
                output_dir=str(tmp_path / f"workers{workers}"),
                max_workers=workers,
            )
            documents = run_batch(paths, config).to_dict()["documents"]
            for document in documents:
                del document["stages"]  # wall-clock times
                document["outputs"] = [Path(produced).read_bytes() for produced in document["outputs"]]
            runs.append(documents)
        assert len(runs[0]) >= 20
        assert all(document["status"] == "ok" for document in runs[0])
        clusters = [len(cluster_entities(load_document(path.read_bytes()), ReasoningConfig())) for path in paths]
        assert max(clusters) > 1  # the cluster threads ran too
        assert runs[1] == runs[0]

    def test_entity_order_does_not_change_outputs(self, tmp_path):
        """Shuffling each document's ``entities`` array leaves every reaction file byte-identical."""
        root = tmp_path / "corpus"
        paths, _gt = build_corpus(root, per_layout=5)
        shuffled_dir = tmp_path / "shuffled"
        shuffled_dir.mkdir()
        rng = random.Random(8)
        shuffled, moved = [], 0
        for path in paths:
            detection = json.loads(path.read_text(encoding="utf-8"))
            order = [entity["id"] for entity in detection["entities"]]
            rng.shuffle(detection["entities"])
            moved += order != [entity["id"] for entity in detection["entities"]]
            shuffled.append(shuffled_dir / path.name)
            shuffled[-1].write_text(json.dumps(detection), encoding="utf-8")
        assert moved == len(paths)
        outputs = []
        for name, batch in (("given", paths), ("shuffled", shuffled)):
            config = PipelineConfig(fixtures_dir=str(root / "fixtures"), output_dir=str(tmp_path / name))
            assert run_batch(batch, config).exit_code == EXIT_OK
            outputs.append({out.name: out.read_bytes() for out in (tmp_path / name).glob("*.reactions.json")})
        assert len(outputs[0]) == len(paths)
        assert outputs[1] == outputs[0]

    def test_empty_document_ok(self, tmp_path):
        detection = tmp_path / "empty.json"
        detection.write_text(json.dumps({"width": 100, "height": 100, "entities": []}))
        (tmp_path / "fx").mkdir()
        config = PipelineConfig(
            fixtures_dir=str(tmp_path / "fx"), output_dir=str(tmp_path / "out")
        )
        manifest = run_batch([detection], config)
        assert manifest.documents[0].status == "ok"
        produced = Path(manifest.documents[0].outputs[0])
        assert json.loads(produced.read_text()) == []

    def test_discarded_reply_makes_the_document_partial(self, discarded, tmp_path):
        root, paths = discarded
        config = PipelineConfig(fixtures_dir=str(root / "fixtures"), output_dir=str(tmp_path / "out"))
        manifest = run_batch(paths, config)
        assert [d.status for d in manifest.documents] == ["partial"] * len(paths)
        assert all(any("discarded response" in w for w in d.warnings) for d in manifest.documents)
        assert all(Path(d.outputs[0]).exists() for d in manifest.documents)
        assert manifest.exit_code == EXIT_PARTIAL

    def test_batch_where_every_document_fails_exits_4(self, tmp_path):
        broken = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in broken:
            path.write_text("{not json")
        (tmp_path / "fx").mkdir()
        config = PipelineConfig(fixtures_dir=str(tmp_path / "fx"), output_dir=str(tmp_path / "out"))
        manifest = run_batch(broken, config)
        assert [d.status for d in manifest.documents] == ["failed", "failed"]
        assert manifest.exit_code == EXIT_FAILED

    def test_same_stem_inputs_fail_instead_of_overwriting(self, tmp_path):
        empty = json.dumps({"width": 100, "height": 100, "entities": []})
        first, second, other = tmp_path / "x" / "doc.json", tmp_path / "y" / "doc.json", tmp_path / "other.json"
        for path in (first, second, other):
            path.parent.mkdir(exist_ok=True)
            path.write_text(empty)
        (tmp_path / "fx").mkdir()
        out = tmp_path / "out"
        config = PipelineConfig(fixtures_dir=str(tmp_path / "fx"), output_dir=str(out))
        manifest = run_batch([first, other, second], config)
        results = {d.source: d for d in manifest.documents}
        assert [d.source for d in manifest.documents] == [str(first), str(other), str(second)]
        assert results[str(first)].status == results[str(second)].status == "failed"
        assert str(second) in results[str(first)].error
        assert str(first) in results[str(second)].error
        assert results[str(other)].status == "ok"
        assert results[str(other)].outputs == [str(out / "other.reactions.json")]
        # no colliding output and no leftover temporary file
        assert sorted(p.name for p in out.iterdir()) == ["other.reactions.json"]
        assert manifest.exit_code == 2

    def test_failed_write_leaves_no_partial_output(self, tmp_path, monkeypatch):
        detection = tmp_path / "empty.json"
        detection.write_text(json.dumps({"width": 100, "height": 100, "entities": []}))
        (tmp_path / "fx").mkdir()
        out = tmp_path / "out"
        config = PipelineConfig(fixtures_dir=str(tmp_path / "fx"), output_dir=str(out))

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("rxnparse.pipeline.os.replace", refuse)
        manifest = run_batch([detection], config)
        assert manifest.documents[0].status == "failed"
        assert "disk full" in manifest.documents[0].error
        assert list(out.iterdir()) == []

    def test_vlm_planner_policy(self, corpus, tmp_path):
        """The optional VLM routing policy answers through the same client."""
        from rxnparse.agents import MockAgentClient

        root, paths, _gt = corpus
        client = MockAgentClient(root / "fixtures")
        client.store(
            "planner",
            {"query": DEFAULT_QUERY},
            '{"plan":{"molecule_expert":true,"arrow_expert":true,'
            '"text_expert":true,"reaction_expert":true}}',
        )
        config = PipelineConfig(
            fixtures_dir=str(root / "fixtures"),
            output_dir=str(tmp_path / "out"),
            planner_policy="vlm",
        )
        manifest = run_batch(paths, config)
        assert manifest.exit_code == EXIT_OK

    def test_missing_fixture_fails_document(self, tmp_path):
        detection = tmp_path / "doc.json"
        detection.write_text(
            json.dumps(
                {
                    "width": 1000,
                    "height": 300,
                    "entities": [
                        {"id": "m1", "label": "molecule", "bbox": [0, 100, 140, 200], "smiles": "CCO"},
                        {"id": "m2", "label": "molecule", "bbox": [700, 100, 840, 200], "smiles": "C=C"},
                    ],
                }
            )
        )
        (tmp_path / "fx").mkdir()
        config = PipelineConfig(fixtures_dir=str(tmp_path / "fx"), output_dir=str(tmp_path / "out"))
        manifest = run_batch([detection], config)
        assert manifest.documents[0].status == "failed"
        assert "FixtureMissing" in manifest.documents[0].error


    def test_braces_in_entity_text_reach_the_prompt_verbatim(self, tmp_path):
        """Entity text is outside input: a ``{{`` in it is prompt text, not a placeholder."""
        from rxnparse.agents import MockAgentClient
        from rxnparse.reasoning import COMBINER_ROLE, cluster_entities, cluster_prompt_variables

        entities = [
            {"id": "m1", "label": "molecule", "bbox": [0, 100, 140, 200], "smiles": "CCO"},
            {"id": "a1", "label": "arrow", "bbox": [180, 140, 420, 140, 420, 160, 180, 160]},
            {"id": "t1", "label": "text", "bbox": [220, 90, 380, 130], "text": "reflux {{2 h}}"},
            {"id": "m2", "label": "molecule", "bbox": [460, 100, 600, 200], "smiles": "CC=O"},
        ]
        detection = {"width": 700, "height": 300, "entities": entities}
        detection_path = tmp_path / "braces.json"
        detection_path.write_text(json.dumps(detection))
        boxes = {e["id"]: {"label": e["label"], "bbox": e["bbox"]} for e in entities}
        reply = [
            {"reactants": [boxes["m1"]], "products": [boxes["m2"]], "conditions": [boxes["t1"]], "arrow": [boxes["a1"]]}
        ]
        (tmp_path / "fx").mkdir()
        config = PipelineConfig(fixtures_dir=str(tmp_path / "fx"), output_dir=str(tmp_path / "out"))
        client = MockAgentClient(tmp_path / "fx")
        doc = load_document(json.dumps(detection))
        for cluster in cluster_entities(doc, config.reasoning):
            variables = cluster_prompt_variables(cluster, doc, config.reasoning)
            assert "reflux {{2 h}}" in variables["graph_json"]
            client.store(COMBINER_ROLE, variables, json.dumps(reply))

        manifest = run_batch([detection_path], config)
        assert manifest.documents[0].status == "ok", manifest.documents[0].error
        emitted = json.loads((tmp_path / "out" / "braces.reactions.json").read_text())
        assert [_role_sorted(r) for r in emitted] == [_role_sorted(reply[0])]


def _role_sorted(reaction_obj):
    return {
        role: sorted(json.dumps(item, sort_keys=True) for item in reaction_obj[role])
        for role in ("reactants", "products", "conditions", "arrow")
    }


def test_example_document_end_to_end(two_reaction_json, tmp_path):
    """cmd_parse on the reference example reproduces its reaction set."""
    from rxnparse.agents import MockAgentClient
    from rxnparse.reasoning import COMBINER_ROLE, cluster_entities, cluster_prompt_variables

    example = json.loads(two_reaction_json)
    entities = []
    counter = 0
    for reaction in example:
        for role in ("reactants", "products", "conditions", "arrow"):
            for item in reaction[role]:
                entities.append({"id": f"e{counter}", "label": item["label"], "bbox": item["bbox"]})
                counter += 1
    detection = {"width": 1400, "height": 300, "entities": entities}
    detection_path = tmp_path / "example.json"
    detection_path.write_text(json.dumps(detection))

    from rxnparse.entities import load_document

    doc = load_document(json.dumps(detection))
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    client = MockAgentClient(fixtures)
    config = PipelineConfig(fixtures_dir=str(fixtures), output_dir=str(tmp_path / "out"))
    for cluster in cluster_entities(doc, config.reasoning):
        client.store(
            COMBINER_ROLE,
            cluster_prompt_variables(cluster, doc, config.reasoning),
            two_reaction_json,
        )

    manifest = run_batch([detection_path], config)
    assert manifest.exit_code == EXIT_OK
    emitted = json.loads((tmp_path / "out" / "example.reactions.json").read_text())
    # reactions and role members are sets; ranking decides array order
    produced = sorted(json.dumps(_role_sorted(r), sort_keys=True) for r in emitted)
    expected = sorted(json.dumps(_role_sorted(r), sort_keys=True) for r in example)
    assert produced == expected


def test_corpus_against_ground_truth(corpus, tmp_path):
    """Linear layouts reproduce their ground truth exactly; branching
    layouts degrade in the documented way (an entity supports only its
    best arrow), never by inventing molecules: soft precision stays 1.0."""
    from rxnparse.evaluation import CorpusDocument, score_corpus
    from rxnparse.reactions import boxed_reactions_from_json

    root, paths, gt_entries = corpus
    config = PipelineConfig(fixtures_dir=str(root / "fixtures"), output_dir=str(tmp_path / "out"))
    manifest = run_batch(paths, config)
    assert manifest.exit_code == EXIT_OK
    gt_docs, pred_docs = [], []
    for entry, path in zip(gt_entries, paths):
        payload = (tmp_path / "out" / f"{path.stem}.reactions.json").read_text()
        gt_docs.append(
            CorpusDocument(
                doc_id=entry["id"],
                reactions=tuple(boxed_reactions_from_json(json.dumps(entry["reactions"]))),
                layout=entry["layout"],
            )
        )
        pred_docs.append(
            CorpusDocument(
                doc_id=entry["id"],
                reactions=tuple(boxed_reactions_from_json(payload)),
                layout=entry["layout"],
            )
        )
    hard = score_corpus(gt_docs, pred_docs, "hard")
    soft = score_corpus(gt_docs, pred_docs, "soft")
    assert hard.per_layout["single_line"][2] == 1.0
    assert hard.per_layout["multiple_line"][2] == 1.0
    assert soft.precision == 1.0
    assert soft.f1 >= hard.f1


def test_own_outputs_reparse_losslessly(corpus, tmp_path):
    """Serialized reasoning output resolves back to the same entity ids."""
    import rxnparse.reactions as rx
    from rxnparse.entities import load_document
    from rxnparse.pipeline import run_document

    root, paths, _gt = corpus
    config = PipelineConfig(fixtures_dir=str(root / "fixtures"), output_dir=str(tmp_path))
    client = make_client(config)
    for path in paths:
        doc = load_document(path.read_bytes())
        outcome = run_document(doc, config, client)
        emitted = rx.reactions_to_json(outcome.reactions, doc)
        reparsed = rx.parse_combiner_response(emitted, doc)
        assert [
            (r.reactants, r.products, r.conditions, r.arrows) for r in reparsed
        ] == [(r.reactants, r.products, r.conditions, r.arrows) for r in outcome.reactions]


def test_plan_without_reaction_expert_skips_reasoning(corpus, tmp_path):
    """A molecule-only plan returns no reactions and makes no agent call."""
    from rxnparse.agents import MockAgentClient
    from rxnparse.entities import load_document
    from rxnparse.pipeline import run_document

    _root, paths, _gt = corpus
    (tmp_path / "fx").mkdir()  # empty: any agent request raises FixtureMissingError
    config = PipelineConfig(
        fixtures_dir=str(tmp_path / "fx"),
        output_dir=str(tmp_path / "out"),
        query="convert molecule to SMILES",
    )
    doc = load_document(paths[0].read_bytes())
    stages = {}
    outcome = run_document(doc, config, MockAgentClient(tmp_path / "fx"), timings=stages)
    assert outcome.plan.steps == ("molecule_expert",)
    assert outcome.reactions == []
    assert list(stages) == ["plan"]


def test_each_fingerprint_computed_once(monkeypatch, tmp_path):
    """One fingerprint per distinct SMILES of a document, shared by both layers and by its entities."""
    import importlib

    from rxnparse.agents import AgentClient
    from rxnparse.pipeline import run_document

    class EmptyReplies(AgentClient):
        def _send(self, role, prompt, image, key):
            return "[]"

    # the molecule computes its fingerprint through this private helper, looked up in its own module, on first read
    molecule_module = importlib.import_module("rxnparse.chem.molecule")
    calls = []
    original = molecule_module._path_bits

    def counting(molecule):
        calls.append(molecule)
        return original(molecule)

    monkeypatch.setattr(molecule_module, "_path_bits", counting)
    docs = [
        make_doc(
            [
                molecule_entity("m1", 0, 100, smiles="CCO"),
                molecule_entity("m2", 300, 100, smiles="c1ccccc1"),
                molecule_entity("m3", 900, 100, smiles="CC(=O)O"),
                molecule_entity("bad", 600, 300, smiles="C1CC"),
                molecule_entity("bare", 1200, 300),
                arrow_entity("a1", 450, 150, 850),
            ]
        ),
        make_doc(
            [
                molecule_entity("n1", 0, 100, smiles="CC(=O)O"),
                molecule_entity("n2", 900, 100, smiles="CCO"),
                molecule_entity("n3", 300, 300, smiles="CCO"),
                arrow_entity("a1", 450, 150, 850),
            ]
        ),
    ]
    (tmp_path / "fx").mkdir()
    config = PipelineConfig(fixtures_dir=str(tmp_path / "fx"), output_dir=str(tmp_path / "out"))
    for doc in docs:
        stages = {}
        run_document(doc, config, EmptyReplies(), timings=stages)
        assert "reason" in stages  # the chemistry and spatial layers ran
    parsed = {id(e.molecule): e.molecule for doc in docs for e in doc.entities if e.molecule is not None}
    # three distinct SMILES in the first document, two in the second, although "CCO" names two entities there
    assert sorted(m.source_text for m in parsed.values()) == ["CC(=O)O", "CC(=O)O", "CCO", "CCO", "c1ccccc1"]
    assert sorted(map(id, calls)) == sorted(parsed)


class TestRender:
    def test_svg_deterministic(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 100, smiles="CCO"),
                molecule_entity("m2", 900, 100, smiles="C=C"),
                arrow_entity("a1", 450, 150, 850),
            ]
        )
        reaction = Reaction(reactants=("m1",), products=("m2",), arrows=("a1",))
        assert render_svg(doc, [reaction]) == render_svg(doc, [reaction])

    def test_reaction_groups_present(self):
        doc = make_doc(
            [
                molecule_entity("m1", 0, 100),
                molecule_entity("m2", 900, 100),
            ]
        )
        reaction = Reaction(reactants=("m1",), products=("m2",))
        svg = render_svg(doc, [reaction])
        assert 'id="reaction-0"' in svg
        assert svg.startswith("<?xml")

    def test_entities_only_when_no_reactions(self):
        doc = make_doc([molecule_entity("m1", 0, 100)])
        svg = render_svg(doc)
        assert "reaction-0" not in svg
        assert "rect" in svg

    def test_ids_needing_escapes_give_well_formed_svg(self):
        doc = make_doc([molecule_entity("R&D<1>", 0, 100), molecule_entity("m2", 900, 100)])
        svg = render_svg(doc, [Reaction(reactants=("R&D<1>",), products=("m2",))])
        labels = [node.firstChild.data for node in minidom.parseString(svg).getElementsByTagName("text")]
        assert labels[:2] == ["R&D<1>", "m2"]
        assert ">R&amp;D&lt;1&gt;</text>" in svg

    def test_dangling_reference_rejected(self):
        doc = make_doc([molecule_entity("m1", 0, 100), molecule_entity("m2", 900, 100)])
        reaction = Reaction(reactants=("m1",), products=("ghost",))
        with pytest.raises(UnknownEntityError):
            render_svg(doc, [reaction])


class TestCli:
    def test_plan_subcommand(self, corpus, capsys):
        _root, paths, _gt = corpus
        code = main(["plan", str(paths[0]), "--query", "extract all reactions"])
        out = capsys.readouterr().out.strip()
        assert code == EXIT_OK
        assert json.loads(out)["plan"]["reaction_expert"] is True

    def test_plan_with_an_empty_query_is_a_config_error_before_the_document_loads(self, tmp_path, capsys):
        code = main(["plan", str(tmp_path / "never-read.json"), "--query", ""])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: query must be non-empty\n"

    def test_fingerprint_subcommand(self, capsys):
        code = main(["fingerprint", "CCO"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert data == {
            "smiles": "CCO",
            "atom_counts": {"C": 2, "H": 6, "O": 1},
            "formal_charge": 0,
            "fingerprint": {"tag": "path-v1:l5", "width": 2048, "popcount": 5, "bits": [759, 867, 1035, 1697, 2020]},
        }

    def test_parse_and_eval_roundtrip(self, corpus, tmp_path, capsys):
        root, paths, gt = corpus
        out_dir = tmp_path / "out"
        code = main(
            [
                "parse",
                *[str(p) for p in paths],
                "--fixtures-dir",
                str(root / "fixtures"),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert list(manifest) == ["config_hash", "documents"]
        assert [list(document) for document in manifest["documents"]] == [
            ["source", "status", "error", "stages", "outputs", "warnings"]
        ] * len(paths)

        # self-eval of produced outputs scores 1.0 under both criteria
        produced = []
        for entry, path in zip(gt, paths):
            reactions = json.loads((out_dir / f"{path.stem}.reactions.json").read_text())
            produced.append({"id": entry["id"], "layout": entry["layout"], "reactions": reactions})
        pred_file = tmp_path / "pred.json"
        pred_file.write_text(json.dumps(produced))
        report_file = tmp_path / "report.json"
        code = main(
            ["eval", "--gt", str(pred_file), "--pred", str(pred_file), "--per-layout", "--out", str(report_file)]
        )
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "hard" in table and "soft" in table
        reports = json.loads(report_file.read_text())
        assert all(r["f1"] == 1.0 for r in reports)

    def test_config_error_exit_code(self, tmp_path):
        code = main(["parse", "nothing.json", "--fixtures-dir", str(tmp_path / "missing")])
        assert code == EXIT_CONFIG

    def test_lexicon_file_flag_is_a_usage_error(self, corpus, tmp_path):
        root, paths, _gt = corpus
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"FeCl3": ["ferric chloride"]}))
        args = [str(paths[0]), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main(["parse", *args, "--lexicon-file", str(lexicon)])
        assert exit_info.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content, named",
        [
            ({"reasoning": {"k_nn": "four"}}, "reasoning.k_nn"),
            ({"reasoning": {"exact_search_limit": 2.5}}, "reasoning.exact_search_limit"),
            ({"reasoning": {"tau_fuse": True}}, "reasoning.tau_fuse"),
            ({"reasoning": [1]}, "reasoning"),
            ({"max_workers": "2"}, "max_workers"),
            ({"plan_fallback": "yes"}, "plan_fallback"),
            ({"output_dir": None}, "output_dir"),
            ({"model": 3}, "model"),
            ('{"fixtures_dir": "fx", "reasoning": {', "not valid JSON"),
            ("[1, 2]", "JSON object"),
            (None, "cannot read config file"),
            # max_workers is the one thread count, and the weights file alone sets the spatial shape
            ({"cluster_workers": 2}, "unknown config keys: ['cluster_workers']"),
            ({"reasoning": {"layers": 2}}, "unknown config keys: ['reasoning.layers']"),
            ({"reasoning": {"dim": 32}}, "unknown config keys: ['reasoning.dim']"),
        ],
        ids=[
            "int-as-string", "int-as-float", "float-as-bool", "reasoning-not-object", "workers-as-string",
            "bool-as-string", "null-output-dir", "name-as-number", "truncated", "top-level-array", "missing-file",
            "removed-cluster-workers", "removed-layers", "removed-dim",
        ],
    )
    def test_malformed_config_file_exits_3(self, tmp_path, capsys, content, named):
        (tmp_path / "fx").mkdir()
        config_path = tmp_path / "config.json"
        if isinstance(content, dict):
            content = json.dumps({"fixtures_dir": str(tmp_path / "fx"), **content})
        if content is not None:
            config_path.write_text(content)
        code = main(["parse", "nothing.json", "--config", str(config_path)])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "documents, message",
        [
            ([{"reactions": []}], "document 0 needs 'id'"),
            ([{"id": "d1"}], "document 0 needs 'id' and 'reactions'"),
            ([{"id": "d0", "reactions": []}, {"id": "d1", "reactions": [], "layout": ["tree"]}],
             "document 1 'layout' must be a string"),
            ([{"id": "d0", "reactions": [], "layout": 3}, {"id": "d1", "reactions": [], "layout": "tree"}],
             "document 0 'layout' must be a string"),
        ],
        ids=["no-id", "no-reactions", "list-layout", "int-and-string-layouts"],
    )
    def test_malformed_eval_corpus_entry(self, tmp_path, capsys, documents, message):
        eval_file = tmp_path / "gt.json"
        eval_file.write_text(json.dumps(documents))
        code = main(["eval", "--gt", str(eval_file), "--pred", str(eval_file)])
        err = capsys.readouterr().err
        assert code == EXIT_FAILED
        assert "ResponseFormatError" in err and message in err

    @pytest.mark.parametrize("key", ["alpha_space", "alpha_chem", "alpha_init"])
    def test_nan_fusion_weight_exits_3(self, corpus, tmp_path, capsys, key):
        root, paths, _gt = corpus
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"fixtures_dir": str(root / "fixtures"), "reasoning": {key: math.nan}}))
        out_dir = tmp_path / "out"
        code = main(["parse", *map(str, paths), "--config", str(config_path), "--output-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: fusion weights must be non-negative")
        assert not out_dir.exists()

    def test_dim_below_node_features_exits_3(self, corpus, tmp_path, capsys):
        """A weights file narrower than the node features is a config error naming it, before any output."""
        root, paths, _gt = corpus
        weights_file = tmp_path / "weights.json"
        save_weights(random_weights(2, BASE_NODE_DIMS - 1), weights_file)
        out_dir = tmp_path / "out"
        args = [str(paths[0]), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(out_dir)]
        code = main(["parse", *args, "--weights-file", str(weights_file)])
        assert code == EXIT_CONFIG
        assert f"config error: weights file {weights_file} has dim 23, below the 24" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_run_document_given_narrow_weights_is_a_config_error(self, corpus):
        """Weights narrower than the node features fail as a ConfigError where they are built, not in numpy."""
        root, paths, _gt = corpus
        config = PipelineConfig(fixtures_dir=str(root / "fixtures"))
        doc = load_document(paths[0].read_bytes())
        with pytest.raises(ConfigError, match="spatial weights have dim 12"):
            run_document(doc, config, make_client(config), weights=random_weights(1, 12))

    @pytest.mark.parametrize("flag", ["--layers", "--dim"])
    def test_removed_flag_is_a_usage_error(self, flag):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["parse", "doc.json", flag, "2"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--query", ""], "query must be non-empty"),
            (["--max-workers", "0"], "max_workers must be >= 1, got 0"),
            (["--max-workers", "-3"], "max_workers must be >= 1, got -3"),
        ],
        ids=["empty-query", "no-workers", "negative-workers"],
    )
    def test_unusable_run_setting_exits_3(self, corpus, tmp_path, capsys, flags, named):
        root, paths, _gt = corpus
        out_dir = tmp_path / "out"
        args = [str(paths[0]), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(out_dir), *flags]
        code = main(["parse", *args])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and named in err
        assert not out_dir.exists()

    def test_failed_manifest_write_keeps_the_previous_manifest(self, corpus, tmp_path, capsys, monkeypatch):
        root, paths, _gt = corpus
        out_dir = tmp_path / "out"
        args = ["parse", str(paths[0]), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(out_dir)]
        assert main(args) == EXIT_OK
        written = sorted(out_dir.iterdir())
        before = (out_dir / "manifest.json").read_bytes()
        break_write_text(monkeypatch)
        code = main(args)
        monkeypatch.undo()
        assert code == EXIT_FAILED
        assert "OSError: disk full" in capsys.readouterr().err
        assert (out_dir / "manifest.json").read_bytes() == before
        assert sorted(out_dir.iterdir()) == written  # and no temporary file

    def test_failed_report_write_keeps_the_previous_report(self, tmp_path, capsys, monkeypatch):
        eval_file, report = tmp_path / "gt.json", tmp_path / "report.json"
        eval_file.write_text(json.dumps([_EMPTY_REACTION]))
        args = ["eval", "--gt", str(eval_file), "--pred", str(eval_file), "--out", str(report)]
        assert main(args) == EXIT_OK
        written = {path: path.read_bytes() for path in tmp_path.iterdir()}
        break_write_text(monkeypatch)
        code = main(args)
        monkeypatch.undo()
        assert code == EXIT_FAILED
        assert "OSError: disk full" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == written

    @pytest.mark.parametrize(
        "content, message",
        [("{not json", "is not valid JSON"), ('{"id": "d1", "reactions": []}', "must be a JSON array")],
        ids=["not-json", "not-an-array"],
    )
    def test_eval_file_that_is_not_a_json_array_exits_4(self, tmp_path, capsys, content, message):
        eval_file = tmp_path / "gt.json"
        eval_file.write_text(content)
        code = main(["eval", "--gt", str(eval_file), "--pred", str(eval_file)])
        err = capsys.readouterr().err
        assert code == EXIT_FAILED
        assert "ResponseFormatError" in err and message in err

    def test_weights_file_of_the_fallback_weights_writes_the_same_bytes(self, corpus, tmp_path, capsys):
        """The seeded fallback is ``random_weights()``, 2 x 32 with seed 7; saved to a file, it is the same run."""
        root, paths, _gt = corpus
        weights_file = tmp_path / "weights.json"
        save_weights(random_weights(2, 32), weights_file)
        written = {}
        for name, flags in (("none", []), ("file", ["--weights-file", str(weights_file)])):
            out_dir = tmp_path / name
            args = [*map(str, paths), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(out_dir)]
            assert main(["parse", *args, *flags]) == EXIT_OK
            written[name] = {path.name: path.read_bytes() for path in out_dir.glob("*.reactions.json")}
        capsys.readouterr()
        assert len(written["none"]) == len(paths)
        assert written["file"] == written["none"]

    def test_weights_file_sets_the_spatial_shape(self, corpus, tmp_path, capsys):
        """A 3 x 48 weights file runs as ``run_document`` given those weights: the file alone sets the shape."""
        root, paths, _gt = corpus
        weights = random_weights(3, 48)
        weights_file = tmp_path / "weights.json"
        save_weights(weights, weights_file)
        out_dir = tmp_path / "out"
        args = [*map(str, paths), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(out_dir)]
        assert main(["parse", *args, "--weights-file", str(weights_file)]) == EXIT_OK
        capsys.readouterr()
        config = PipelineConfig(fixtures_dir=str(root / "fixtures"))
        client = make_client(config)
        for path in paths:
            doc = load_document(path.read_bytes())
            expected = reactions_to_json(run_document(doc, config, client, weights).reactions, doc) + "\n"
            assert (out_dir / f"{path.stem}.reactions.json").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize(
        "layers, dim, w2_columns, message",
        [(2, 32, 5, "W2 must be 32x20, got (32, 5)")],
        ids=["w2-5-columns"],
    )
    def test_mismatched_weights_file_exits_3_before_any_document(
        self, corpus, tmp_path, capsys, layers, dim, w2_columns, message
    ):
        root, paths, _gt = corpus
        weights_file = tmp_path / "weights.json"
        save_weights(random_weights(layers, dim), weights_file)
        payload = json.loads(weights_file.read_text())
        for layer in payload["weights"]:
            layer["W2"] = [row[:w2_columns] for row in layer["W2"]]
        weights_file.write_text(json.dumps(payload))
        out_dir = tmp_path / "out"
        args = [str(paths[0]), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(out_dir)]
        code = main(["parse", *args, "--weights-file", str(weights_file)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ([{"id": "d1", "reactions": [_EMPTY_REACTION, {"reactants": []}]}], "reaction 1 is missing keys"),
            ([{"id": "d1", "reactions": [{**_EMPTY_REACTION, "arrow": [{"label": "arrow", "bbox": [1, 2]}]}]}],
             "reaction 0: bad bbox"),
            ([_EMPTY_REACTION, _EMPTY_REACTION, {**_EMPTY_REACTION, "products": {}}], "reaction 2: reaction roles"),
            ([{"id": "d1", "reactions": [{**_EMPTY_REACTION, "arrow": [{"label": "arrow", "bbox": [0, 0, 1, 1e400]}]}]}],
             "must be finite"),
            ([{**_EMPTY_REACTION, "reactants": [{"label": "molecule", "bbox": ["0", True, "1e1", 5]}]}],
             "coordinates must be numbers"),
        ],
        ids=["corpus-missing-keys", "corpus-bad-bbox", "bare-array-role-not-array", "corpus-infinite-bbox",
             "bare-array-string-and-bool-bbox"],
    )
    def test_malformed_eval_reactions_exit_4(self, tmp_path, capsys, content, message):
        eval_file = tmp_path / "gt.json"
        eval_file.write_text(json.dumps(content))
        code = main(["eval", "--gt", str(eval_file), "--pred", str(eval_file)])
        err = capsys.readouterr().err
        assert code == EXIT_FAILED
        assert "ResponseFormatError" in err and message in err

    @pytest.mark.parametrize("flags", [["-v"], ["--log-level", "INFO"], []], ids=["v", "log-level", "default"])
    def test_log_level_shows_agent_requests(self, corpus, tmp_path, flags):
        root, paths, _gt = corpus
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        args = ["parse", str(paths[0]), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-m", "rxnparse", *flags, *args], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == EXIT_OK, done.stderr
        shown = "INFO rxnparse.agents: agent request role=reaction_combiner hash=" in done.stderr
        assert shown == bool(flags)

    def test_score_edge_subcommand(self, corpus, capsys):
        """Every pair prints its channel scores as the graphs' views give them, 0.5 where a channel has no edge."""
        root, paths, _gt = corpus
        doc = load_document(paths[0].read_bytes())
        fixtures = ["--fixtures-dir", str(root / "fixtures")]
        config = _build_config(build_parser().parse_args(["score-edge", str(paths[0]), "a", "b", *fixtures]))
        spatial = propagate(build_spatial_graph(doc, config.reasoning, load_pipeline_weights(config)))
        space, chem = spatial.score_by_ids(), build_chem_graph(doc, config.reasoning).scores
        ids = [e.id for e in doc.entities]
        pairs = [(a, b) for a in ids for b in ids if a != b]
        assert any(pair in space for pair in pairs) and any(pair in chem for pair in pairs)
        for a, b in pairs:
            assert main(["score-edge", str(paths[0]), a, b, *fixtures]) == EXIT_OK
            data = json.loads(capsys.readouterr().out)
            pair = (min(a, b), max(a, b))
            assert (data["s_space"], data["s_chem"]) == (space.get(pair, 0.5), chem.get(pair, 0.5))
            assert 0.0 <= data["s_space"] <= 1.0 and 0.0 <= data["s_chem"] <= 1.0

    def test_score_edge_of_an_unknown_id_exits_4(self, corpus, capsys):
        root, paths, _gt = corpus
        code = main(["score-edge", str(paths[0]), "nosuch", "alsonot", "--fixtures-dir", str(root / "fixtures")])
        captured = capsys.readouterr()
        assert code == EXIT_FAILED and captured.out == ""
        assert "has no entity 'nosuch', 'alsonot'" in captured.err

    def test_render_of_a_discarded_reply_exits_2_and_writes_the_svg(self, discarded, tmp_path, capsys):
        root, paths = discarded
        out = tmp_path / "doc.svg"
        args = [str(paths[0]), "--out", str(out), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(tmp_path)]
        code = main(["render", *args])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "warning: cluster " in err and "discarded response" in err
        assert out.read_text().startswith("<?xml")

    def test_render_subcommand(self, corpus, tmp_path, capsys):
        root, paths, _gt = corpus
        out = tmp_path / "doc.svg"
        code = main(
            [
                "render",
                str(paths[0]),
                "--out",
                str(out),
                "--fixtures-dir",
                str(root / "fixtures"),
                "--output-dir",
                str(tmp_path / "o"),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert out.read_text().startswith("<?xml")


def test_write_atomic_leaves_only_the_target(tmp_path, monkeypatch):
    """A write that succeeds renames its temporary away and makes no unlink call."""
    unlinked, unlink = [], Path.unlink
    monkeypatch.setattr(Path, "unlink", lambda self, *args, **kwargs: unlinked.append(self) or unlink(self, *args, **kwargs))
    target = tmp_path / "out.json"
    write_atomic(target, "text")
    assert target.read_text(encoding="utf-8") == "text"
    assert list(tmp_path.iterdir()) == [target]
    assert unlinked == []


def test_write_atomic_whose_rename_fails_leaves_no_temporary(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("before", encoding="utf-8")

    def refuse(*args, **kwargs):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(target, "after")
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text(encoding="utf-8") == "before"

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rxnparse.cli import _build_config, build_parser, main
from rxnparse.config import BASE_NODE_DIMS, ConfigError, ReasoningConfig
from rxnparse.entities import load_document
from rxnparse.pipeline import (
    EXIT_CONFIG,
    EXIT_FAILED,
    EXIT_OK,
    PipelineConfig,
    load_pipeline_weights,
    make_client,
    run_batch,
)
from rxnparse.reasoning import build_chem_graph, build_spatial_graph, propagate
from rxnparse.render import UnknownEntityError, render_svg
from rxnparse.reactions import Reaction

from helpers import arrow_entity, make_doc, molecule_entity
from synthetic import build_corpus


SRC = Path(__file__).resolve().parents[1] / "src"
_EMPTY_REACTION = {"reactants": [], "products": [], "conditions": [], "arrow": []}

# a valid value for every reasoning key, each different from its default
CHANGED_REASONING = {
    "k_nn": 5,
    "radius": 0.3,
    "layers": 3,
    "dim": 40,
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
        assert PipelineConfig(fixtures_dir="fixtures").config_hash() == "fea0ba7b4dc0b6cb"

    def test_dim_below_node_features_rejected(self):
        ReasoningConfig(dim=BASE_NODE_DIMS)
        with pytest.raises(ConfigError, match=f"dim must be >= {BASE_NODE_DIMS}, got {BASE_NODE_DIMS - 1}"):
            ReasoningConfig(dim=BASE_NODE_DIMS - 1)

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
        # matching settings are `eval` flags; they were once accepted here and never read
        (tmp_path / "fx").mkdir()
        for key in ("iou_threshold", "criterion", "polygon_iou"):
            with pytest.raises(ConfigError, match=key):
                PipelineConfig.from_dict({"fixtures_dir": str(tmp_path / "fx"), key: 0.5})


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
        for workers in (1, 4):
            config = PipelineConfig(
                fixtures_dir=str(root / "fixtures"),
                output_dir=str(tmp_path / f"workers{workers}"),
                max_workers=workers,
                cluster_workers=workers,
            )
            documents = run_batch(paths, config).to_dict()["documents"]
            for document in documents:
                del document["stages"]  # wall-clock times
                document["outputs"] = [Path(produced).read_bytes() for produced in document["outputs"]]
            runs.append(documents)
        assert len(runs[0]) >= 20
        assert all(document["status"] == "ok" for document in runs[0])
        assert runs[1] == runs[0]

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
        from rxnparse.pipeline import DEFAULT_QUERY

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

    # the molecule computes its fingerprint through this module's function on first read
    fingerprint_module = importlib.import_module("rxnparse.chem.fingerprint")
    calls = []
    original = fingerprint_module.fingerprint

    def counting(molecule):
        calls.append(molecule)
        return original(molecule)

    monkeypatch.setattr(fingerprint_module, "fingerprint", counting)
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

    def test_fingerprint_subcommand(self, capsys):
        code = main(["fingerprint", "CCO"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert data["atom_counts"] == {"C": 2, "H": 6, "O": 1}
        assert data["fingerprint"]["popcount"] >= 1

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

    @pytest.mark.parametrize(
        "content, named",
        [
            ({"reasoning": {"k_nn": "four"}}, "reasoning.k_nn"),
            ({"reasoning": {"layers": 2.5}}, "reasoning.layers"),
            ({"reasoning": {"tau_fuse": True}}, "reasoning.tau_fuse"),
            ({"reasoning": [1]}, "reasoning"),
            ({"max_workers": "2"}, "max_workers"),
            ({"plan_fallback": "yes"}, "plan_fallback"),
            ({"output_dir": None}, "output_dir"),
            ({"model": 3}, "model"),
            ('{"fixtures_dir": "fx", "reasoning": {', "not valid JSON"),
            ("[1, 2]", "JSON object"),
            (None, "cannot read config file"),
        ],
        ids=[
            "int-as-string", "int-as-float", "float-as-bool", "reasoning-not-object", "workers-as-string",
            "bool-as-string", "null-output-dir", "name-as-number", "truncated", "top-level-array", "missing-file",
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
        "document, message",
        [({"reactions": []}, "document 0 needs 'id'"), ({"id": "d1"}, "document 0 needs 'id' and 'reactions'")],
        ids=["no-id", "no-reactions"],
    )
    def test_malformed_eval_corpus_entry(self, tmp_path, capsys, document, message):
        eval_file = tmp_path / "gt.json"
        eval_file.write_text(json.dumps([document]))
        code = main(["eval", "--gt", str(eval_file), "--pred", str(eval_file)])
        err = capsys.readouterr().err
        assert code == EXIT_FAILED
        assert "ResponseFormatError" in err and message in err

    def test_dim_below_node_features_exits_3(self, corpus, tmp_path, capsys):
        root, paths, _gt = corpus
        args = [str(paths[0]), "--fixtures-dir", str(root / "fixtures"), "--output-dir", str(tmp_path)]
        code = main(["parse", *args, "--dim", "8"])
        assert code == EXIT_CONFIG
        assert "dim must be >= 24, got 8" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

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
        ids = [e.id for e in doc.entities] + ["no-such-entity"]
        pairs = [(a, b) for a in ids for b in ids if a != b]
        assert any(pair in space for pair in pairs) and any(pair in chem for pair in pairs)
        for a, b in pairs:
            assert main(["score-edge", str(paths[0]), a, b, *fixtures]) == EXIT_OK
            data = json.loads(capsys.readouterr().out)
            pair = (min(a, b), max(a, b))
            assert (data["s_space"], data["s_chem"]) == (space.get(pair, 0.5), chem.get(pair, 0.5))
            assert 0.0 <= data["s_space"] <= 1.0 and 0.0 <= data["s_chem"] <= 1.0

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

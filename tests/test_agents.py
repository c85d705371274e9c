import re

import pytest

from rxnparse.agents import (
    AGENT_ROLES,
    FixtureMissingError,
    MockAgentClient,
    TemplateError,
    content_hash,
    load_default_templates,
    render_template,
)


def test_default_templates_cover_all_roles():
    templates = load_default_templates()
    assert set(templates) == set(AGENT_ROLES)
    assert "{{query}}" in templates["planner"]
    assert "{{graph_json}}" in templates["reaction_combiner"]


def test_render_template():
    assert render_template("hello {{name}}!", {"name": "world"}) == "hello world!"


def test_render_template_inserts_values_verbatim():
    assert render_template("text: {{x}}", {"x": "{{y}}"}) == "text: {{y}}"
    # one pass: a value is never searched for another variable's placeholder
    assert render_template("{{a}}|{{b}}", {"a": "{{b}}", "b": "x"}) == "{{b}}|x"


@pytest.mark.parametrize(
    "template, shown",
    [("hello {{name}}!", "{{name}}"), ("{{a}} and {{ unclosed", "{{ unclosed"), ("{{a}}{{", "{{")],
    ids=["no-variable", "unclosed", "trailing-open"],
)
def test_render_template_rejects_unbound_placeholders(template, shown):
    with pytest.raises(TemplateError, match=re.escape(f"unbound template variable {shown}")):
        render_template(template, {"a": "1"})


def test_unbound_variable_raises_before_io(tmp_path):
    client = MockAgentClient(tmp_path)
    with pytest.raises(TemplateError):
        client.request("planner", {})  # missing {{query}}


def test_unknown_role(tmp_path):
    client = MockAgentClient(tmp_path)
    with pytest.raises(TemplateError):
        client.request("astrologer", {})


def test_fixture_missing_is_hard_error(tmp_path):
    client = MockAgentClient(tmp_path)
    with pytest.raises(FixtureMissingError):
        client.request("planner", {"query": "anything"})


def test_mock_replay_byte_identical(tmp_path):
    client = MockAgentClient(tmp_path)
    variables = {"query": "extract all reactions"}
    client.store("planner", variables, '{"plan": {}}')
    first = client.request("planner", variables)
    second = client.request("planner", variables)
    assert first == second == '{"plan": {}}'


def test_mock_keyed_by_role_and_content(tmp_path):
    client = MockAgentClient(tmp_path)
    client.store("planner", {"query": "a"}, "answer-a")
    client.store("planner", {"query": "b"}, "answer-b")
    assert client.request("planner", {"query": "a"}) == "answer-a"
    assert client.request("planner", {"query": "b"}) == "answer-b"


def test_image_contributes_to_key(tmp_path):
    client = MockAgentClient(tmp_path)
    variables = {"query": "same"}
    client.store("planner", variables, "no image")
    client.store("planner", variables, "with image", image=b"\x89PNG")
    assert client.request("planner", variables) == "no image"
    assert client.request("planner", variables, image=b"\x89PNG") == "with image"


def test_content_hash_stable():
    a = content_hash("planner", "prompt text")
    b = content_hash("planner", "prompt text")
    assert a == b
    assert content_hash("other", "prompt text") != a

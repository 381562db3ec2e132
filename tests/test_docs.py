"""README's config-key table states the parser: every key it lists is
accepted, every accepted key is listed, and a default written as one
literal is what a text that leaves the key unset gets (a chrnn's, for a
`model.cond_*` key)."""

import re
from pathlib import Path

import pytest

from bwex.config import _CONVERTERS, build_run_config, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"
_HEADER = "| key | default | meaning |"


def readme_key_table() -> dict:
    """{section.key: default cell} for each row of README's key table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[lines.index(_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        keys_cell, default_cell = line.split("|")[1:3]
        for key in re.findall(r"`(\w+\.\w+)`", keys_cell):
            rows[key] = default_cell.strip()
    return rows


def _single_literal_defaults():
    """(key, literal) for each key whose default cell is one backquoted
    literal. `model.kind` names a class rather than a field value, and
    `model.concat`'s default is a rule."""
    for key, cell in readme_key_table().items():
        literal = re.fullmatch(r"`([^`]+)`", cell)
        if literal and key not in ("model.kind", "model.concat"):
            yield key, literal.group(1)


def test_readme_lists_exactly_the_accepted_keys():
    listed = set(readme_key_table())
    for key in listed:
        section, _, name = key.partition(".")
        assert parse_config_text(f"{key} = 1\n") == {(section, name): "1"}
    assert listed == {f"{section}.{name}" for section, keys in _CONVERTERS.items() for name in keys}


@pytest.mark.parametrize("key, literal", list(_single_literal_defaults()))
def test_readme_default_is_what_an_unset_key_takes(key, literal):
    section, _, name = key.partition(".")
    train_cfg = build_run_config("model.kind = chrnn" if name.startswith("cond_") else "").train_cfg
    assert getattr(train_cfg if section == "train" else train_cfg.model, name) == _CONVERTERS[section][name](literal)

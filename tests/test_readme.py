"""The channel and ensemble schema documented in README.md is the one the code reads."""

import json
import re
from pathlib import Path

from cqekit.channels import CHANNEL_KINDS, channel_from_spec
from cqekit.entropics import ensemble_from_spec

README = (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_json_examples_load():
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", README, re.S)]
    channels = [b for b in blocks if "kind" in b]
    ensembles = [b for b in blocks if "entries" in b]
    assert channels and ensembles and len(channels) + len(ensembles) == len(blocks)
    for spec in channels:
        channel_from_spec(spec)
    for spec in ensembles:
        ensemble_from_spec(spec)


def test_readme_kind_table_matches_channel_kinds():
    rows = re.findall(r"^\| `(\w+)` \| ((?:`\w+`(?:, )?)+) \|", README, re.M)
    documented = {kind: tuple(re.findall(r"`(\w+)`", fields)) for kind, fields in rows}
    assert documented == {kind: fields for kind, (_, fields) in CHANNEL_KINDS.items()}

"""docs/API.md lists every config knob, and nothing else.

The ``FedOMDConfig`` paragraph of the API reference names each field of
``FedOMDConfig`` and its ``TrainerConfig`` base in backticks.  A field
added, removed or renamed without touching that paragraph fails here,
so every change to the config surface shows up in the docs diff.
"""

import dataclasses
import re
from pathlib import Path

from repro.core import FedOMDConfig

API_MD = Path(__file__).resolve().parents[1] / "docs" / "API.md"


def documented_knobs() -> set:
    text = API_MD.read_text(encoding="utf-8")
    start = text.index("`FedOMDConfig` knobs:")
    paragraph = text[start : text.index("\n\n", start)]
    # Field names are lowercase identifiers; class names and the path
    # of this test (also backticked there) are not.
    return set(re.findall(r"`([a-z_][a-z0-9_]*)`", paragraph))


def test_api_doc_lists_every_config_field():
    fields = {f.name for f in dataclasses.fields(FedOMDConfig)}
    documented = documented_knobs()
    assert documented == fields, (
        f"undocumented: {sorted(fields - documented)}; "
        f"documented but not a field: {sorted(documented - fields)}"
    )

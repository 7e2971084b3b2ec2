"""docs/OBSERVABILITY.md must document the complete telemetry surface.

The registry and event log refuse names outside the catalog, so
catalog ⊆ documentation is the only direction that needs enforcing
for the guide to be complete. The catalog in turn holds only names
something in ``src/`` emits, so it shrinks with the code.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.telemetry import names
from repro.telemetry.names import EVENTS, METRICS

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
SRC = Path(names.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def doc_text() -> str:
    return DOC.read_text(encoding="utf-8")


def test_guide_exists():
    assert DOC.exists()


@pytest.mark.parametrize("name", sorted(METRICS))
def test_metric_documented(name, doc_text):
    assert f"`{name}`" in doc_text, (
        f"metric {name!r} is in the catalog but not documented in "
        "docs/OBSERVABILITY.md"
    )


@pytest.mark.parametrize("name", sorted(EVENTS))
def test_event_documented(name, doc_text):
    assert f"`{name}`" in doc_text, (
        f"event {name!r} is in the catalog but not documented in "
        "docs/OBSERVABILITY.md"
    )


def test_every_cataloged_name_has_an_emitter():
    """Each cataloged name's constant is used as ``_tn.<CONSTANT>``
    somewhere in ``src/`` besides the catalog itself."""
    constants = {
        value: key
        for key, value in vars(names).items()
        if key.isupper() and isinstance(value, str)
    }
    cataloged = sorted(METRICS) + sorted(EVENTS)
    assert all(name in constants for name in cataloged)
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in SRC.rglob("*.py")
        if path.resolve() != Path(names.__file__).resolve()
    )
    silent = [
        name for name in cataloged if f"_tn.{constants[name]}" not in source
    ]
    assert silent == []

"""docs/OBSERVABILITY.md must document the complete telemetry surface.

The registry and event log refuse names outside the catalog, so
catalog ⊆ documentation is the only direction that needs enforcing
for the guide to be complete.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.telemetry.names import EVENTS, METRICS

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


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


def test_catalog_is_nonempty():
    assert len(METRICS) >= 29 and len(EVENTS) >= 8

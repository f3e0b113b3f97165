"""Bundled example schemas, two demo corpora, and three scenarios.

``restaurant-corpus.jsonl`` holds categorical pairs under
``restaurant.schema``.  ``temperature-corpus.jsonl`` holds numeric pairs
under ``temperature.schema``: its records repeat atoms, use fractional
constants, carry gold for every verdict, and one line is malformed.

These files double as documentation and as acceptance-test inputs; the CLI
usage examples in the README run against them verbatim.
"""

from importlib import resources
from pathlib import Path


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file."""
    return Path(str(resources.files(__package__).joinpath(name)))

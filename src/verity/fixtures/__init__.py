"""Bundled example schemas, a demo corpus, and three scenarios.

These files double as documentation and as acceptance-test inputs; the CLI
usage examples in the README run against them verbatim.
"""

from importlib import resources
from pathlib import Path


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file."""
    return Path(str(resources.files(__package__).joinpath(name)))

"""Packaging entry point.

The version is single-sourced from ``src/repro/_version.py``; it is
parsed textually (not imported) so ``setup.py`` works before the
package's dependencies-of-the-day are importable and regardless of
``PYTHONPATH``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"


def read_version() -> str:
    match = re.search(
        r'^__version__\s*=\s*"([^"]+)"', _VERSION_FILE.read_text(), re.MULTILINE
    )
    if match is None:
        raise RuntimeError(f"no __version__ found in {_VERSION_FILE}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "Reproduction of 'A Feedback-driven Proportion Allocator for "
        "Real-Rate Scheduling' (OSDI 1999) on a deterministic simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)

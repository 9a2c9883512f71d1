"""Setup shim for environments without the `wheel` package.

`pip install -e . --no-use-pep517` uses this file; all real metadata
(name, version read from ``repro.__version__``, the ``src`` package
dir, the ``repro`` console script) lives in pyproject.toml, which
setuptools reads on its own.
"""

from setuptools import setup

setup()

"""Build script: the package is pure Python; the metadata is in pyproject.toml."""

from setuptools import setup

setup()

"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Fixed examples and a bounded count keep the suite reproducible and quick.
settings.register_profile("suite", derandomize=True, max_examples=150, deadline=None, database=None)
settings.load_profile("suite")

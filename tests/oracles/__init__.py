"""Test-only oracles: earlier implementations kept to diff against."""

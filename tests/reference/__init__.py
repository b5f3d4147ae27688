"""Reference implementations that only the tests import."""

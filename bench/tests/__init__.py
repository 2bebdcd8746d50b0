"""The benchmark's own tests: ``pytest bench/tests`` (not tier-1)."""

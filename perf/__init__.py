"""The serving-stack benchmark; see perf/README.md."""

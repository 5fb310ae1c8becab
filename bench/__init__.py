"""Benchmark harness for mathieulab; see README.md in this directory."""

"""Time-to-verdict benchmark harness for the repro verifier (see README.md)."""

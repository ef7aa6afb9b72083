"""End-to-end and per-layer benchmark of the moyalmetric CLI (see README.md)."""

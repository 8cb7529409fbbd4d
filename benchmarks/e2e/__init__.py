"""The repo's end-to-end + per-layer benchmark (see README.md)."""

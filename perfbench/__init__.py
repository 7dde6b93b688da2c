"""Steady end-to-end benchmark of the certifier (see README.md)."""

"""Local correction of Boolean functions known up to isomorphism."""

__version__ = "0.1.0"
